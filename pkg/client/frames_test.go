package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/domain"
	"repro/internal/loader"
)

// fromRecords converts one reference-decoded frame (header + boxed
// codec records from domain.DecodeFrame) into the BatchWire union — the
// conversion the SDK ran before it decoded frames itself, kept as the
// reference the typed decoder is compared against.
func fromRecords(h domain.BatchHeader, recs []any) (*BatchWire, error) {
	w := &BatchWire{Batch: h.Batch, Cursor: h.Cursor, Kind: h.Kind}
	switch h.Kind {
	case domain.KindSamples:
		w.Features = make([][]float32, len(recs))
		w.Labels = make([]int64, len(recs))
		for i, r := range recs {
			s, ok := r.(*loader.Sample)
			if !ok {
				return nil, fmt.Errorf("frame record %d is %T, want sample", i, r)
			}
			w.Features[i] = s.Features
			w.Labels[i] = int64(s.Label)
		}
	case domain.KindFusionWindows:
		w.Labels = make([]int64, len(recs))
		w.Signals = make([][]float32, len(recs))
		w.Shots = make([]int64, len(recs))
		w.Starts = make([]int64, len(recs))
		w.Horizons = make([]float32, len(recs))
		for i, r := range recs {
			f, ok := r.(*domain.FusionWindow)
			if !ok {
				return nil, fmt.Errorf("frame record %d is %T, want fusion window", i, r)
			}
			w.Labels[i] = f.Label
			w.Signals[i] = f.Signal
			w.Shots[i] = f.Shot
			w.Starts[i] = f.Start
			w.Horizons[i] = f.Horizon
		}
	case domain.KindMaterialsGraphs:
		w.Graphs = make([]Graph, len(recs))
		for i, r := range recs {
			g, ok := r.(*domain.WireGraph)
			if !ok {
				return nil, fmt.Errorf("frame record %d is %T, want graph", i, r)
			}
			w.Graphs[i] = Graph{
				Nodes:        g.Nodes,
				FeatureDim:   g.FeatureDim,
				NodeFeatures: g.NodeFeatures,
				Edges:        g.Edges,
				EdgeLengths:  g.EdgeLengths,
				Energy:       g.Energy,
				ClassID:      g.ClassID,
			}
		}
	default:
		return nil, fmt.Errorf("frame with unknown wire kind %q", h.Kind)
	}
	return w, nil
}

// referenceFrame decodes the first frame of b the way the SDK did
// before: domain.DecodeFrame, fromRecords, Validate. A parse failure of
// a complete frame is returned bare, as DecodeFrame returns it.
func referenceFrame(b []byte) (*BatchWire, error) {
	h, recs, _, err := domain.DecodeFrame(b)
	if err != nil {
		return nil, err
	}
	w, err := fromRecords(h, recs)
	if err != nil {
		return nil, &badBatchError{err}
	}
	if err := w.Validate(); err != nil {
		return nil, &badBatchError{err}
	}
	return w, nil
}

// streamFrame decodes the first frame of b through the stream reader,
// validated as Stream.readOne validates it.
func streamFrame(b []byte, loop bool) (*BatchWire, error) {
	f := newFrameReader(bytes.NewReader(b))
	f.loop = loop
	w, err := f.next()
	if err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, &badBatchError{err}
	}
	return w, nil
}

// errClass names what a stream does with an error: a clean end, a
// resume from the cursor, or a terminal failure.
func errClass(err error, isTerminal bool) string {
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "eof"
	case isTerminal:
		return "terminal"
	}
	return "resume"
}

// rawFrame builds a frame from a header and a raw payload, so tests can
// state payloads the encoders refuse to write.
func rawFrame(kind string, count int, payload []byte) []byte {
	body := binary.AppendUvarint(nil, uint64(len(kind)))
	body = append(body, kind...)
	body = binary.AppendUvarint(body, 2)
	body = binary.AppendUvarint(body, 3)
	body = append(body, "1:7"...)
	body = binary.AppendUvarint(body, uint64(count))
	body = append(body, payload...)
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// validFrames are real frames of every kind, including records with
// no features and graphs without edges.
func validFrames(t testing.TB) [][]byte {
	batches := map[string][]any{
		domain.KindSamples: {
			&loader.Sample{Features: []float32{1.5, -2.25, 0}, Label: 3},
			&loader.Sample{Features: []float32{}, Label: -1},
			&loader.Sample{Features: []float32{0.125, float32(math.NaN()), float32(math.Copysign(0, -1))}, Label: 2147483647},
		},
		domain.KindFusionWindows: {
			&domain.FusionWindow{Signal: []float32{0.5, -1, 2.75}, Shot: 42, Start: 25, Label: 1, Horizon: 0.3},
			&domain.FusionWindow{Signal: []float32{9}, Shot: -7, Start: 0, Label: 0, Horizon: 1.25},
		},
		domain.KindMaterialsGraphs: {
			&domain.WireGraph{Nodes: 3, FeatureDim: 2, NodeFeatures: []float64{1, 2, 3, 4, 5, 6},
				Edges: []int64{0, 1, 1, 2}, EdgeLengths: []float64{1.5, 2.5}, Energy: -7.25, ClassID: 1},
			&domain.WireGraph{Nodes: 1, FeatureDim: 1, NodeFeatures: []float64{0},
				Edges: []int64{}, EdgeLengths: []float64{}, Energy: 0, ClassID: 0},
		},
	}
	var out [][]byte
	for _, kind := range []string{domain.KindSamples, domain.KindFusionWindows, domain.KindMaterialsGraphs} {
		codec, _ := domain.CodecByKind(kind)
		recs := batches[kind]
		// The whole batch, and each record alone (so one frame is all
		// empty features, or a graph batch without a single edge).
		for _, batch := range append([][]any{recs}, splitRecords(recs)...) {
			frame, err := domain.EncodeFrame(codec, domain.BatchHeader{Batch: 4, Cursor: "2:9", Kind: kind}, batch)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, frame)
		}
	}
	return out
}

func splitRecords(recs []any) [][]any {
	out := make([][]any, len(recs))
	for i := range recs {
		out[i] = recs[i : i+1]
	}
	return out
}

// frameSeeds are valid frames plus hostile and damaged ones: an error
// frame, an unknown kind, truncations, trailing bytes inside and after
// a frame, bad length prefixes and payloads breaking each codec check.
func frameSeeds(t testing.TB) [][]byte {
	valid := validFrames(t)
	seeds := append([][]byte{}, valid...)
	for _, f := range valid {
		_, sz := binary.Uvarint(f)
		seeds = append(seeds,
			f[:len(f)/2], f[:len(f)-1], f[:sz],
			append(append([]byte{}, f...), 0),
			// One trailing payload byte inside the frame.
			append(binary.AppendUvarint(nil, uint64(len(f)-sz+1)), append(append([]byte{}, f[sz:]...), 0xff)...))
	}
	maxLabel := binary.AppendVarint(binary.AppendUvarint(nil, 0), 1<<31)
	badEndpoint := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1)
	badEndpoint = binary.LittleEndian.AppendUint64(badEndpoint, 0)
	badEndpoint = append(binary.AppendUvarint(badEndpoint, 1), 5, 0)
	badEndpoint = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(badEndpoint, 0), 0)
	badEndpoint = binary.AppendVarint(badEndpoint, 0)
	return append(seeds,
		domain.EncodeErrorFrame("shard s-00002 vanished"),
		rawFrame("astral_cubes", 1, []byte{0, 0}),
		rawFrame(domain.KindSamples, 0, []byte{0, 0}),
		rawFrame(domain.KindSamples, 3, []byte{0, 0}),
		rawFrame(domain.KindSamples, 1, maxLabel),
		rawFrame(domain.KindFusionWindows, 1, []byte{0, 0, 0, 0, 0, 0, 0, 0}),
		rawFrame(domain.KindMaterialsGraphs, 1, badEndpoint),
		[]byte{},
		[]byte{0},
		binary.AppendUvarint(nil, domain.MaxFrameBytes+1),
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		[]byte{0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
	)
}

// sameBatch compares two batches value for value, floats bit for bit
// except for NaN payloads: %#v prints each float in its shortest
// round-trip form, so -0 and 0 differ and a NaN equals a NaN, and it
// tells a nil slice from an empty one.
func sameBatch(a, b *BatchWire) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// checkAgainstReference requires the stream reader to accept exactly
// what the reference accepts, into a deeply equal BatchWire, and to
// classify every error the same way.
func checkAgainstReference(t *testing.T, b []byte, loop bool) {
	t.Helper()
	want, werr := referenceFrame(b)
	got, gerr := streamFrame(b, loop)
	refClass := errClass(werr, werr != nil && werr != io.EOF && werr != io.ErrUnexpectedEOF)
	if c := errClass(gerr, terminal(gerr)); c != refClass {
		t.Fatalf("% x (loop %v): stream reader %s (%v), reference %s (%v)", b, loop, c, gerr, refClass, werr)
	}
	if werr == nil && !sameBatch(got, want) {
		t.Fatalf("% x (loop %v):\n stream    %#v\n reference %#v", b, loop, got, want)
	}
	var se *StreamError
	if errors.As(werr, &se) != errors.As(gerr, &se) {
		t.Fatalf("% x: stream error %v, reference %v", b, gerr, werr)
	}
}

// TestFrameDecodeLoopMatchesCopy runs the byte-order loop (the path of
// big-endian hosts) and the copy path on the same frames: both match
// the reference and each other.
func TestFrameDecodeLoopMatchesCopy(t *testing.T) {
	for _, b := range frameSeeds(t) {
		checkAgainstReference(t, b, false)
		checkAgainstReference(t, b, true)
		viaCopy, err := streamFrame(b, false)
		viaLoop, err2 := streamFrame(b, true)
		if (err == nil) != (err2 == nil) || !sameBatch(viaCopy, viaLoop) {
			t.Fatalf("% x: copy path %v (%v), loop path %v (%v)", b, viaCopy, err, viaLoop, err2)
		}
	}
	if !littleEndian {
		t.Log("big-endian host: the copy path is never taken outside this test")
	}
}

// TestFrameReaderKeepsSmallBodies: the body buffer is reused across
// frames up to maxKeptScratch and dropped beyond it, and the reader
// counts every wire byte.
func TestFrameReaderKeepsSmallBodies(t *testing.T) {
	codec, _ := domain.CodecByKind(domain.KindSamples)
	frame := func(nfeat int) []byte {
		f, err := domain.EncodeFrame(codec, domain.BatchHeader{Kind: domain.KindSamples},
			[]any{&loader.Sample{Features: make([]float32, nfeat)}})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	small, big := frame(16), frame(maxKeptScratch/4+1)
	stream := bytes.Join([][]byte{small, small, big, small}, nil)
	f := newFrameReader(bytes.NewReader(stream))
	var kept []int
	for {
		if _, err := f.next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, cap(f.body))
	}
	if kept[0] == 0 || kept[1] != kept[0] || kept[2] != kept[0] || kept[3] != kept[0] {
		t.Fatalf("kept body capacities %v: want the small buffer reused and the big one dropped", kept)
	}
	if f.n != int64(len(stream)) {
		t.Fatalf("reader counted %d wire bytes, stream is %d", f.n, len(stream))
	}
}

// FuzzDecodeFrameBatch: on any bytes, the stream reader agrees with the
// reference — domain.DecodeFrame, then fromRecords, then Validate — on
// acceptance, on the decoded BatchWire, and on whether an error ends
// the stream or resumes it, on both float paths.
func FuzzDecodeFrameBatch(f *testing.F) {
	for _, s := range frameSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkAgainstReference(t, b, false)
		checkAgainstReference(t, b, true)
	})
}
