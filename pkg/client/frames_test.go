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
	"repro/internal/wire"
)

// codecFor returns the domain codec serving a wire kind, for encoding
// test frames.
func codecFor(t testing.TB, kind string) domain.Codec {
	t.Helper()
	for _, p := range domain.Plugins() {
		if p.Codec.Kind() == kind {
			return p.Codec
		}
	}
	t.Fatalf("no codec serves kind %q", kind)
	return nil
}

// referenceFrame decodes the first frame of b the plain way, as the
// reference wire.Decoder is compared against: the length prefix with
// binary.Uvarint, the header with wire.ParseFrameHeader, then one
// record at a time with each check written out again and a fresh
// slice per tensor, then Validate. A parse failure of a complete frame
// is returned bare; a batch Validate refuses is a badBatchError.
func referenceFrame(b []byte) (*BatchWire, error) {
	if len(b) == 0 {
		return nil, io.EOF
	}
	ln, sz := binary.Uvarint(b)
	if sz == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	if sz < 0 || ln == 0 || ln > wire.MaxFrameBytes {
		return nil, fmt.Errorf("bad frame length %d", ln)
	}
	if uint64(len(b)-sz) < ln {
		return nil, io.ErrUnexpectedEOF
	}
	h, count, payload, err := wire.ParseFrameHeader(b[sz : sz+int(ln)])
	if err != nil {
		return nil, err
	}
	p := wire.NewFrameParser(payload)
	f32s := func(n int, what string) []float32 {
		raw := p.Bytes(4*n, what)
		out := make([]float32, len(raw)/4)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		return out
	}
	f64s := func(n int, what string) []float64 {
		raw := p.Bytes(8*n, what)
		out := make([]float64, len(raw)/8)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		return out
	}
	w := &BatchWire{Batch: h.Batch, Cursor: h.Cursor, Kind: h.Kind}
	for i := 0; i < count && p.Err() == nil; i++ {
		switch h.Kind {
		case wire.KindSamples:
			feats := f32s(p.Length(4, "feature count"), "features")
			label := p.Varint("label")
			if p.Err() == nil && (label < math.MinInt32 || label > math.MaxInt32) {
				p.Fail("label %d out of int32 range", label)
			}
			w.Features = append(w.Features, feats)
			w.Labels = append(w.Labels, label)
		case wire.KindFusionWindows:
			n := p.Length(4, "signal length")
			if p.Err() == nil && n == 0 {
				p.Fail("fusion window without signal floats")
			}
			w.Signals = append(w.Signals, f32s(n, "signal"))
			w.Shots = append(w.Shots, p.Varint("shot"))
			w.Starts = append(w.Starts, p.Varint("start"))
			w.Labels = append(w.Labels, p.Varint("label"))
			w.Horizons = append(w.Horizons, f32s(1, "horizon")...)
		case wire.KindMaterialsGraphs:
			nodes := p.Uvarint("node count")
			dim := p.Uvarint("feature dim")
			if p.Err() == nil && (nodes < 1 || dim < 1 || nodes > wire.MaxFrameBytes || dim > wire.MaxFrameBytes) {
				p.Fail("graph shape [%d,%d] out of range", nodes, dim)
			}
			if p.Err() == nil && nodes*dim > uint64(p.Len())/8 {
				p.Fail("node_features [%d,%d] exceeds %d remaining payload bytes", nodes, dim, p.Len())
			}
			if p.Err() != nil {
				break
			}
			g := Graph{Nodes: int(nodes), FeatureDim: int(dim), NodeFeatures: f64s(int(nodes*dim), "node_features")}
			ne := p.Length(2, "edge count")
			g.Edges = make([]int64, 0, min(2*ne, 1024))
			for j := 0; j < 2*ne && p.Err() == nil; j++ {
				e := p.Uvarint("edge endpoint")
				if p.Err() == nil && e >= nodes {
					p.Fail("edge endpoint %d outside %d nodes", e, nodes)
				}
				g.Edges = append(g.Edges, int64(e))
			}
			g.EdgeLengths = f64s(ne, "edge_lengths")
			energy := f64s(1, "energy")
			g.ClassID = p.Varint("class_id")
			if p.Err() == nil {
				g.Energy = energy[0]
			}
			w.Graphs = append(w.Graphs, g)
		}
	}
	if err := p.Finish(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, &badBatchError{err}
	}
	return w, nil
}

// streamFrame decodes the first frame of b through the stream reader,
// as Stream.readOne does: a frame batch is not validated again.
func streamFrame(b []byte, loop bool) (*BatchWire, error) {
	f := newFrameReader(bytes.NewReader(b))
	f.dec.Loop = loop
	return f.next()
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
		wire.KindSamples: {
			&loader.Sample{Features: []float32{1.5, -2.25, 0}, Label: 3},
			&loader.Sample{Features: []float32{}, Label: -1},
			&loader.Sample{Features: []float32{0.125, float32(math.NaN()), float32(math.Copysign(0, -1))}, Label: 2147483647},
		},
		wire.KindFusionWindows: {
			&domain.FusionWindow{Signal: []float32{0.5, -1, 2.75}, Shot: 42, Start: 25, Label: 1, Horizon: 0.3},
			&domain.FusionWindow{Signal: []float32{9}, Shot: -7, Start: 0, Label: 0, Horizon: 1.25},
		},
		wire.KindMaterialsGraphs: {
			&wire.Graph{Nodes: 3, FeatureDim: 2, NodeFeatures: []float64{1, 2, 3, 4, 5, 6},
				Edges: []int64{0, 1, 1, 2}, EdgeLengths: []float64{1.5, 2.5}, Energy: -7.25, ClassID: 1},
			&wire.Graph{Nodes: 1, FeatureDim: 1, NodeFeatures: []float64{0},
				Edges: []int64{}, EdgeLengths: []float64{}, Energy: 0, ClassID: 0},
		},
	}
	var out [][]byte
	for _, kind := range []string{wire.KindSamples, wire.KindFusionWindows, wire.KindMaterialsGraphs} {
		codec := codecFor(t, kind)
		recs := batches[kind]
		// The whole batch, and each record alone (so one frame is all
		// empty features, or a graph batch without a single edge).
		for _, batch := range append([][]any{recs}, splitRecords(recs)...) {
			frame, err := domain.EncodeFrame(codec, wire.BatchHeader{Batch: 4, Cursor: "2:9", Kind: kind}, batch)
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
		wire.EncodeErrorFrame("shard s-00002 vanished"),
		rawFrame("astral_cubes", 1, []byte{0, 0}),
		rawFrame(wire.KindSamples, 0, []byte{0, 0}),
		rawFrame(wire.KindSamples, 3, []byte{0, 0}),
		rawFrame(wire.KindSamples, 1, maxLabel),
		rawFrame(wire.KindFusionWindows, 1, []byte{0, 0, 0, 0, 0, 0, 0, 0}),
		rawFrame(wire.KindMaterialsGraphs, 1, badEndpoint),
		[]byte{},
		[]byte{0},
		binary.AppendUvarint(nil, wire.MaxFrameBytes+1),
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
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Log("big-endian host: both runs take the byte-order loop")
	}
}

// TestFrameReaderKeepsSmallBodies: the body buffer is reused across
// frames up to maxKeptScratch and dropped beyond it, and the reader
// counts every wire byte.
func TestFrameReaderKeepsSmallBodies(t *testing.T) {
	codec := codecFor(t, wire.KindSamples)
	frame := func(nfeat int) []byte {
		f, err := domain.EncodeFrame(codec, wire.BatchHeader{Kind: wire.KindSamples},
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
// reference — referenceFrame, which ends in Validate — on
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
