package domain

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/loader"
	"repro/internal/wire"
)

// codecByKind returns the registered codec serving a wire kind.
func codecByKind(kind string) (Codec, bool) {
	for _, p := range Plugins() {
		if p.Codec.Kind() == kind {
			return p.Codec, true
		}
	}
	return nil, false
}

// recordsOf boxes a decoded batch's records as its kind's codec
// produces them, so they can be compared with the codec's own
// records and fed to its Line and AppendFramePayload.
func recordsOf(b *wire.Batch) []any {
	recs := make([]any, b.Count())
	for i := range recs {
		switch b.Kind {
		case KindSamples:
			recs[i] = &loader.Sample{Features: b.Features[i], Label: int32(b.Labels[i])}
		case KindFusionWindows:
			recs[i] = &FusionWindow{Signal: b.Signals[i], Shot: b.Shots[i], Start: b.Starts[i],
				Label: b.Labels[i], Horizon: b.Horizons[i]}
		case KindMaterialsGraphs:
			g := b.Graphs[i]
			recs[i] = &g
		}
	}
	return recs
}

// decodeFrame parses one frame off the front of b with the wire
// decoder and returns its records boxed, and the remainder. An empty b
// is io.EOF; a frame cut short is io.ErrUnexpectedEOF.
func decodeFrame(b []byte) (wire.BatchHeader, []any, []byte, error) {
	if len(b) == 0 {
		return wire.BatchHeader{}, nil, nil, io.EOF
	}
	ln, sz := binary.Uvarint(b)
	if sz == 0 {
		return wire.BatchHeader{}, nil, nil, io.ErrUnexpectedEOF
	}
	if sz < 0 || ln == 0 || ln > wire.MaxFrameBytes {
		return wire.BatchHeader{}, nil, nil, fmt.Errorf("bad frame length %d", ln)
	}
	if uint64(len(b)-sz) < ln {
		return wire.BatchHeader{}, nil, nil, io.ErrUnexpectedEOF
	}
	rest := b[sz+int(ln):]
	w, err := new(wire.Decoder).Decode(b[sz : sz+int(ln)])
	if err != nil {
		return wire.BatchHeader{}, nil, rest, err
	}
	return wire.BatchHeader{Batch: w.Batch, Cursor: w.Cursor, Kind: w.Kind}, recordsOf(w), rest, nil
}

// rawFrame frames a header announcing count records over a raw
// payload, so tests can state frames the encoders refuse to write.
func rawFrame(h wire.BatchHeader, count uint64, payload []byte) []byte {
	body := binary.AppendUvarint(nil, uint64(len(h.Kind)))
	body = append(body, h.Kind...)
	body = binary.AppendUvarint(body, uint64(h.Batch))
	body = binary.AppendUvarint(body, uint64(len(h.Cursor)))
	body = append(body, h.Cursor...)
	body = append(binary.AppendUvarint(body, count), payload...)
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// frameFixtures returns, per codec, shard-encoded records the way each
// domain's shard stage writes them.
func frameFixtures(t *testing.T) map[string][][]byte {
	t.Helper()
	return map[string][][]byte{
		KindSamples: {
			(&loader.Sample{Features: []float32{1.5, -2.25, 0}, Label: 3}).Encode(),
			(&loader.Sample{Features: []float32{0.125}, Label: -1}).Encode(),
			(&loader.Sample{Features: []float32{}, Label: 0}).Encode(),
		},
		KindFusionWindows: {
			fusionExample([]float32{0.5, -1, 2.75}, 42, 25, 1, 0.3),
			fusionExample([]float32{9}, -7, 0, 0, 1.25),
		},
		KindMaterialsGraphs: {
			materialsRecord(t, 3, 2, [][2]int{{0, 1}, {1, 2}}, -7.25, 1),
			materialsRecord(t, 1, 1, nil, 0, 0),
		},
	}
}

// TestFrameRoundTrip: for every codec, shard records decoded then
// framed then frame-decoded by the wire decoder reproduce the records
// and the header.
func TestFrameRoundTrip(t *testing.T) {
	for kind, raws := range frameFixtures(t) {
		codec, ok := codecByKind(kind)
		if !ok {
			t.Fatalf("no codec for kind %q", kind)
		}
		var recs []any
		for _, raw := range raws {
			r, _, err := codec.Decode(raw)
			if err != nil {
				t.Fatalf("%s: decode: %v", kind, err)
			}
			recs = append(recs, r)
		}
		h := wire.BatchHeader{Batch: 7, Cursor: "3:12", Kind: kind}
		frame, err := EncodeFrame(codec, h, recs)
		if err != nil {
			t.Fatalf("%s: encode frame: %v", kind, err)
		}
		gotH, gotRecs, rest, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("%s: decode frame: %v", kind, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing bytes", kind, len(rest))
		}
		if gotH != h {
			t.Fatalf("%s: header %+v, want %+v", kind, gotH, h)
		}
		if !reflect.DeepEqual(gotRecs, recs) {
			t.Fatalf("%s: records differ:\n got %#v\nwant %#v", kind, gotRecs, recs)
		}
		// Two concatenated frames parse in sequence.
		double := append(append([]byte{}, frame...), frame...)
		_, _, rest, err = decodeFrame(double)
		if err != nil || len(rest) != len(frame) {
			t.Fatalf("%s: concatenated frames: rest=%d err=%v", kind, len(rest), err)
		}
	}
}

// TestFrameNDJSONEquivalence is the cross-format acceptance proof:
// frame decode == NDJSON decode record-for-record. Both emissions are
// built from the same decoded records; pushing the frame-decoded
// records back through the NDJSON line builder must reproduce the
// original NDJSON line byte-for-byte.
func TestFrameNDJSONEquivalence(t *testing.T) {
	for kind, raws := range frameFixtures(t) {
		codec, _ := codecByKind(kind)
		var recs []any
		for _, raw := range raws {
			r, _, err := codec.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		h := wire.BatchHeader{Batch: 0, Cursor: "1:0", Kind: kind}
		line, err := codec.Line(h, recs)
		if err != nil {
			t.Fatal(err)
		}
		ndjson, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := EncodeFrame(codec, h, recs)
		if err != nil {
			t.Fatal(err)
		}
		_, frameRecs, _, err := decodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(frameRecs, recs) {
			t.Fatalf("%s: frame records != shard-decoded records", kind)
		}
		line2, err := codec.Line(h, frameRecs)
		if err != nil {
			t.Fatal(err)
		}
		ndjson2, err := json.Marshal(line2)
		if err != nil {
			t.Fatal(err)
		}
		if string(ndjson) != string(ndjson2) {
			t.Fatalf("%s: NDJSON from frame-decoded records differs:\n %s\n %s", kind, ndjson, ndjson2)
		}
	}
}

// TestFramePayloadConcatenation pins the invariant the encoded-frame
// shard cache is built on: for every codec, a batch payload is exactly
// the concatenation of its single-record payloads, so a cached
// per-record encoding can be range-sliced into any batch and stay
// byte-identical to encoding that batch directly. A codec that adds
// batch-level payload state (a count prefix, inter-record framing,
// compression across records) breaks zero-copy serving and must fail
// here.
func TestFramePayloadConcatenation(t *testing.T) {
	for kind, raws := range frameFixtures(t) {
		codec, _ := codecByKind(kind)
		var recs []any
		for _, raw := range raws {
			r, _, err := codec.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}

		batch, err := codec.AppendFramePayload(nil, recs)
		if err != nil {
			t.Fatalf("%s: batch payload: %v", kind, err)
		}
		payload, offsets, err := EncodeRecordPayloads(codec, recs)
		if err != nil {
			t.Fatalf("%s: per-record payloads: %v", kind, err)
		}
		if !bytes.Equal(batch, payload) {
			t.Fatalf("%s: concat of single-record payloads differs from batch payload", kind)
		}
		if len(offsets) != len(recs)+1 || offsets[0] != 0 || offsets[len(recs)] != int64(len(payload)) {
			t.Fatalf("%s: offsets %v for %d records, payload %d bytes", kind, offsets, len(recs), len(payload))
		}
		// Every sub-range sliced from the cached payload equals encoding
		// that record range directly — the cursor/batch_size freedom the
		// serving path relies on.
		for a := 0; a <= len(recs); a++ {
			for b := a; b <= len(recs); b++ {
				want, err := codec.AppendFramePayload(nil, recs[a:b])
				if err != nil {
					t.Fatal(err)
				}
				if got := payload[offsets[a]:offsets[b]]; !bytes.Equal(got, want) {
					t.Fatalf("%s: slice [%d:%d) differs from direct encoding", kind, a, b)
				}
			}
		}

		// FrameEnvelope over the cached payload reproduces EncodeFrame's
		// bytes exactly: envelope + payload == full frame.
		h := wire.BatchHeader{Batch: 3, Cursor: "2:5", Kind: kind}
		frame, err := EncodeFrame(codec, h, recs)
		if err != nil {
			t.Fatal(err)
		}
		env, err := wire.FrameEnvelope(h, len(recs), len(payload))
		if err != nil {
			t.Fatal(err)
		}
		if got := append(append([]byte{}, env...), payload...); !bytes.Equal(got, frame) {
			t.Fatalf("%s: envelope+payload != EncodeFrame output (%d vs %d bytes)", kind, len(got), len(frame))
		}
	}
}

// TestFrameEnvelopeRejects: oversized and negative payloads error.
func TestFrameEnvelopeRejects(t *testing.T) {
	if _, err := wire.FrameEnvelope(wire.BatchHeader{Kind: wire.KindSamples}, 1, -1); err == nil {
		t.Fatal("negative payload length accepted")
	}
	if _, err := wire.FrameEnvelope(wire.BatchHeader{Kind: wire.KindSamples}, 1, wire.MaxFrameBytes); err == nil {
		t.Fatal("over-cap frame body accepted")
	}
}

// TestErrorFrame: the in-band failure frame surfaces as *StreamError.
func TestErrorFrame(t *testing.T) {
	f := wire.EncodeErrorFrame("shard s-00002 vanished")
	_, _, _, err := decodeFrame(f)
	var se *wire.StreamError
	if !errors.As(err, &se) || se.Msg != "shard s-00002 vanished" {
		t.Fatalf("error frame decoded as %v", err)
	}
}

// TestFrameDecodeRejects: hostile frames — truncations, oversized
// counts, lying lengths, bad varints, foreign kinds — error cleanly.
func TestFrameDecodeRejects(t *testing.T) {
	codec, _ := codecByKind(wire.KindSamples)
	rec, _, err := codec.Decode((&loader.Sample{Features: []float32{1, 2}, Label: 5}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	valid, err := EncodeFrame(codec, wire.BatchHeader{Batch: 1, Cursor: "0:1", Kind: wire.KindSamples}, []any{rec})
	if err != nil {
		t.Fatal(err)
	}

	// Empty buffer is a clean EOF, not an error.
	if _, _, _, err := decodeFrame(nil); err != io.EOF {
		t.Fatalf("empty buffer: %v", err)
	}
	// Every truncation of a valid frame must fail without panicking.
	for n := 1; n < len(valid); n++ {
		if _, _, _, err := decodeFrame(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Oversized record count.
	if _, _, _, err := decodeFrame(rawFrame(wire.BatchHeader{Kind: wire.KindSamples}, 1<<30, nil)); err == nil {
		t.Fatal("oversized count accepted")
	}
	// Frame length beyond the cap.
	huge := binary.AppendUvarint(nil, wire.MaxFrameBytes+1)
	if _, _, _, err := decodeFrame(append(huge, 0)); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	// Unknown kind.
	if _, _, _, err := decodeFrame(rawFrame(wire.BatchHeader{Kind: "astral_cubes"}, 1, []byte{0, 0})); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Trailing garbage after the declared records.
	_, sz := binary.Uvarint(valid)
	body := append(append([]byte{}, valid[sz:]...), 0xFF)
	tampered := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	if _, _, _, err := decodeFrame(tampered); err == nil {
		t.Fatal("trailing payload bytes accepted")
	}
	// A materials payload whose edge endpoint exceeds its node count
	// must be rejected — clients index node_features by endpoints.
	bad := binary.AppendUvarint(nil, 1) // nodes
	bad = binary.AppendUvarint(bad, 1)  // feature_dim
	bad = binary.LittleEndian.AppendUint64(bad, 0)
	bad = binary.AppendUvarint(bad, 1) // one edge
	bad = binary.AppendUvarint(bad, 5) // endpoint 5 >= 1 node
	bad = binary.AppendUvarint(bad, 0)
	bad = binary.LittleEndian.AppendUint64(bad, 0) // edge length
	bad = binary.LittleEndian.AppendUint64(bad, 0) // energy
	bad = binary.AppendVarint(bad, 0)              // class_id
	if _, err := new(wire.Decoder).DecodePayload(wire.KindMaterialsGraphs, bad, 1); err == nil {
		t.Fatal("out-of-range edge endpoint accepted")
	}
}

// FuzzFrameDecode hardens the wire decoder — header varints and all
// three kinds' payloads — against hostile bytes: it must never panic
// or over-allocate, and whatever it accepts must re-encode through the
// kind's codec.
func FuzzFrameDecode(f *testing.F) {
	// Valid single frames for each codec as seeds.
	sample := &loader.Sample{Features: []float32{1, 2}, Label: 5}
	w := &FusionWindow{Signal: []float32{0.5}, Shot: 3, Start: 1, Label: 1, Horizon: 0.2}
	g := &wire.Graph{Nodes: 2, FeatureDim: 1, NodeFeatures: []float64{1, 2},
		Edges: []int64{0, 1}, EdgeLengths: []float64{1.5}, Energy: -3, ClassID: 1}
	for kind, rec := range map[string]any{
		KindSamples: sample, KindFusionWindows: w, KindMaterialsGraphs: g,
	} {
		codec, _ := codecByKind(kind)
		frame, err := EncodeFrame(codec, wire.BatchHeader{Batch: 1, Cursor: "0:1", Kind: kind}, []any{rec})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add(wire.EncodeErrorFrame("boom"))
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, recs, _, err := decodeFrame(b)
		if err != nil {
			return
		}
		if len(recs) == 0 {
			t.Fatalf("accepted data frame with no records: %+v", h)
		}
		codec, ok := codecByKind(h.Kind)
		if !ok {
			t.Fatalf("accepted frame with unresolvable kind %q", h.Kind)
		}
		if _, err := EncodeFrame(codec, h, recs); err != nil {
			t.Fatalf("accepted records fail re-encoding: %v", err)
		}
	})
}
