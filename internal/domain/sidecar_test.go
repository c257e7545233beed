// Tests for the frame-ready shard sidecar format: round-trip fidelity,
// and — the property the disk tier's safety rests on — that every
// torn, truncated, or bit-flipped sidecar is rejected by ParseSidecar,
// with an error wrapping ErrCorrupt, before a corrupt byte could reach
// a client.
package domain

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/loader"
)

// testSidecar builds a sidecar over a small synthetic payload with
// mixed record sizes (including a zero-length record).
func testSidecar(t testing.TB) (kind string, payload []byte, offsets []int64, file []byte) {
	t.Helper()
	kind = "test-records"
	payload = []byte("aaabbccccdZZ")
	offsets = []int64{0, 3, 5, 5, 9, 10, 12} // 6 records, record 2 empty
	file, err := AppendSidecar(nil, kind, payload, offsets)
	if err != nil {
		t.Fatal(err)
	}
	return kind, payload, offsets, file
}

func TestSidecarRoundTrip(t *testing.T) {
	kind, payload, offsets, file := testSidecar(t)
	sc, err := OpenSidecar(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Kind() != kind {
		t.Fatalf("kind %q, want %q", sc.Kind(), kind)
	}
	if sc.Count() != len(offsets)-1 {
		t.Fatalf("count %d, want %d", sc.Count(), len(offsets)-1)
	}
	if sc.PayloadLen() != int64(len(payload)) {
		t.Fatalf("payload len %d, want %d", sc.PayloadLen(), len(payload))
	}
	for i, off := range offsets {
		if got := sc.offset(i); got != off {
			t.Fatalf("offset[%d] = %d, want %d", i, got, off)
		}
	}
	if err := sc.VerifyPayload(); err != nil {
		t.Fatal(err)
	}
	if got := sc.payload; !bytes.Equal(got, payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
	if !bytes.Equal(sc.Bytes(), file) {
		t.Fatal("Bytes is not the image the sidecar was read from")
	}
	// Every record range streams exactly its payload slice, including
	// the empty record and multi-record spans.
	for a := 0; a <= sc.Count(); a++ {
		for b := a; b <= sc.Count(); b++ {
			want := payload[offsets[a]:offsets[b]]
			if n := sc.RangeLen(a, b); n != int64(len(want)) {
				t.Fatalf("RangeLen(%d,%d) = %d, want %d", a, b, n, len(want))
			}
			var buf bytes.Buffer
			if err := sc.WriteRange(&buf, a, b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("WriteRange(%d,%d) = %q, want %q", a, b, buf.Bytes(), want)
			}
		}
	}
}

// TestSidecarEmptyPayload: a shard of zero records (or all-empty
// records) still round-trips.
func TestSidecarEmptyPayload(t *testing.T) {
	file, err := AppendSidecar(nil, "k", nil, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := OpenSidecar(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Count() != 0 || sc.PayloadLen() != 0 {
		t.Fatalf("count %d payload %d, want 0/0", sc.Count(), sc.PayloadLen())
	}
	if err := sc.VerifyPayload(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendSidecarRejects: writer-side validation.
func TestAppendSidecarRejects(t *testing.T) {
	payload := []byte("abcd")
	cases := []struct {
		name    string
		kind    string
		offsets []int64
		want    string
	}{
		{"empty kind", "", []int64{0, 4}, "kind"},
		{"long kind", strings.Repeat("k", maxKindLen+1), []int64{0, 4}, "kind"},
		{"no offsets", "k", nil, "span"},
		{"offsets not from zero", "k", []int64{1, 4}, "span"},
		{"offsets short of payload", "k", []int64{0, 3}, "span"},
		{"offsets decrease", "k", []int64{0, 3, 2, 4}, "decrease"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := AppendSidecar(nil, tc.kind, payload, tc.offsets)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// openAndVerify runs the full reader-side verification a server does
// before serving — ParseSidecar checks format and both CRCs — and
// requires every rejection to be marked ErrCorrupt, which is what lets
// the server delete a damaged sidecar and keep an unreadable one.
func openAndVerify(b []byte) error {
	_, err := ParseSidecar(b)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		return errors.New("rejection does not wrap ErrCorrupt: " + err.Error())
	}
	return err
}

// TestSidecarCorruptionDetected: every single-byte flip anywhere in
// the file, every truncation, and trailing garbage must all be caught
// by ParseSidecar. The sidecar's two CRCs plus the exact-size equation
// make this exhaustive check cheap.
func TestSidecarCorruptionDetected(t *testing.T) {
	_, _, _, file := testSidecar(t)
	if err := openAndVerify(file); err != nil {
		t.Fatalf("pristine sidecar rejected: %v", err)
	}
	for i := range file {
		mut := append([]byte(nil), file...)
		mut[i] ^= 0xFF
		if err := openAndVerify(mut); err == nil {
			t.Fatalf("flip at byte %d of %d went undetected", i, len(file))
		}
	}
	for cut := 0; cut < len(file); cut++ {
		if err := openAndVerify(file[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", cut, len(file))
		}
	}
	for _, extra := range []string{"x", "garbage-tail-bytes"} {
		grown := append(append([]byte(nil), file...), extra...)
		if err := openAndVerify(grown); err == nil {
			t.Fatalf("%d trailing garbage bytes went undetected", len(extra))
		}
	}
}

// TestOpenSidecarReadError: a handle that cannot deliver the whole
// sidecar is a read failure, not damage — the error must not wrap
// ErrCorrupt, or the server would delete a sound file over an I/O
// hiccup.
func TestOpenSidecarReadError(t *testing.T) {
	_, _, _, file := testSidecar(t)
	_, err := OpenSidecar(bytes.NewReader(file[:len(file)-1]), int64(len(file)))
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("short read: err = %v, want a read error that is not ErrCorrupt", err)
	}
	if _, err := OpenSidecar(bytes.NewReader(file), maxSidecarBytes+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("impossible size: err = %v, want ErrCorrupt", err)
	}
}

// FuzzSidecarDecode: ParseSidecar on arbitrary bytes must never panic
// or over-allocate, anything it accepts must hold the addressing
// invariants range serving relies on, and OpenSidecar over a reader of
// the same bytes must agree with it on accept/reject, kind, count and
// payload. An accepted sidecar of a served kind must also fill NDJSON
// as json.Marshal would: batch lines built from its Lines fragments
// equal json.Marshal of the codec's Line over the decoded payload, and
// Lines fails exactly when that fails, with the same message.
func FuzzSidecarDecode(f *testing.F) {
	_, _, _, file := testSidecar(f)
	f.Add(file)
	nan, inf := math.NaN(), math.Inf(1)
	graph := func(energy float64) *WireGraph {
		return &WireGraph{Nodes: 2, FeatureDim: 1, NodeFeatures: []float64{1, 2},
			Edges: []int64{0, 1}, EdgeLengths: []float64{1.5}, Energy: energy, ClassID: 1}
	}
	for kind, recs := range map[string][]any{
		KindSamples: {&loader.Sample{Features: edgeF32s(), Label: 3}, &loader.Sample{Features: []float32{}, Label: -1}},
		KindFusionWindows: {&FusionWindow{Signal: edgeF32s(), Shot: 3, Start: 1, Label: 1, Horizon: 0.2},
			&FusionWindow{Signal: []float32{0.5}, Horizon: 1e21}},
		KindMaterialsGraphs: {graph(-3), graph(1e-7)},
		// Non-finite values pack into a sidecar but cannot be a line.
		KindSamples + " nan":         {&loader.Sample{Features: []float32{1, float32(nan)}}},
		KindFusionWindows + " inf":   {&FusionWindow{Signal: []float32{1}, Horizon: float32(inf)}},
		KindMaterialsGraphs + " nan": {graph(nan)},
	} {
		codec, _ := CodecByKind(strings.Fields(kind)[0])
		b, err := EncodeSidecarFile(codec, recs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, cut := range []int{1, len(file) / 2, len(file) - 1} {
		f.Add(append([]byte(nil), file[:cut]...))
	}
	mut := append([]byte(nil), file...)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)
	f.Add([]byte("FPAY"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseSidecar(data)
		osc, oerr := OpenSidecar(bytes.NewReader(data), int64(len(data)))
		if (err == nil) != (oerr == nil) {
			t.Fatalf("ParseSidecar err %v, OpenSidecar err %v", err, oerr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(oerr, ErrCorrupt) {
				t.Fatalf("rejections do not wrap ErrCorrupt: %v / %v", err, oerr)
			}
			return
		}
		if osc.Kind() != sc.Kind() || osc.Count() != sc.Count() || !bytes.Equal(osc.payload, sc.payload) {
			t.Fatalf("OpenSidecar disagrees: kind %q/%q count %d/%d", osc.Kind(), sc.Kind(), osc.Count(), sc.Count())
		}
		if !bytes.Equal(sc.Bytes(), data) {
			t.Fatal("accepted sidecar's image is not its input")
		}
		n := sc.Count()
		if sc.offset(0) != 0 || sc.offset(n) != sc.PayloadLen() || int64(len(sc.payload)) != sc.PayloadLen() {
			t.Fatalf("accepted sidecar with inconsistent bounds: [%d,%d] vs payload %d", sc.offset(0), sc.offset(n), sc.PayloadLen())
		}
		if sc.RangeLen(0, n) != sc.PayloadLen() {
			t.Fatalf("full range %d != payload %d", sc.RangeLen(0, n), sc.PayloadLen())
		}
		// The per-record ranges must reassemble the payload exactly.
		var buf bytes.Buffer
		for i := 0; i < n; i++ {
			if sc.offset(i) > sc.offset(i+1) {
				t.Fatalf("offsets decrease at record %d", i)
			}
			if err := sc.WriteRange(&buf, i, i+1); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(buf.Bytes(), sc.payload) {
			t.Fatal("per-record ranges do not reassemble the payload")
		}

		codec, ok := CodecByKind(sc.Kind())
		if !ok {
			return
		}
		lf, lerr := sc.Lines(codec)
		recs, derr := codec.DecodeFramePayload(sc.payload, n)
		if derr != nil {
			if lerr == nil || lerr.Error() != derr.Error() {
				t.Fatalf("payload decode fails with %v, Lines with %v", derr, lerr)
			}
			return
		}
		for _, h := range lineHeaders(sc.Kind()) {
			line, err := codec.Line(h, recs)
			if err != nil {
				t.Fatal(err)
			}
			want, merr := json.Marshal(line)
			if (lerr == nil) != (merr == nil) || lerr != nil && lerr.Error() != merr.Error() {
				t.Fatalf("Lines error %v, json.Marshal error %v", lerr, merr)
			}
			if lerr != nil || n == 0 {
				return
			}
			if lf.Count() != n {
				t.Fatalf("Lines holds %d records, sidecar %d", lf.Count(), n)
			}
			want = append(want, '\n')
			splits := [][]LineRange{{{F: lf, A: 0, B: n}}}
			if n >= 2 {
				splits = append(splits, []LineRange{{F: lf, A: 0, B: n / 2}, {F: lf, A: n / 2, B: n}})
			}
			for _, rs := range splits {
				if got := assembleLine(t, h, rs); !bytes.Equal(got, want) {
					t.Fatalf("line from sidecar fragments differs from json.Marshal\n got  %.200s\n want %.200s", got, want)
				}
			}
		}
	})
}
