package domain

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/loader"
)

// edgeFloats are values whose JSON text exercises every branch of
// encoding/json's float formatting: signed zero, both sides of the
// 1e-6 and 1e21 exponent cutoffs, e-0N exponents, values that round
// differently in float32, subnormals and the extremes.
var edgeFloats = []float64{
	math.Copysign(0, -1), 0, 1e-7, 9.999999e-7, 1e-6, 1e20, 1e21, 1.5e-10,
	0.1, 1.0 / 3, 16777217, 123456789, -2.5e-8, 1e-45, 3.4e-39,
	math.MaxFloat32, math.SmallestNonzeroFloat32, 5e-324, math.MaxFloat64,
}

func edgeF32s() []float32 {
	var out []float32
	for _, v := range edgeFloats {
		if math.Abs(v) <= math.MaxFloat32 {
			out = append(out, float32(v))
		}
	}
	return out
}

// lineFixtures returns, per kind, records covering the edge values:
// extreme floats and ints, and nil beside empty slices.
func lineFixtures() map[string][]any {
	return map[string][]any{
		KindSamples: {
			&loader.Sample{Features: edgeF32s(), Label: math.MaxInt32},
			&loader.Sample{Features: nil, Label: math.MinInt32},
			&loader.Sample{Features: []float32{}, Label: 0},
			&loader.Sample{Features: []float32{0.3333333, -1}, Label: -7},
		},
		KindFusionWindows: {
			&FusionWindow{Signal: edgeF32s(), Shot: math.MaxInt64, Start: math.MinInt64, Label: -1, Horizon: 1e-7},
			&FusionWindow{Signal: nil, Horizon: float32(math.Copysign(0, -1))},
			&FusionWindow{Signal: []float32{}, Shot: 3, Horizon: 1e21},
			&FusionWindow{Signal: []float32{0.5}, Start: 25, Label: 1, Horizon: 0.3},
		},
		KindMaterialsGraphs: {
			&WireGraph{Nodes: math.MaxInt64, FeatureDim: -1, NodeFeatures: edgeFloats,
				Edges: []int64{math.MaxInt64, math.MinInt64, 0}, EdgeLengths: []float64{1e-6, 9.999999e-7},
				Energy: -7.25, ClassID: math.MinInt64},
			&WireGraph{Nodes: 1, FeatureDim: 1},
			&WireGraph{NodeFeatures: []float64{}, Edges: []int64{}, EdgeLengths: []float64{}, Energy: 1e21},
			(*WireGraph)(nil),
			&WireGraph{Nodes: 2, FeatureDim: 1, NodeFeatures: []float64{0.1, 0.2}, Edges: []int64{0, 1},
				EdgeLengths: []float64{1.5}, Energy: math.Copysign(0, -1), ClassID: 4},
		},
	}
}

// lineHeaders are batch headers whose strings need encoding/json's
// escaping: HTML-sensitive bytes, non-ASCII, U+2028, invalid UTF-8,
// control characters, quotes and backslashes.
func lineHeaders(kind string) []BatchHeader {
	return []BatchHeader{
		{Batch: 0, Cursor: "0:0", Kind: kind},
		{Batch: 12345, Cursor: "<a>&b", Kind: "é\u2028\u2029x"},
		{Batch: math.MaxInt, Cursor: "\xff\xfe\x01\n\t\r\b\f\"\\/", Kind: kind + "\x7f"},
	}
}

// assembleLine builds a served line: header, then the columns of rs.
func assembleLine(t *testing.T, h BatchHeader, rs []LineRange) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(AppendLineHeader(nil, h))
	if err := WriteLineColumns(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLineFragmentsMatchMarshal is the NDJSON byte-identity proof: for
// every codec, with the records split across two fragment sets at
// every point (as a batch spanning two shards is), every record range
// [a,b) assembled from the fragments equals json.Marshal of the
// codec's reference Line over the same records, plus the newline.
func TestLineFragmentsMatchMarshal(t *testing.T) {
	for kind, recs := range lineFixtures() {
		codec, ok := CodecByKind(kind)
		if !ok {
			t.Fatalf("no codec for kind %q", kind)
		}
		for split := 0; split <= len(recs); split++ {
			left, err := EncodeRecordJSON(codec, recs[:split])
			if err != nil {
				t.Fatal(err)
			}
			right, err := EncodeRecordJSON(codec, recs[split:])
			if err != nil {
				t.Fatal(err)
			}
			if left.Count() != split || right.Count() != len(recs)-split {
				t.Fatalf("%s: counts %d+%d for a split at %d of %d", kind, left.Count(), right.Count(), split, len(recs))
			}
			for a := 0; a < len(recs); a++ {
				for b := a + 1; b <= len(recs); b++ {
					var rs []LineRange
					if a < split {
						rs = append(rs, LineRange{F: left, A: a, B: min(b, split)})
					}
					if b > split {
						rs = append(rs, LineRange{F: right, A: max(a, split) - split, B: b - split})
					}
					for _, h := range lineHeaders(kind) {
						line, err := codec.Line(h, recs[a:b])
						if err != nil {
							t.Fatal(err)
						}
						want, err := json.Marshal(line)
						if err != nil {
							t.Fatal(err)
						}
						want = append(want, '\n')
						if got := assembleLine(t, h, rs); !bytes.Equal(got, want) {
							t.Fatalf("%s: records [%d,%d) split at %d:\n got  %s\n want %s", kind, a, b, split, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLineFragmentsRejectNonFinite: NaN and ±Inf anywhere a codec
// writes a float fail the fragment encode with json.Marshal's message.
func TestLineFragmentsRejectNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, rec := range []any{
			&loader.Sample{Features: []float32{1, float32(bad)}},
			&FusionWindow{Signal: []float32{float32(bad)}},
			&FusionWindow{Signal: []float32{1}, Horizon: float32(bad)},
			&WireGraph{NodeFeatures: []float64{bad}},
			&WireGraph{EdgeLengths: []float64{0, bad}},
			&WireGraph{Energy: bad},
		} {
			var codec Codec
			switch rec.(type) {
			case *loader.Sample:
				codec = sampleCodec{}
			case *FusionWindow:
				codec = fusionCodec{}
			default:
				codec = materialsCodec{}
			}
			_, err := EncodeRecordJSON(codec, []any{rec})
			if err == nil {
				t.Fatalf("%s: %v encoded", codec.Kind(), bad)
			}
			line, lerr := codec.Line(BatchHeader{Kind: codec.Kind()}, []any{rec})
			if lerr != nil {
				t.Fatal(lerr)
			}
			_, merr := json.Marshal(line)
			if merr == nil || merr.Error() != err.Error() {
				t.Fatalf("%s: fragment error %q, json.Marshal error %v", codec.Kind(), err, merr)
			}
		}
	}
}

// TestLineFragmentsWrongRecordType: a codec refuses another kind's
// records, as Line does.
func TestLineFragmentsWrongRecordType(t *testing.T) {
	for _, c := range []Codec{sampleCodec{}, fusionCodec{}, materialsCodec{}} {
		if _, err := EncodeRecordJSON(c, []any{struct{}{}}); err == nil {
			t.Fatalf("%s: foreign record encoded", c.Kind())
		}
	}
}
