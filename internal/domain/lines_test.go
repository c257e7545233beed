package domain

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/wire"
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

// lineFixtures returns, per kind, a batch covering the edge values:
// extreme floats and ints, and nil beside empty slices.
func lineFixtures() map[string]*wire.Batch {
	return map[string]*wire.Batch{
		KindSamples: {Kind: wire.KindSamples,
			Features: [][]float32{edgeF32s(), nil, {}, {0.3333333, -1}},
			Labels:   []int64{math.MaxInt32, math.MinInt32, 0, -7},
		},
		KindFusionWindows: {Kind: wire.KindFusionWindows,
			Labels:   []int64{-1, 0, 0, 1},
			Signals:  [][]float32{edgeF32s(), nil, {}, {0.5}},
			Shots:    []int64{math.MaxInt64, 0, 3, 0},
			Starts:   []int64{math.MinInt64, 0, 0, 25},
			Horizons: []float32{1e-7, float32(math.Copysign(0, -1)), 1e21, 0.3},
		},
		KindMaterialsGraphs: {Kind: wire.KindMaterialsGraphs, Graphs: []wire.Graph{
			{Nodes: math.MaxInt64, FeatureDim: -1, NodeFeatures: edgeFloats,
				Edges: []int64{math.MaxInt64, math.MinInt64, 0}, EdgeLengths: []float64{1e-6, 9.999999e-7},
				Energy: -7.25, ClassID: math.MinInt64},
			{Nodes: 1, FeatureDim: 1},
			{NodeFeatures: []float64{}, Edges: []int64{}, EdgeLengths: []float64{}, Energy: 1e21},
			{Nodes: 2, FeatureDim: 1, NodeFeatures: []float64{0.1, 0.2}, Edges: []int64{0, 1},
				EdgeLengths: []float64{1.5}, Energy: math.Copysign(0, -1), ClassID: 4},
		}},
	}
}

// sliceBatch returns records [a, b) of w as a batch of its own.
func sliceBatch(w *wire.Batch, a, b int) *wire.Batch {
	out := &wire.Batch{Kind: w.Kind}
	switch w.Kind {
	case KindSamples:
		out.Features, out.Labels = w.Features[a:b], w.Labels[a:b]
	case KindFusionWindows:
		out.Labels, out.Signals, out.Shots = w.Labels[a:b], w.Signals[a:b], w.Shots[a:b]
		out.Starts, out.Horizons = w.Starts[a:b], w.Horizons[a:b]
	case KindMaterialsGraphs:
		out.Graphs = w.Graphs[a:b]
	}
	return out
}

// lineHeaders are batch headers whose strings need encoding/json's
// escaping: HTML-sensitive bytes, non-ASCII, U+2028, invalid UTF-8,
// control characters, quotes and backslashes.
func lineHeaders(kind string) []wire.BatchHeader {
	return []wire.BatchHeader{
		{Batch: 0, Cursor: "0:0", Kind: kind},
		{Batch: 12345, Cursor: "<a>&b", Kind: "é\u2028\u2029x"},
		{Batch: math.MaxInt, Cursor: "\xff\xfe\x01\n\t\r\b\f\"\\/", Kind: kind + "\x7f"},
	}
}

// assembleLine builds a served line: header, then the columns of rs.
func assembleLine(t *testing.T, h wire.BatchHeader, rs []LineRange) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(AppendLineHeader(nil, h))
	if err := WriteLineColumns(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLineFragmentsMatchMarshal is the NDJSON byte-identity proof: for
// every kind, with the records split across two fragment sets at every
// point (as a batch spanning two shards is), every record range [a,b)
// assembled from the fragments equals json.Marshal of the codec's
// reference Line over the same records, plus the newline.
func TestLineFragmentsMatchMarshal(t *testing.T) {
	for kind, batch := range lineFixtures() {
		codec, ok := codecByKind(kind)
		if !ok {
			t.Fatalf("no codec for kind %q", kind)
		}
		recs := recordsOf(batch)
		for split := 0; split <= len(recs); split++ {
			left, err := EncodeBatchJSON(sliceBatch(batch, 0, split))
			if err != nil {
				t.Fatal(err)
			}
			right, err := EncodeBatchJSON(sliceBatch(batch, split, len(recs)))
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

// TestLineFragmentsRejectNonFinite: NaN and ±Inf anywhere a line holds
// a float fail the fragment encode with json.Marshal's message.
func TestLineFragmentsRejectNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f32 := float32(bad)
		fusion := func(signal []float32, horizon float32) *wire.Batch {
			return &wire.Batch{Kind: wire.KindFusionWindows, Labels: []int64{0}, Signals: [][]float32{signal},
				Shots: []int64{0}, Starts: []int64{0}, Horizons: []float32{horizon}}
		}
		graph := func(g wire.Graph) *wire.Batch {
			return &wire.Batch{Kind: wire.KindMaterialsGraphs, Graphs: []wire.Graph{g}}
		}
		for _, b := range []*wire.Batch{
			{Kind: wire.KindSamples, Features: [][]float32{{1, f32}}, Labels: []int64{0}},
			fusion([]float32{f32}, 0),
			fusion([]float32{1}, f32),
			graph(wire.Graph{NodeFeatures: []float64{bad}}),
			graph(wire.Graph{EdgeLengths: []float64{0, bad}}),
			graph(wire.Graph{Energy: bad}),
		} {
			_, err := EncodeBatchJSON(b)
			if err == nil {
				t.Fatalf("%s: %v encoded", b.Kind, bad)
			}
			codec, _ := codecByKind(b.Kind)
			line, lerr := codec.Line(wire.BatchHeader{Kind: b.Kind}, recordsOf(b))
			if lerr != nil {
				t.Fatal(lerr)
			}
			_, merr := json.Marshal(line)
			if merr == nil || merr.Error() != err.Error() {
				t.Fatalf("%s: fragment error %q, json.Marshal error %v", b.Kind, err, merr)
			}
		}
	}
}

// TestLineFragmentsWrongRecordType: a batch of a kind with no line
// layout — an unknown kind, or an error — is refused, as Line refuses
// records of another kind.
func TestLineFragmentsWrongRecordType(t *testing.T) {
	for _, kind := range []string{"astral_cubes", wire.KindError, ""} {
		if _, err := EncodeBatchJSON(&wire.Batch{Kind: kind, Labels: []int64{1}}); err == nil {
			t.Fatalf("kind %q encoded", kind)
		}
	}
}
