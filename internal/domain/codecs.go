// Wire codecs: one per shard-record encoding. A codec's Decode and
// AppendFramePayload run once per record when a shard's sidecar is
// built, and nowhere else on a serving path: both wires serve from the
// sidecar, which the wire package's decoder alone reads back. Line is
// the reference NDJSON encoder the fragments are tested against; no
// serving path calls it.
package domain

import (
	"fmt"
	"math"

	"repro/internal/formats/bp"
	"repro/internal/formats/tfrecord"
	"repro/internal/loader"
	"repro/internal/wire"
)

// The wire kind names, as wire names them. Only bench/ uses these
// aliases; they go once it names wire's.
const (
	KindSamples         = wire.KindSamples
	KindFusionWindows   = wire.KindFusionWindows
	KindMaterialsGraphs = wire.KindMaterialsGraphs
)

// sampleCodec serves loader.Sample shards (climate, bio): flat float32
// feature vectors with integer labels.
type sampleCodec struct{}

func (sampleCodec) Kind() string { return wire.KindSamples }

func (sampleCodec) Decode(rec []byte) (any, int64, error) {
	s, err := loader.DecodeSample(rec)
	if err != nil {
		return nil, 0, err
	}
	return s, int64(len(rec)), nil
}

// sampleLine keeps the pre-plugin wire layout: features and labels at
// the top level, now tagged with a kind.
type sampleLine struct {
	wire.BatchHeader
	Features [][]float32 `json:"features"`
	Labels   []int32     `json:"labels"`
}

func (sampleCodec) Line(h wire.BatchHeader, recs []any) (any, error) {
	ln := &sampleLine{BatchHeader: h,
		Features: make([][]float32, len(recs)), Labels: make([]int32, len(recs))}
	for i, r := range recs {
		s, ok := r.(*loader.Sample)
		if !ok {
			return nil, fmt.Errorf("domain: samples codec got %T", r)
		}
		ln.Features[i] = s.Features
		ln.Labels[i] = s.Label
	}
	return ln, nil
}

// FusionWindow is one decoded fusion shard record: a windowed,
// channel-major diagnostic slice with its disruption label and the
// horizon the label looks ahead.
type FusionWindow struct {
	Signal  []float32
	Shot    int64
	Start   int64
	Label   int64
	Horizon float32
}

// fusionCodec serves the fusion pipeline's TFRecord tf.train.Examples.
type fusionCodec struct{}

func (fusionCodec) Kind() string { return wire.KindFusionWindows }

func (fusionCodec) Decode(rec []byte) (any, int64, error) {
	ex, err := tfrecord.Unmarshal(rec)
	if err != nil {
		return nil, 0, err
	}
	w := &FusionWindow{Signal: ex.Features["signal"].Floats}
	if len(w.Signal) == 0 {
		return nil, 0, fmt.Errorf("domain: fusion record without signal floats")
	}
	// signal/shot/label have been written since the pipeline's first
	// version — their absence means corruption, not age, so it is an
	// error (a silently-defaulted label=0 would mis-serve "disruption"
	// ground truth). start/horizon were added with the serving codecs
	// and legitimately default to zero on pre-plugin shards replayed
	// from older data dirs.
	requiredInt := func(name string) (int64, error) {
		ints := ex.Features[name].Ints
		if len(ints) == 0 {
			return 0, fmt.Errorf("domain: fusion record without %q int feature", name)
		}
		return ints[0], nil
	}
	if w.Shot, err = requiredInt("shot"); err != nil {
		return nil, 0, err
	}
	if w.Label, err = requiredInt("label"); err != nil {
		return nil, 0, err
	}
	if ints := ex.Features["start"].Ints; len(ints) > 0 {
		w.Start = ints[0]
	}
	if fl := ex.Features["horizon"].Floats; len(fl) > 0 {
		w.Horizon = fl[0]
	}
	return w, int64(len(w.Signal))*4 + 48, nil
}

type fusionLine struct {
	wire.BatchHeader
	Labels   []int64     `json:"labels"`
	Signals  [][]float32 `json:"signals"`
	Shots    []int64     `json:"shots"`
	Starts   []int64     `json:"starts"`
	Horizons []float32   `json:"horizons"`
}

func (fusionCodec) Line(h wire.BatchHeader, recs []any) (any, error) {
	ln := &fusionLine{BatchHeader: h,
		Labels: make([]int64, len(recs)), Signals: make([][]float32, len(recs)),
		Shots: make([]int64, len(recs)), Starts: make([]int64, len(recs)),
		Horizons: make([]float32, len(recs))}
	for i, r := range recs {
		w, ok := r.(*FusionWindow)
		if !ok {
			return nil, fmt.Errorf("domain: fusion codec got %T", r)
		}
		ln.Labels[i] = w.Label
		ln.Signals[i] = w.Signal
		ln.Shots[i] = w.Shot
		ln.Starts[i] = w.Start
		ln.Horizons[i] = w.Horizon
	}
	return ln, nil
}

// materialsCodec serves the materials pipeline's per-graph BP process
// groups.
type materialsCodec struct{}

func (materialsCodec) Kind() string { return wire.KindMaterialsGraphs }

func (materialsCodec) Decode(rec []byte) (any, int64, error) {
	_, _, vars, err := bp.UnmarshalPG(rec)
	if err != nil {
		return nil, 0, err
	}
	byName := make(map[string]bp.Variable, len(vars))
	for _, v := range vars {
		byName[v.Name] = v
	}
	// Shapes are attacker-controlled ints off the wire (the per-variable
	// CRC only covers the data bytes): every shape must be non-negative,
	// modest, and consistent with its data length, or clients indexing
	// node_features[n*feature_dim+f] by the documented contract would
	// read out of bounds.
	const maxDim = 1 << 31
	nf, ok := byName["node_features"]
	// Both dims must be >= 1: a structure always has atoms and features,
	// and a zero dim would let N*F==len(Data) hold vacuously for any
	// fabricated node count.
	if !ok || len(nf.Shape) != 2 ||
		nf.Shape[0] < 1 || nf.Shape[1] < 1 || nf.Shape[0] > maxDim || nf.Shape[1] > maxDim ||
		nf.Shape[0]*nf.Shape[1] != len(nf.Data) {
		return nil, 0, fmt.Errorf("domain: materials record without consistent [N,F] node_features")
	}
	ed, ok := byName["edges"]
	if !ok || len(ed.Shape) != 2 || ed.Shape[1] != 2 ||
		ed.Shape[0] < 0 || ed.Shape[0] > maxDim || 2*ed.Shape[0] != len(ed.Data) {
		return nil, 0, fmt.Errorf("domain: materials record without consistent [E,2] edges")
	}
	if len(byName["edge_lengths"].Data) != ed.Shape[0] {
		return nil, 0, fmt.Errorf("domain: materials record with %d edge_lengths for %d edges",
			len(byName["edge_lengths"].Data), ed.Shape[0])
	}
	g := &wire.Graph{
		Nodes:        nf.Shape[0],
		FeatureDim:   nf.Shape[1],
		NodeFeatures: nf.Data,
		Edges:        make([]int64, len(ed.Data)),
		EdgeLengths:  byName["edge_lengths"].Data,
	}
	for i, e := range ed.Data {
		// Endpoints must be integral node indices (NaN fails every
		// comparison, so it is rejected here too) — clients index
		// node_features by them.
		if !(e >= 0 && e < float64(g.Nodes)) || e != math.Trunc(e) {
			return nil, 0, fmt.Errorf("domain: materials record with edge endpoint %v outside %d nodes", e, g.Nodes)
		}
		g.Edges[i] = int64(e)
	}
	if v := byName["energy"].Data; len(v) > 0 {
		g.Energy = v[0]
	}
	if v := byName["class_id"].Data; len(v) > 0 {
		g.ClassID = int64(v[0])
	}
	size := int64(len(g.NodeFeatures)+len(g.EdgeLengths))*8 + int64(len(g.Edges))*8 + 64
	return g, size, nil
}

type materialsLine struct {
	wire.BatchHeader
	Graphs []*wire.Graph `json:"graphs"`
}

func (materialsCodec) Line(h wire.BatchHeader, recs []any) (any, error) {
	ln := &materialsLine{BatchHeader: h, Graphs: make([]*wire.Graph, len(recs))}
	for i, r := range recs {
		g, ok := r.(*wire.Graph)
		if !ok {
			return nil, fmt.Errorf("domain: materials codec got %T", r)
		}
		ln.Graphs[i] = g
	}
	return ln, nil
}
