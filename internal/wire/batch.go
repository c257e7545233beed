package wire

import (
	"fmt"
	"math"
)

// Graph is one materials wire record: a periodic cutoff graph with
// ragged per-graph tensors flattened row-major alongside their shapes.
// Clients index node_features[n*feature_dim+f] and read edges as
// interleaved (src, dst) pairs. The field order matches the server's
// NDJSON emission exactly, so unmarshal → re-marshal reproduces a
// graph object byte-for-byte.
type Graph struct {
	Nodes        int       `json:"nodes"`
	FeatureDim   int       `json:"feature_dim"`
	NodeFeatures []float64 `json:"node_features"`
	Edges        []int64   `json:"edges"`
	EdgeLengths  []float64 `json:"edge_lengths"`
	Energy       float64   `json:"energy"`
	ClassID      int64     `json:"class_id"`
}

// Batch is one streamed batch — the union of every kind's payload
// schema, in columns. The field order matches the per-kind server
// emission exactly, so unmarshal → re-marshal reproduces an NDJSON
// line byte-for-byte. Exactly one payload group is populated:
//
//	kind "samples":          features, labels
//	kind "fusion_windows":   labels, signals, shots, starts, horizons
//	kind "materials_graphs": graphs
//
// The cursor names the position after this batch.
//
// A batch the Decoder fills keeps the float tensors of all its records
// in one backing array per column (one for features or signals; for
// graphs one for node features and edge lengths, one for edges), each
// record's slice clipped to its own length, so appending to one record
// reallocates it instead of overwriting its neighbour.
type Batch struct {
	Batch    int         `json:"batch"`
	Cursor   string      `json:"cursor"`
	Kind     string      `json:"kind,omitempty"`
	Features [][]float32 `json:"features,omitempty"`
	Labels   []int64     `json:"labels,omitempty"`
	Signals  [][]float32 `json:"signals,omitempty"`
	Shots    []int64     `json:"shots,omitempty"`
	Starts   []int64     `json:"starts,omitempty"`
	Horizons []float32   `json:"horizons,omitempty"`
	Graphs   []Graph     `json:"graphs,omitempty"`
	Error    string      `json:"error,omitempty"`
}

// Count returns the number of records in the batch, whatever its kind.
func (w *Batch) Count() int {
	if len(w.Graphs) > 0 {
		return len(w.Graphs)
	}
	return len(w.Labels)
}

// Validate holds a batch decoded from anything but a frame (an NDJSON
// line) to what the Decoder enforces on a frame: a known kind, at
// least one record, columns of one length, and every record's own
// invariants — a samples label inside int32, a fusion window with a
// signal, a graph whose shape is in range, whose node features are
// nodes×feature_dim, whose edges pair with their lengths and name
// nodes it has. An error line yields its *StreamError. A batch the
// Decoder returned already holds all of this.
func (w *Batch) Validate() error {
	if w.Error != "" {
		return &StreamError{Msg: w.Error}
	}
	switch w.Kind {
	case KindSamples:
		if len(w.Features) == 0 || len(w.Features) != len(w.Labels) {
			return fmt.Errorf("%d feature rows vs %d labels", len(w.Features), len(w.Labels))
		}
		for i, l := range w.Labels {
			if l < math.MinInt32 || l > math.MaxInt32 {
				return fmt.Errorf("sample %d: label %d out of int32 range", i, l)
			}
		}
	case KindFusionWindows:
		if len(w.Signals) == 0 || len(w.Signals) != len(w.Labels) ||
			len(w.Shots) != len(w.Labels) || len(w.Starts) != len(w.Labels) ||
			len(w.Horizons) != len(w.Labels) {
			return fmt.Errorf("ragged fusion batch: %d signals / %d labels / %d shots / %d starts / %d horizons",
				len(w.Signals), len(w.Labels), len(w.Shots), len(w.Starts), len(w.Horizons))
		}
		for i, s := range w.Signals {
			if len(s) == 0 {
				return fmt.Errorf("fusion window %d without signal floats", i)
			}
		}
	case KindMaterialsGraphs:
		if len(w.Graphs) == 0 {
			return fmt.Errorf("empty graph batch")
		}
		for i := range w.Graphs {
			if err := w.Graphs[i].validate(); err != nil {
				return fmt.Errorf("graph %d: %w", i, err)
			}
		}
	default:
		return fmt.Errorf("unknown wire kind %q", w.Kind)
	}
	return nil
}

// validate checks one graph's shape invariants, the ones the Decoder
// checks while it reads a graph off a frame.
func (g *Graph) validate() error {
	if g.Nodes < 1 || g.FeatureDim < 1 || g.Nodes > MaxFrameBytes || g.FeatureDim > MaxFrameBytes {
		return fmt.Errorf("shape [%d,%d] out of range", g.Nodes, g.FeatureDim)
	}
	// Both dims are <= 2^28 here, so the product cannot overflow.
	if len(g.NodeFeatures) != g.Nodes*g.FeatureDim {
		return fmt.Errorf("%d node features for shape [%d,%d]", len(g.NodeFeatures), g.Nodes, g.FeatureDim)
	}
	if len(g.Edges) != 2*len(g.EdgeLengths) {
		return fmt.Errorf("%d edge endpoints for %d edge lengths", len(g.Edges), len(g.EdgeLengths))
	}
	for _, e := range g.Edges {
		if e < 0 || e >= int64(g.Nodes) {
			return fmt.Errorf("edge endpoint %d outside %d nodes", e, g.Nodes)
		}
	}
	return nil
}
