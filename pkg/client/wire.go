// BatchWire: the single client-side union of every wire kind's batch
// payload. Both wire formats decode into it — NDJSON lines through the
// one-pass line decoder (decode.go), binary frames through the typed
// frame decoder (frames.go) — so generic tooling handles any domain's
// stream in either format.
package client

import (
	"fmt"

	"repro/internal/domain"
)

// StreamError is a failure the server reported in-band (an error line
// or error frame). It is terminal — reconnecting with the same cursor
// hits the same condition — and is re-exported here so SDK consumers
// can errors.As against it without reaching into internal packages.
type StreamError = domain.StreamError

// Wire format selectors for Client / StreamOptions.
const (
	// WireAuto asks for frames and falls back to NDJSON when the
	// server does not negotiate them — the default.
	WireAuto = "auto"
	// WireNDJSON pins the debuggable NDJSON stream.
	WireNDJSON = domain.WireNDJSON
	// WireFrame requires the binary frame stream; opening fails
	// against a server that cannot serve it.
	WireFrame = domain.WireFrame
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

// BatchWire is one streamed batch of /v1/jobs/{id}/batches — the union
// of every kind's payload schema. The field order matches the per-kind
// server emission exactly, so unmarshal → re-marshal reproduces an
// NDJSON line byte-for-byte (the resume tests and clustersmoke rely on
// this). The SDK decodes NDJSON lines without encoding/json's
// reflection, into exactly the value json.Unmarshal would produce,
// except that a line naming one field twice is rejected. Exactly one
// payload group is populated:
//
//	kind "samples":          features, labels
//	kind "fusion_windows":   labels, signals, shots, starts, horizons
//	kind "materials_graphs": graphs
//
// The cursor names the position after this batch: pass it back as
// ?cursor=… (or StreamOptions.Cursor) to resume the stream exactly
// there after a disconnect.
//
// A batch decoded from a frame keeps the float tensors of all its
// records in one backing array per column (one for features or
// signals; for graphs one for node features and edge lengths, one for
// edges), each record's slice clipped to its own length, so appending
// to one record reallocates it instead of overwriting its neighbour.
// Every batch Next returns belongs to the caller: the stream never
// reuses or modifies it.
type BatchWire struct {
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
func (w *BatchWire) Count() int {
	if len(w.Graphs) > 0 {
		return len(w.Graphs)
	}
	return len(w.Labels)
}

// Validate checks the batch's per-kind shape invariants.
func (w *BatchWire) Validate() error {
	if w.Error != "" {
		return &domain.StreamError{Msg: w.Error}
	}
	switch w.Kind {
	case domain.KindSamples:
		if len(w.Features) == 0 || len(w.Features) != len(w.Labels) {
			return fmt.Errorf("%d feature rows vs %d labels", len(w.Features), len(w.Labels))
		}
	case domain.KindFusionWindows:
		if len(w.Signals) == 0 || len(w.Signals) != len(w.Labels) ||
			len(w.Shots) != len(w.Labels) || len(w.Starts) != len(w.Labels) ||
			len(w.Horizons) != len(w.Labels) {
			return fmt.Errorf("ragged fusion batch: %d signals / %d labels / %d shots / %d starts / %d horizons",
				len(w.Signals), len(w.Labels), len(w.Shots), len(w.Starts), len(w.Horizons))
		}
	case domain.KindMaterialsGraphs:
		if len(w.Graphs) == 0 {
			return fmt.Errorf("empty graph batch")
		}
	default:
		return fmt.Errorf("unknown wire kind %q", w.Kind)
	}
	return nil
}
