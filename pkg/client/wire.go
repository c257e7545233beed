// The SDK's names for the wire contract (internal/wire): the batch
// union both wire formats decode into — NDJSON lines through the
// one-pass line decoder (decode.go), binary frames through the wire
// package's typed frame decoder (frames.go) — so generic tooling
// handles any domain's stream in either format.
package client

import "repro/internal/wire"

// StreamError is a failure the server reported in-band (an error line
// or error frame). It is terminal — reconnecting with the same cursor
// hits the same condition — and is re-exported here so SDK consumers
// can errors.As against it without reaching into internal packages.
type StreamError = wire.StreamError

// Wire format selectors for Client / StreamOptions.
const (
	// WireAuto asks for frames and falls back to NDJSON when the
	// server does not negotiate them — the default.
	WireAuto = "auto"
	// WireNDJSON pins the debuggable NDJSON stream.
	WireNDJSON = wire.WireNDJSON
	// WireFrame requires the binary frame stream; opening fails
	// against a server that cannot serve it.
	WireFrame = wire.WireFrame
)

// Graph is one materials wire record: a periodic cutoff graph with
// ragged per-graph tensors flattened row-major alongside their shapes.
// Clients index node_features[n*feature_dim+f] and read edges as
// interleaved (src, dst) pairs. The field order matches the server's
// NDJSON emission exactly, so unmarshal → re-marshal reproduces a
// graph object byte-for-byte.
type Graph = wire.Graph

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
// reuses or modifies it, and it holds every invariant the frame
// decoder checks, whichever wire it came over (Validate).
type BatchWire = wire.Batch
