// Package wire is draid's hand-off contract: everything a server and a
// trainer must agree on to move AI-ready records between them, and
// nothing else. It holds the job spec a client submits, the names of
// the two wire formats and their HTTP negotiation, the batch header,
// the binary frame layout (envelope, header parser, bounded payload
// parser) and the one typed frame-payload decoder, which fills a Batch
// column by column. It imports only core and the standard library, so
// the SDK (pkg/client) links the wire format and none of the
// pipelines that produce what travels over it.
package wire

import (
	"fmt"

	"repro/internal/core"
)

// Wire kind names, the values of BatchHeader.Kind.
const (
	KindSamples         = "samples"
	KindFusionWindows   = "fusion_windows"
	KindMaterialsGraphs = "materials_graphs"
)

// KindError tags the frame that carries a mid-stream failure message.
const KindError = "error"

// Wire format names, the values of the X-Draid-Wire response header and
// the "wires" discovery fields.
const (
	WireNDJSON = "ndjson"
	WireFrame  = "frame"
)

// HTTP surface of the negotiation.
const (
	ContentTypeNDJSON = "application/x-ndjson"
	ContentTypeFrame  = "application/x-draid-frame"
	HeaderWire        = "X-Draid-Wire"
)

// Wires lists the wire formats every batch stream can negotiate.
func Wires() []string { return []string{WireNDJSON, WireFrame} }

// BatchHeader is the envelope of every streamed batch. The cursor names
// the position after the batch; kind names the payload schema that
// follows, so clients pick a decoder without probing.
type BatchHeader struct {
	Batch  int    `json:"batch"`
	Cursor string `json:"cursor"`
	Kind   string `json:"kind"`
}

// StreamError is a failure the server reported in-band (an error line
// or an "error" frame). It is terminal: reconnecting with the same
// cursor will hit the same condition, unlike a transport error.
type StreamError struct{ Msg string }

func (e *StreamError) Error() string { return "draid stream error: " + e.Msg }

// Spec is a serving-tier job submission: which domain template to run
// and how large a synthetic input to prepare. Zero-valued knobs pick
// per-domain defaults sized for interactive turnaround.
type Spec struct {
	Domain core.Domain `json:"domain"`
	Name   string      `json:"name,omitempty"`
	Seed   int64       `json:"seed,omitempty"`
	// Climate: source grid before regridding.
	Months int `json:"months,omitempty"`
	Lat    int `json:"lat,omitempty"`
	Lon    int `json:"lon,omitempty"`
	// Fusion.
	Shots int `json:"shots,omitempty"`
	// Bio/health.
	Subjects int `json:"subjects,omitempty"`
	SeqLen   int `json:"seq_len,omitempty"`
	// Materials.
	Structures int `json:"structures,omitempty"`
}

// Scale-knob ceilings: submissions are unauthenticated, so a single
// oversized spec must not be able to allocate the server to death.
const (
	maxMonths     = 1200
	maxGridDim    = 512
	maxShots      = 256
	maxSubjects   = 5000
	maxSeqLen     = 100000
	maxStructures = 5000
)

// Validate rejects specs whose synthetic input would exceed the
// per-job resource ceilings.
func (s Spec) Validate() error {
	for _, c := range []struct {
		name   string
		v, max int
	}{
		{"months", s.Months, maxMonths},
		{"lat", s.Lat, maxGridDim},
		{"lon", s.Lon, maxGridDim},
		{"shots", s.Shots, maxShots},
		{"subjects", s.Subjects, maxSubjects},
		{"seq_len", s.SeqLen, maxSeqLen},
		{"structures", s.Structures, maxStructures},
	} {
		if c.v > c.max {
			return fmt.Errorf("spec: %s=%d exceeds limit %d", c.name, c.v, c.max)
		}
		if c.v < 0 {
			return fmt.Errorf("spec: %s=%d must not be negative", c.name, c.v)
		}
	}
	return nil
}
