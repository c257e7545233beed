// Package domain is draid's one catalog of domain templates — the
// paper's envisioned "reusable scientific AI-readiness framework
// composed of domain-specific templates" (§6) — and the plugin seam
// between the archetype pipelines and the serving tier. Each surveyed
// domain registers one Plugin: a description for the catalog, how to
// synthesize a scale-controlled input from a job spec and build the
// domain's archetype pipeline over a shard sink, how to pull the
// durable shard manifest out of the finished product, and a Codec that
// turns shard records into typed wire batches. A job whose Build
// returns a key has its shards sealed under it; Opener, Sink and
// StoredName follow that key alone. The serving tier programs against
// this package only — it never type-switches on core.Domain or on a
// pipeline's product type.
package domain

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

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
	check := func(name string, v, max int) error {
		if v > max {
			return fmt.Errorf("domain: %s=%d exceeds limit %d", name, v, max)
		}
		if v < 0 {
			return fmt.Errorf("domain: %s=%d must not be negative", name, v)
		}
		return nil
	}
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
		if err := check(c.name, c.v, c.max); err != nil {
			return err
		}
	}
	return nil
}

// Run is one instantiated pipeline execution: the pipeline, the
// synthesized dataset it will consume, and the per-job secret (if the
// domain seals its shards) the caller must persist to reopen them.
type Run struct {
	Pipeline *pipeline.Pipeline
	Dataset  *pipeline.Dataset
	// Key is the per-job shard secret, and the only sign that the job
	// is sealed (nil for domains whose shards rest in plaintext). The
	// serving tier seals it into the job's done record in its ledger.
	Key []byte
}

// BatchHeader is the envelope of every streamed NDJSON batch line. The
// cursor names the position after the batch; kind names the payload
// schema that follows, so clients pick a decoder without probing.
type BatchHeader struct {
	Batch  int    `json:"batch"`
	Cursor string `json:"cursor"`
	Kind   string `json:"kind"`
}

// Codec decodes one domain's shard records into wire records and
// encodes them, record by record, for both wire formats: NDJSON line
// fragments and binary frame payloads. The serving tier packs each
// shard once into a frame-payload sidecar; both wires fill from it and
// slice batches out of the bytes, so both encodings must make a batch
// the concatenation of its records' encodings.
type Codec interface {
	// Kind names the wire payload schema ("samples", "fusion_windows",
	// "materials_graphs").
	Kind() string
	// Decode parses one shard record into an opaque wire record and
	// reports an estimate of its decoded in-memory size. It runs only
	// to build a sidecar (ShardSidecar).
	Decode(rec []byte) (any, int64, error)
	// Line builds one marshalable NDJSON batch line from records
	// previously produced by Decode. It is the reference encoding:
	// json.Marshal of it is what a served line must equal byte for
	// byte (see lines.go); serving itself uses the fragments.
	Line(h BatchHeader, recs []any) (any, error)
	// LineColumns names the line's payload columns, in line order.
	LineColumns() []string
	// AppendRecordJSON appends one record's element of each line
	// column, exactly as encoding/json writes it inside Line's
	// arrays, to cols[i] (one buffer per LineColumns entry).
	AppendRecordJSON(cols [][]byte, rec any) error
	// AppendFramePayload appends the records' packed little-endian
	// binary frame payload (see frames.go for the per-kind layout).
	AppendFramePayload(buf []byte, recs []any) ([]byte, error)
	// DecodeFramePayload parses exactly count records back out of a
	// frame payload, consuming it fully. It must tolerate hostile
	// input: every length is validated before allocation. It serves
	// NDJSON fills (Sidecar.Lines decodes a verified sidecar with it),
	// and it is the reference (through DecodeFrame) that the SDK's
	// typed frame decoder is tested against.
	DecodeFramePayload(payload []byte, count int) ([]any, error)
}

// Plugin is one domain's catalog entry and its wiring into the serving
// tier. Sealing is not a plugin property: a job is sealed exactly when
// its Run carries a Key, and Opener, Sink and StoredName take that key
// (or its presence) from the caller.
type Plugin struct {
	Domain core.Domain
	// Description is the one-line summary /v1/templates shows.
	Description string
	// Build synthesizes the spec-scale input and instantiates the
	// domain's archetype pipeline over sink.
	Build func(spec Spec, sink shard.Sink) (*Run, error)
	// Manifest extracts the durable shard manifest from the completed
	// dataset's product.
	Manifest func(ds *pipeline.Dataset) (*shard.Manifest, error)
	// Codec translates this domain's shard records to the wire.
	Codec Codec
}

// StoredName maps a manifest shard name to its on-store object name:
// a sealed job's shards are stored as name+bio.SealedSuffix.
func (p Plugin) StoredName(name string, sealed bool) string {
	if sealed {
		return name + bio.SealedSuffix
	}
	return name
}

// Opener returns the read path over a job's shard store: open itself
// for a job without a key, the unsealing opener otherwise.
func (p Plugin) Opener(open shard.Opener, key []byte) shard.Opener {
	if key == nil {
		return open
	}
	return decryptOpener{sink: open, key: key}
}

// Sink returns the write path over a job's shard store: sink itself
// for a job without a key, the sealing sink otherwise, so late-written
// objects (frame sidecars) are sealed under the same key as the shards.
func (p Plugin) Sink(sink shard.Sink, key []byte) shard.Sink {
	if key == nil {
		return sink
	}
	return bio.SealingSink{Sink: sink, Key: key}
}

var (
	mu      sync.RWMutex
	plugins = map[core.Domain]Plugin{}
)

// Register installs a plugin, replacing any previous one for the domain.
func Register(p Plugin) error {
	if p.Domain == "" || p.Build == nil || p.Manifest == nil || p.Codec == nil {
		return fmt.Errorf("domain: plugin needs a domain, builder, manifest extractor, and codec")
	}
	mu.Lock()
	defer mu.Unlock()
	plugins[p.Domain] = p
	return nil
}

// Lookup retrieves a domain's plugin.
func Lookup(d core.Domain) (Plugin, error) {
	mu.RLock()
	defer mu.RUnlock()
	p, ok := plugins[d]
	if !ok {
		return Plugin{}, fmt.Errorf("domain: no plugin for domain %q", d)
	}
	return p, nil
}

// Plugins lists registered plugins sorted by domain.
func Plugins() []Plugin {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Plugin, 0, len(plugins))
	for _, p := range plugins {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}
