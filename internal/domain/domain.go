// Package domain is the plugin seam between the archetype pipelines and
// the draid serving tier. Each surveyed domain registers one Plugin:
// how to synthesize a scale-controlled input from a job spec and build
// the registry pipeline over a shard sink, how to pull the durable
// shard manifest out of the finished product, how to wrap the shard
// read path with a per-job secret, and a Codec that turns shard records
// into typed wire batches. The serving tier programs against this
// package only — it never type-switches on core.Domain or on a
// pipeline's product type.
package domain

import (
	"fmt"
	"sort"
	"sync"

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
	// Key is the per-job shard secret (nil for domains whose shards
	// rest in plaintext). The serving tier seals it into the job's done
	// record in its ledger.
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

// Plugin wires one domain into the serving tier.
type Plugin struct {
	Domain core.Domain
	// Build synthesizes the spec-scale input and instantiates the
	// domain's registry pipeline over sink.
	Build func(spec Spec, sink shard.Sink) (*Run, error)
	// Manifest extracts the durable shard manifest from the completed
	// dataset's product.
	Manifest func(ds *pipeline.Dataset) (*shard.Manifest, error)
	// WrapOpener wraps the raw store read path with the per-job key
	// (nil when the domain stores plaintext shards; then the identity
	// is used).
	WrapOpener func(open shard.Opener, key []byte) shard.Opener
	// WrapSink is WrapOpener's write-path mirror: it wraps a raw sink
	// so late-written objects (frame sidecars) are sealed under the
	// same per-job key, through the same sealing sink, as the shards
	// themselves (nil for plaintext domains).
	WrapSink func(sink shard.Sink, key []byte) shard.Sink
	// SealedSuffix is appended to manifest shard names to obtain the
	// stored object name when the job has a key ("" for plaintext).
	SealedSuffix string
	// Codec translates this domain's shard records to the wire.
	Codec Codec
}

// StoredName maps a manifest shard name to its on-store object name.
func (p Plugin) StoredName(name string, sealed bool) string {
	if sealed {
		return name + p.SealedSuffix
	}
	return name
}

// Opener returns the read path over a job's shard store: the identity
// for plaintext domains, the key-wrapping opener otherwise.
func (p Plugin) Opener(open shard.Opener, key []byte) shard.Opener {
	if p.WrapOpener == nil || key == nil {
		return open
	}
	return p.WrapOpener(open, key)
}

// Sink returns the write path over a job's shard store: the identity
// for plaintext domains, the key-wrapping (sealing) sink otherwise.
func (p Plugin) Sink(sink shard.Sink, key []byte) shard.Sink {
	if p.WrapSink == nil || key == nil {
		return sink
	}
	return p.WrapSink(sink, key)
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
