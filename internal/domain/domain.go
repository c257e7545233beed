// Package domain is draid's one catalog of domain templates — the
// paper's envisioned "reusable scientific AI-readiness framework
// composed of domain-specific templates" (§6) — and the plugin seam
// between the archetype pipelines and the serving tier. Each surveyed
// domain registers one Plugin: a description for the catalog, how to
// synthesize a scale-controlled input from a job spec and build the
// domain's archetype pipeline over a shard sink, how to pull the
// durable shard manifest out of the finished product, and a Codec that
// packs shard records into the frame payload both wires serve. A job
// whose Build returns a key has its shards sealed under it; Opener,
// Sink and StoredName follow that key alone. The package also owns the
// sidecar that holds a shard's payload and the NDJSON fragments filled
// from it. The serving tier never type-switches on core.Domain or on a
// pipeline's product type. What both ends of the wire agree on — spec,
// header, frame layout and its one decoder — is internal/wire, which
// this package produces for and the SDK reads with.
package domain

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Spec is the job submission, wire.Spec. Only bench/ uses this alias;
// it goes once bench/ names wire.Spec.
type Spec = wire.Spec

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

// BatchHeader is wire.BatchHeader, which the codecs' Line takes. Only
// bench/ names it here; the alias goes once bench/ names wire's.
type BatchHeader = wire.BatchHeader

// Codec turns one domain's shard records into wire records: it
// decodes a native shard record and packs records into the frame
// payload a sidecar holds. Both wires then serve from that payload,
// decoded by the wire package alone, so a codec never reads a payload
// back. A batch payload must be the concatenation of its records'
// payloads.
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
	Line(h wire.BatchHeader, recs []any) (any, error)
	// AppendFramePayload appends the records' packed little-endian
	// binary frame payload (see internal/wire for the per-kind layout).
	AppendFramePayload(buf []byte, recs []any) ([]byte, error)
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
	Build func(spec wire.Spec, sink shard.Sink) (*Run, error)
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
