// Package registry implements the paper's envisioned "reusable scientific
// AI-readiness framework composed of domain-specific templates" (§6): a
// catalog mapping each surveyed domain to its archetype pipeline factory,
// so facilities can instantiate a standard pipeline per domain from one
// entry point.
package registry

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bio"
	"repro/internal/climate"
	"repro/internal/core"
	"repro/internal/fusion"
	"repro/internal/materials"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

// Template builds an archetype pipeline over a shard sink. Options carries
// template-specific settings; nil selects defaults.
type Template struct {
	Domain      core.Domain
	Description string
	Build       func(sink shard.Sink, opts any) (*pipeline.Pipeline, error)
}

var (
	mu        sync.RWMutex
	templates = map[core.Domain]Template{}
)

// Register installs a template, replacing any previous one for the domain.
func Register(t Template) error {
	if t.Domain == "" || t.Build == nil {
		return fmt.Errorf("registry: template needs a domain and a builder")
	}
	mu.Lock()
	defer mu.Unlock()
	templates[t.Domain] = t
	return nil
}

// Lookup retrieves a domain's template.
func Lookup(d core.Domain) (Template, error) {
	mu.RLock()
	defer mu.RUnlock()
	t, ok := templates[d]
	if !ok {
		return Template{}, fmt.Errorf("registry: no template for domain %q", d)
	}
	return t, nil
}

// Templates lists all registered templates sorted by domain — the
// catalog a serving tier exposes to clients choosing a pipeline.
func Templates() []Template {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Template, 0, len(templates))
	for _, t := range templates {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// Domains lists registered domains, sorted.
func Domains() []core.Domain {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]core.Domain, 0, len(templates))
	for d := range templates {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// New instantiates the archetype pipeline for a domain with default
// options (or the provided typed options).
func New(d core.Domain, sink shard.Sink, opts any) (*pipeline.Pipeline, error) {
	t, err := Lookup(d)
	if err != nil {
		return nil, err
	}
	return t.Build(sink, opts)
}

// BioSecrets carries the bio template's mandatory secrets.
type BioSecrets struct {
	EncryptionKey   []byte
	PseudonymSecret []byte
}

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(Register(Template{
		Domain:      core.Climate,
		Description: "CMIP6/ERA5-style gridded fields → regridded, normalized per-month sample shards",
		Build: func(sink shard.Sink, opts any) (*pipeline.Pipeline, error) {
			cfg, ok := opts.(climate.Config)
			if !ok {
				cfg = climate.DefaultConfig()
			}
			return climate.NewPipeline(cfg, sink)
		},
	}))
	must(Register(Template{
		Domain:      core.Fusion,
		Description: "MDSplus-style shot trees → aligned, windowed TFRecord shards",
		Build: func(sink shard.Sink, opts any) (*pipeline.Pipeline, error) {
			cfg, ok := opts.(fusion.Config)
			if !ok {
				cfg = fusion.DefaultConfig()
			}
			return fusion.NewPipeline(cfg, sink)
		},
	}))
	must(Register(Template{
		Domain:      core.BioHealth,
		Description: "FASTA + clinical records → anonymized, fused, encrypted shards",
		Build: func(sink shard.Sink, opts any) (*pipeline.Pipeline, error) {
			switch o := opts.(type) {
			case bio.Config:
				return bio.NewPipeline(o, sink)
			case BioSecrets:
				return bio.NewPipeline(bio.DefaultConfig(o.EncryptionKey, o.PseudonymSecret), sink)
			default:
				return nil, fmt.Errorf("registry: bio template requires bio.Config or registry.BioSecrets options")
			}
		},
	}))
	must(Register(Template{
		Domain:      core.Materials,
		Description: "POSCAR structures → normalized periodic graphs as BP process-group shards",
		Build: func(sink shard.Sink, opts any) (*pipeline.Pipeline, error) {
			cfg, ok := opts.(materials.Config)
			if !ok {
				cfg = materials.DefaultConfig()
			}
			return materials.NewPipeline(cfg, sink)
		},
	}))
}
