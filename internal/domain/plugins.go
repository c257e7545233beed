// The four surveyed domains' catalog entries: description, spec-driven
// input synthesis, archetype pipeline construction, product→manifest
// extraction, and the sealed-job read-path decryption wrapper.
package domain

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"io"

	"repro/internal/anonymize"
	"repro/internal/bio"
	"repro/internal/climate"
	"repro/internal/core"
	"repro/internal/fusion"
	"repro/internal/materials"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func specSeed(spec Spec) int64 {
	if spec.Seed == 0 {
		return 1
	}
	return spec.Seed
}

// manifestOf builds a Manifest extractor from a typed product accessor.
func manifestOf[P any](get func(p P) *shard.Manifest) func(ds *pipeline.Dataset) (*shard.Manifest, error) {
	return func(ds *pipeline.Dataset) (*shard.Manifest, error) {
		p, ok := ds.Payload.(P)
		if !ok {
			return nil, fmt.Errorf("domain: payload is %T, want %T", ds.Payload, *new(P))
		}
		m := get(p)
		if m == nil {
			return nil, fmt.Errorf("domain: %T carries no shard manifest", p)
		}
		return m, nil
	}
}

// decryptOpener presents a sealed job's shard set as plaintext: the
// store holds the "<name>"+bio.SealedSuffix AES-GCM blobs that
// bio.SealingSink wrote; readers see the manifest's plaintext names and
// checksums.
type decryptOpener struct {
	sink shard.Opener
	key  []byte
}

// Open implements shard.Opener over sealed shards. A sealed object that
// was read but does not open under the key fails with ErrCorrupt; the
// store's own errors pass through unwrapped.
func (o decryptOpener) Open(name string) (io.ReadCloser, error) {
	sealed, err := shard.ReadObject(o.sink, name+bio.SealedSuffix)
	if err != nil {
		return nil, err
	}
	plain, err := anonymize.DecryptShard(o.key, name, sealed)
	if err != nil {
		return nil, corruptError{err}
	}
	return plainObject{bytes.NewReader(plain)}, nil
}

// plainObject is an opened sealed object's plaintext. Its Size lets
// shard.ReadObject read it into one buffer of the exact length.
type plainObject struct{ *bytes.Reader }

func (plainObject) Close() error { return nil }

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(Register(Plugin{
		Domain:      core.Climate,
		Description: "CMIP6/ERA5-style gridded fields → regridded, normalized per-month sample shards",
		Codec:       sampleCodec{},
		Build: func(spec Spec, sink shard.Sink) (*Run, error) {
			seed := specSeed(spec)
			months, lat, lon := orDefault(spec.Months, 24), orDefault(spec.Lat, 16), orDefault(spec.Lon, 32)
			field, err := climate.Synthesize(climate.SynthConfig{
				Months: months, Lat: lat, Lon: lon, MissingRate: 0.01, Seed: seed})
			if err != nil {
				return nil, err
			}
			raw, err := field.ToNetCDF()
			if err != nil {
				return nil, err
			}
			p, err := climate.NewPipeline(climate.Config{
				TargetLat: lat / 2, TargetLon: lon / 2, Method: climate.Bilinear,
				Workers: 2, ShardTargetBytes: 8 << 10, Seed: seed}, sink)
			if err != nil {
				return nil, err
			}
			return &Run{Pipeline: p, Dataset: climate.NewDataset(spec.Name, raw)}, nil
		},
		Manifest: manifestOf(func(p *climate.Product) *shard.Manifest { return p.Manifest }),
	}))
	must(Register(Plugin{
		Domain:      core.Fusion,
		Description: "MDSplus-style shot trees → aligned, windowed TFRecord shards",
		Codec:       fusionCodec{},
		Build: func(spec Spec, sink shard.Sink) (*Run, error) {
			seed := specSeed(spec)
			st, err := fusion.SynthesizeCampaign(fusion.SynthConfig{
				Shots: orDefault(spec.Shots, 8), DisruptionRate: 0.35,
				FlattopSeconds: 1, DropoutRate: 0.01, Seed: seed})
			if err != nil {
				return nil, err
			}
			cfg := fusion.DefaultConfig()
			cfg.Seed = seed
			// Serving granularity: the library default (128 KiB) would pack
			// a whole interactive-scale campaign into one shard, making
			// cursor resume and cache eviction all-or-nothing.
			cfg.ShardTarget = 16 << 10
			p, err := fusion.NewPipeline(cfg, sink)
			if err != nil {
				return nil, err
			}
			return &Run{Pipeline: p, Dataset: fusion.NewDataset(spec.Name, st)}, nil
		},
		Manifest: manifestOf(func(p *fusion.Product) *shard.Manifest { return p.Manifest }),
	}))
	must(Register(Plugin{
		Domain:      core.BioHealth,
		Description: "FASTA + clinical records → anonymized, fused, encrypted shards",
		Codec:       sampleCodec{},
		Build: func(spec Spec, sink shard.Sink) (*Run, error) {
			seed := specSeed(spec)
			// The bio template tiles at the default length; shorter synthetic
			// sequences would fail every job, so floor SeqLen there.
			seqLen := orDefault(spec.SeqLen, 256)
			if min := bio.DefaultConfig(nil, nil).TileLen; seqLen < min {
				seqLen = min
			}
			cohort, err := bio.Synthesize(bio.SynthConfig{
				Subjects: orDefault(spec.Subjects, 24), SeqLen: seqLen, Seed: seed})
			if err != nil {
				return nil, err
			}
			key := make([]byte, 32)
			if _, err := rand.Read(key); err != nil {
				return nil, err
			}
			secret := make([]byte, 32)
			if _, err := rand.Read(secret); err != nil {
				return nil, err
			}
			p, err := bio.NewPipeline(bio.DefaultConfig(key, secret), sink)
			if err != nil {
				return nil, err
			}
			ds := bio.NewDataset(spec.Name, cohort.ToFASTA(), cohort.Clinical)
			return &Run{Pipeline: p, Dataset: ds, Key: key}, nil
		},
		Manifest: manifestOf(func(p *bio.Product) *shard.Manifest { return p.Manifest }),
	}))
	must(Register(Plugin{
		Domain:      core.Materials,
		Description: "POSCAR structures → normalized periodic graphs as BP process-group shards",
		Codec:       materialsCodec{},
		Build: func(spec Spec, sink shard.Sink) (*Run, error) {
			seed := specSeed(spec)
			structs, err := materials.Synthesize(materials.SynthConfig{
				Structures: orDefault(spec.Structures, 24), MinAtoms: 4, MaxAtoms: 10,
				ImbalanceRatio: 3, Seed: seed})
			if err != nil {
				return nil, err
			}
			poscars := make([]string, len(structs))
			for i, s := range structs {
				poscars[i] = s.ToPOSCAR()
			}
			cfg := materials.DefaultConfig()
			cfg.Seed = seed
			p, err := materials.NewPipeline(cfg, sink)
			if err != nil {
				return nil, err
			}
			return &Run{Pipeline: p, Dataset: materials.NewDataset(spec.Name, poscars)}, nil
		},
		Manifest: manifestOf(func(p *materials.Product) *shard.Manifest { return p.Manifest }),
	}))
}
