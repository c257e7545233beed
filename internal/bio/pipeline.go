package bio

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/split"
)

// Config tunes the bio/health archetype pipeline.
type Config struct {
	TileLen     int
	KmerK       int
	KAnonymity  int
	ShardTarget int64
	// EncryptionKey seals output shards (32 bytes). Required: the bio
	// path refuses to emit plaintext shards.
	EncryptionKey []byte
	// PseudonymSecret keys the HMAC pseudonymizer (>=16 bytes).
	PseudonymSecret []byte
	Seed            int64
}

// DefaultConfig returns experiment settings with the given secrets.
func DefaultConfig(encKey, pseudoSecret []byte) Config {
	return Config{TileLen: 128, KmerK: 3, KAnonymity: 2, ShardTarget: 64 << 10,
		EncryptionKey: encKey, PseudonymSecret: pseudoSecret, Seed: 1}
}

// FusedSample is one subject's cross-modal training row.
type FusedSample struct {
	Pseudonym string
	Features  []float64 // k-mer frequencies + GC + generalized clinical values
	Target    float64
}

// Product accumulates the bio pipeline's outputs.
type Product struct {
	FASTA     string
	Sequences []Sequence
	Clinical  []anonymize.Record
	Anonymous []anonymize.AnonymizedRecord
	Audit     anonymize.AuditSummary
	Fused     []FusedSample
	Split     *split.Result
	// Manifest indexes the train split's shards by plaintext name; the
	// sink holds each one sealed as "<name>"+SealedSuffix.
	Manifest *shard.Manifest
}

// SealedSuffix names a sealed shard object: a shard written under the
// plaintext name N is stored as N.enc. The shard stage, the serving
// tier's decrypting read path and its restore-time probe all use it.
const SealedSuffix = ".enc"

// SealingSink seals every object created through it with AES-256-GCM
// under Key, bound to its plaintext name, and stores it in Sink as
// name+SealedSuffix; anonymize.DecryptShard opens it under the plaintext
// name. The sealed blob is written in one shot at Close, so an
// underlying exists/collision error also surfaces there.
type SealingSink struct {
	Sink shard.Sink
	Key  []byte
}

// Create implements shard.Sink.
func (s SealingSink) Create(name string) (io.WriteCloser, error) {
	return &sealingShard{sink: s.Sink, key: s.Key, name: name}, nil
}

type sealingShard struct {
	bytes.Buffer
	sink shard.Sink
	key  []byte
	name string
}

func (w *sealingShard) Close() error {
	sealed, err := anonymize.EncryptShard(w.key, w.name, w.Bytes())
	if err != nil {
		return err
	}
	return shard.WriteObject(w.sink, w.name+SealedSuffix, sealed)
}

// NewDataset wraps raw FASTA + clinical records for the pipeline.
func NewDataset(name string, fasta string, clinical []anonymize.Record) *pipeline.Dataset {
	ds := pipeline.NewDataset(name, core.BioHealth, &Product{FASTA: fasta, Clinical: clinical})
	ds.Facts.RequiresPrivacy = true
	ds.Bytes = int64(len(fasta))
	ds.Records = int64(len(clinical))
	return ds
}

func product(ds *pipeline.Dataset) (*Product, error) {
	p, ok := ds.Payload.(*Product)
	if !ok {
		return nil, fmt.Errorf("bio: payload is %T, want *Product", ds.Payload)
	}
	return p, nil
}

// NewPipeline assembles the Table 1 bio/health workflow: one-hot encoding
// → anonymization → cross-modal fusion → secure sharding. The encoded
// one-hot tiles feed the fusion features; shards are sealed with AES-GCM.
func NewPipeline(cfg Config, sink shard.Sink) (*pipeline.Pipeline, error) {
	if sink == nil {
		return nil, errors.New("bio: nil sink")
	}
	if len(cfg.EncryptionKey) != 32 {
		return nil, fmt.Errorf("bio: encryption key must be 32 bytes, got %d", len(cfg.EncryptionKey))
	}
	pseudo, err := anonymize.NewPseudonymizer(cfg.PseudonymSecret)
	if err != nil {
		return nil, err
	}
	if cfg.TileLen <= 0 || cfg.KmerK <= 0 || cfg.KAnonymity <= 0 {
		return nil, fmt.Errorf("bio: invalid config %+v", cfg)
	}

	ingest := pipeline.StageFunc{StageName: "parse-fasta", StageKind: core.Ingest, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		if p.FASTA == "" {
			return errors.New("bio: no FASTA content on payload")
		}
		p.Sequences, err = ParseFASTA(p.FASTA)
		if err != nil {
			return err
		}
		if len(p.Sequences) == 0 {
			return errors.New("bio: FASTA contained no sequences")
		}
		ds.Facts.StandardFormat = true
		ds.Facts.Validated = true
		ds.Facts.MissingRate = 0
		ds.SetMeta("modalities", "sequence+clinical")
		ds.SetMeta("subjects", fmt.Sprintf("%d", len(p.Sequences)))
		ds.SetMeta("format", "FASTA + tabular clinical")
		return nil
	}}

	tile := pipeline.StageFunc{StageName: "tile-sequences", StageKind: core.Preprocess, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		for i := range p.Sequences {
			tiles, err := Tile(p.Sequences[i].Seq, cfg.TileLen)
			if err != nil {
				return err
			}
			if len(tiles) == 0 {
				return fmt.Errorf("bio: sequence %s shorter than tile length %d",
					p.Sequences[i].SubjectID, cfg.TileLen)
			}
			// Keep the first tile as the canonical sample (Enformer uses
			// fixed-length inputs); full tiling is available to callers.
			p.Sequences[i].Seq = tiles[0]
		}
		ds.Facts.AlignedGrids = true // fixed-length tiles = sequence alignment analogue
		ds.SetMeta("tile_len", fmt.Sprintf("%d", cfg.TileLen))
		return nil
	}}

	anonymizeStage := pipeline.StageFunc{StageName: "anonymize-clinical", StageKind: core.Transform, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		safe, audit, err := anonymize.Process(p.Clinical, pseudo, cfg.KAnonymity,
			anonymize.AnonymizeOptions{AgeBandWidth: 10})
		if err != nil {
			return err
		}
		p.Anonymous = safe
		p.Audit = audit
		ds.Facts.Anonymized = true
		ds.Facts.Normalized = true // clinical values banded/generalized
		ds.Facts.LabelCoverage = 1 // expression targets present for all subjects
		ds.SetMeta("k_anonymity", fmt.Sprintf("%d", audit.K))
		ds.SetMeta("suppressed", fmt.Sprintf("%d", audit.Suppressed))
		return nil
	}}

	fuse := pipeline.StageFunc{StageName: "cross-modal-fusion", StageKind: core.Structure, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		// Join modalities by pseudonym.
		byPseudo := make(map[string]anonymize.AnonymizedRecord, len(p.Anonymous))
		for _, r := range p.Anonymous {
			byPseudo[r.Pseudonym] = r
		}
		p.Fused = p.Fused[:0]
		for _, s := range p.Sequences {
			rec, ok := byPseudo[pseudo.Pseudonym(s.SubjectID)]
			if !ok {
				continue // subject suppressed by k-anonymity
			}
			kmers, err := KmerCounts(s.Seq, cfg.KmerK)
			if err != nil {
				return err
			}
			features := append(kmers, GCContent(s.Seq))
			features = append(features, rec.Values...)
			p.Fused = append(p.Fused, FusedSample{
				Pseudonym: rec.Pseudonym,
				Features:  features,
				Target:    s.Expression,
			})
		}
		if len(p.Fused) == 0 {
			return errors.New("bio: fusion produced no samples (all subjects suppressed?)")
		}
		ds.Facts.FeaturesExtracted = true
		ds.Facts.StructuredLayout = true
		ds.Records = int64(len(p.Fused))
		return nil
	}}

	secureShard := pipeline.StageFunc{StageName: "secure-shard", StageKind: core.Shard, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		res, err := split.Random(len(p.Fused), split.DefaultFractions(), cfg.Seed)
		if err != nil {
			return err
		}
		p.Split = res

		// Each shard is sealed under AES-GCM as it closes; the manifest
		// carries the plaintext names and checksums readers verify after
		// unsealing.
		w, err := shard.NewWriter(SealingSink{Sink: sink, Key: cfg.EncryptionKey},
			shard.Options{Prefix: "bio-train", TargetBytes: cfg.ShardTarget})
		if err != nil {
			return err
		}
		for _, i := range res.Train {
			f := p.Fused[i]
			feat32 := make([]float32, len(f.Features))
			for j, v := range f.Features {
				feat32[j] = float32(v)
			}
			s := &loader.Sample{Features: feat32, Label: int32(i)}
			if err := w.Write(s.Encode()); err != nil {
				return err
			}
		}
		p.Manifest, err = w.Close()
		if err != nil {
			return err
		}
		ds.Facts.SplitDone = true
		ds.Facts.Sharded = true
		ds.Facts.PipelineAutomated = true
		ds.Bytes = p.Manifest.TotalStoredBytes()
		return nil
	}}

	return pipeline.New("bio-archetype", ingest, tile, anonymizeStage, fuse, secureShard)
}
