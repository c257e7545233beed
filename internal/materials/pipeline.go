package materials

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/formats/bp"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/split"
	"repro/internal/stats"
)

// Config tunes the materials archetype pipeline.
type Config struct {
	Cutoff  float64 // neighbor cutoff (Angstrom)
	Workers int
	// Ranks is the number of simulated parallel writers marshalling the
	// train split's BP process groups (the ADIOS aggregation pattern):
	// each PG's rank and step are part of its served record.
	Ranks int
	// ShardTarget rotates the persisted per-graph shard series at this
	// raw size. <=0 means 8 KiB.
	ShardTarget int64
	Seed        int64
}

// DefaultConfig matches the reproduction experiments.
func DefaultConfig() Config { return Config{Cutoff: 4.0, Workers: 4, Ranks: 4, Seed: 1} }

// Product accumulates the materials pipeline's outputs.
type Product struct {
	POSCARs    []string
	Structures []*Structure
	Graphs     []*Graph
	Stats      *DescriptorStats
	Split      *split.Result
	ClassIDs   map[string]int
	// Manifest indexes the durable per-graph shard set (one
	// self-describing BP process group per record) written to the
	// pipeline's sink — the replayable serving artifact.
	Manifest *shard.Manifest
	// Ranks is the number of simulated writers the shard stage
	// marshalled the process groups on (Config.Ranks).
	Ranks int
	// Imbalance is the train-split class imbalance ratio (Table 1
	// challenge diagnostics).
	Imbalance float64
}

// NewDataset wraps raw POSCAR texts for the pipeline.
func NewDataset(name string, poscars []string) *pipeline.Dataset {
	total := 0
	for _, p := range poscars {
		total += len(p)
	}
	ds := pipeline.NewDataset(name, core.Materials, &Product{POSCARs: poscars})
	ds.Bytes = int64(total)
	ds.Records = int64(len(poscars))
	return ds
}

func product(ds *pipeline.Dataset) (*Product, error) {
	p, ok := ds.Payload.(*Product)
	if !ok {
		return nil, fmt.Errorf("materials: payload is %T, want *Product", ds.Payload)
	}
	return p, nil
}

// NewPipeline assembles the Table 1 materials workflow over the sink:
// parse simulations → normalize descriptors → graph encoding → shard
// (ADIOS/BP). The shard stage persists the train split as a durable
// shard set — one self-describing BP process group per record — so
// materials jobs are replayable and streamable like every other
// domain's; ExportBP assembles the same process groups into a BP
// container.
func NewPipeline(cfg Config, sink shard.Sink) (*pipeline.Pipeline, error) {
	if sink == nil {
		return nil, errors.New("materials: nil sink")
	}
	if cfg.Cutoff <= 0 {
		return nil, fmt.Errorf("materials: cutoff %v must be positive", cfg.Cutoff)
	}
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("materials: ranks=%d must be positive", cfg.Ranks)
	}
	if cfg.ShardTarget <= 0 {
		cfg.ShardTarget = 8 << 10
	}

	parse := pipeline.StageFunc{StageName: "parse-poscar", StageKind: core.Ingest, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		if len(p.POSCARs) == 0 {
			return errors.New("materials: no POSCAR inputs on payload")
		}
		p.Structures = make([]*Structure, len(p.POSCARs))
		if err := pipeline.ForEach(len(p.POSCARs), cfg.Workers, func(i int) error {
			s, err := ParsePOSCAR(p.POSCARs[i])
			if err != nil {
				return fmt.Errorf("input %d: %w", i, err)
			}
			p.Structures[i] = s
			return nil
		}); err != nil {
			return err
		}
		ds.Facts.StandardFormat = true
		ds.Facts.Validated = true
		ds.Facts.MissingRate = 0
		ds.Facts.AlignedGrids = true // periodic cells are already consistent frames
		ds.SetMeta("source", "DFT-like synthetic archive")
		ds.SetMeta("structures", fmt.Sprintf("%d", len(p.Structures)))
		ds.SetMeta("format", "POSCAR")
		return nil
	}}

	encode := pipeline.StageFunc{StageName: "graph-encode", StageKind: core.Preprocess, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		p.Graphs = make([]*Graph, len(p.Structures))
		if err := pipeline.ForEach(len(p.Structures), cfg.Workers, func(i int) error {
			cutoff := cfg.Cutoff
			if half := p.Structures[i].Lattice / 2; cutoff > half {
				cutoff = half // clamp per structure to keep minimum image valid
			}
			g, err := BuildGraph(p.Structures[i], cutoff)
			if err != nil {
				return err
			}
			p.Graphs[i] = g
			return nil
		}); err != nil {
			return err
		}
		return nil
	}}

	normalize := pipeline.StageFunc{StageName: "normalize-descriptors", StageKind: core.Transform, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		p.Stats, err = ComputeDescriptorStats(p.Graphs)
		if err != nil {
			return err
		}
		for _, g := range p.Graphs {
			NormalizeDescriptors(g, p.Stats)
		}
		ds.Facts.Normalized = true
		ds.Facts.LabelCoverage = 1 // DFT archives are fully labeled (energies/classes)
		ds.SetMeta("norm_mean_z", fmt.Sprintf("%.4f", p.Stats.MeanZ))
		return nil
	}}

	structure := pipeline.StageFunc{StageName: "assign-class-ids", StageKind: core.Structure, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		p.ClassIDs = make(map[string]int)
		for i, c := range SortedClasses(p.Structures) {
			p.ClassIDs[c] = i
		}
		ds.Facts.FeaturesExtracted = true
		ds.Facts.StructuredLayout = true
		return nil
	}}

	shardStage := pipeline.StageFunc{StageName: "bp-shard", StageKind: core.Shard, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		// Stratified split: preserve the (imbalanced) class distribution.
		labels := make([]string, len(p.Graphs))
		for i, g := range p.Graphs {
			labels[i] = g.Class
		}
		res, err := split.Stratified(labels, split.DefaultFractions(), cfg.Seed)
		if err != nil {
			return err
		}
		p.Split = res
		trainLabels := make([]string, 0, len(res.Train))
		for _, i := range res.Train {
			trainLabels = append(trainLabels, labels[i])
		}
		p.Imbalance = stats.NewClassBalance(trainLabels).ImbalanceRatio()

		// One self-describing PG per train graph is one record, so the
		// shard set streams back out without a container's footer index.
		perRank, err := marshalRanks(p, cfg.Ranks, cfg.Workers)
		if err != nil {
			return err
		}
		w, err := shard.NewWriter(sink, shard.Options{
			Prefix: "materials-train", TargetBytes: cfg.ShardTarget})
		if err != nil {
			return err
		}
		for _, pgs := range perRank {
			for _, pg := range pgs {
				if err := w.Write(pg.payload); err != nil {
					return err
				}
			}
		}
		p.Manifest, err = w.Close()
		if err != nil {
			return err
		}
		p.Ranks = cfg.Ranks
		ds.Facts.SplitDone = true
		ds.Facts.Sharded = true
		ds.Facts.PipelineAutomated = true
		ds.Bytes = p.Manifest.TotalStoredBytes()
		ds.Records = int64(len(res.Train))
		return nil
	}}

	return pipeline.New("materials-archetype", parse, encode, normalize, structure, shardStage)
}

// rankPG is one BP process group as a simulated rank marshals it.
type rankPG struct {
	payload []byte
	metas   []bp.VarMeta
}

// marshalRanks marshals the train split as BP process groups: graph k
// of the split goes to rank k mod ranks as that rank's next step, and
// the ranks marshal concurrently on up to workers goroutines. The result
// is indexed by rank, then step — the order both the shard set and the
// container append them.
func marshalRanks(p *Product, ranks, workers int) ([][]rankPG, error) {
	train := p.Split.Train
	perRank := make([][]rankPG, ranks)
	err := pipeline.ForEach(ranks, workers, func(rank int) error {
		for k := rank; k < len(train); k += ranks {
			names, shapes, data := p.Graphs[train[k]].Flatten(p.ClassIDs)
			vars := make([]bp.Variable, len(names))
			for v := range names {
				vars[v] = bp.Variable{Name: names[v], Shape: shapes[v], Data: data[v]}
			}
			payload, metas, err := bp.MarshalPG(rank, len(perRank[rank]), vars)
			if err != nil {
				return err
			}
			perRank[rank] = append(perRank[rank], rankPG{payload: payload, metas: metas})
		}
		return nil
	})
	return perRank, err
}

// ExportBP builds the finalized ADIOS-style BP container of a sharded
// product's train split, marshalled on the shard stage's p.Ranks
// simulated writers, so its process groups are exactly the records of
// the served shard set.
func ExportBP(p *Product) ([]byte, error) {
	if p.Manifest == nil {
		return nil, errors.New("materials: export needs a sharded product")
	}
	perRank, err := marshalRanks(p, p.Ranks, p.Ranks)
	if err != nil {
		return nil, err
	}
	w := bp.NewWriter()
	for rank, pgs := range perRank {
		for step, pg := range pgs {
			if err := w.AppendRawPG(rank, step, pg.payload, pg.metas); err != nil {
				return nil, err
			}
		}
	}
	return w.Finalize()
}
