package fusion

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/formats/tfrecord"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/split"
)

// Config tunes the fusion archetype pipeline.
type Config struct {
	Dt            float64 // common time base (seconds)
	WindowSamples int
	WindowStride  int
	Horizon       float64 // disruption-label lookahead (seconds)
	Workers       int
	ShardTarget   int64
	Seed          int64
}

// DefaultConfig matches the reproduction experiments.
func DefaultConfig() Config {
	return Config{Dt: 0.01, WindowSamples: 50, WindowStride: 25, Horizon: 0.3,
		Workers: 4, ShardTarget: 128 << 10, Seed: 1}
}

// Product accumulates the fusion pipeline's outputs.
type Product struct {
	Store    *Store
	Aligned  []*AlignedShot
	Windows  []Window
	Split    *split.Result
	Manifest *shard.Manifest
}

// NewDataset wraps a shot store for the pipeline.
func NewDataset(name string, st *Store) *pipeline.Dataset {
	ds := pipeline.NewDataset(name, core.Fusion, &Product{Store: st})
	ds.Records = int64(len(st.Shots()))
	return ds
}

func product(ds *pipeline.Dataset) (*Product, error) {
	p, ok := ds.Payload.(*Product)
	if !ok {
		return nil, fmt.Errorf("fusion: payload is %T, want *Product", ds.Payload)
	}
	return p, nil
}

// NewPipeline assembles the Table 1 fusion workflow: extract/align
// diagnostics → physics-based features → normalize shots → TFRecord.
func NewPipeline(cfg Config, sink shard.Sink) (*pipeline.Pipeline, error) {
	if sink == nil {
		return nil, errors.New("fusion: nil sink")
	}
	if cfg.Dt <= 0 || cfg.WindowSamples <= 0 || cfg.WindowStride <= 0 {
		return nil, fmt.Errorf("fusion: invalid config %+v", cfg)
	}

	extract := pipeline.StageFunc{StageName: "extract-shots", StageKind: core.Ingest, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		if p.Store == nil {
			return errors.New("fusion: no shot store on payload")
		}
		shots := p.Store.Shots()
		if len(shots) == 0 {
			return errors.New("fusion: empty campaign")
		}
		missing, total := 0, 0
		for _, num := range shots {
			s, err := p.Store.Get(num)
			if err != nil {
				return err
			}
			for _, sig := range s.Signals {
				total += len(sig.Data)
				for _, v := range sig.Data {
					if math.IsNaN(v) {
						missing++
					}
				}
			}
		}
		ds.Facts.StandardFormat = true // MDSplus-like tree is the community store
		ds.Facts.Validated = true
		ds.Facts.MissingRate = float64(missing) / float64(total)
		ds.SetMeta("machine", "synthetic tokamak")
		ds.SetMeta("shots", fmt.Sprintf("%d", len(shots)))
		ds.SetMeta("diagnostics", fmt.Sprintf("%d", len(DiagnosticNames())))
		ds.Records = int64(len(shots))
		ds.Bytes = int64(total * 8)
		return nil
	}}

	align := pipeline.StageFunc{StageName: "align-diagnostics", StageKind: core.Preprocess, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		shots := p.Store.Shots()
		p.Aligned = make([]*AlignedShot, len(shots))
		err = pipeline.ForEach(len(shots), cfg.Workers, func(i int) error {
			s, err := p.Store.Get(shots[i])
			if err != nil {
				return err
			}
			a, err := Align(s, cfg.Dt)
			if err != nil {
				return err
			}
			p.Aligned[i] = a
			return nil
		})
		if err != nil {
			return err
		}
		// Resampling bridges dropouts, so missing data is now handled.
		ds.Facts.MissingRate = 0
		ds.Facts.AlignedGrids = true
		ds.SetMeta("time_base", fmt.Sprintf("dt=%gs", cfg.Dt))
		return nil
	}}

	features := pipeline.StageFunc{StageName: "physics-features", StageKind: core.Transform, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		return pipeline.ForEach(len(p.Aligned), cfg.Workers, func(i int) error {
			return p.Aligned[i].AddDerivativeChannels()
		})
	}}

	normalize := pipeline.StageFunc{StageName: "normalize-shots", StageKind: core.Transform, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		if err := pipeline.ForEach(len(p.Aligned), cfg.Workers, func(i int) error {
			_, err := p.Aligned[i].NormalizePerShot()
			return err
		}); err != nil {
			return err
		}
		ds.Facts.Normalized = true
		return nil
	}}

	window := pipeline.StageFunc{StageName: "windowize", StageKind: core.Structure, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		p.Windows = nil
		for _, a := range p.Aligned {
			ws, err := Windowize(a, cfg.WindowSamples, cfg.WindowStride, cfg.Horizon)
			if err != nil {
				return err
			}
			p.Windows = append(p.Windows, ws...)
		}
		if len(p.Windows) == 0 {
			return errors.New("fusion: no windows produced (shots too short?)")
		}
		ds.Facts.FeaturesExtracted = true
		ds.Facts.StructuredLayout = true
		ds.Facts.LabelCoverage = 1 // disruption labels derived from shot outcomes
		ds.Records = int64(len(p.Windows))
		return nil
	}}

	shardStage := pipeline.StageFunc{StageName: "tfrecord-shard", StageKind: core.Shard, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		// Grouped split: a shot's windows never straddle partitions.
		groups := make([]string, len(p.Windows))
		for i, w := range p.Windows {
			groups[i] = fmt.Sprintf("shot-%d", w.Shot)
		}
		res, err := split.Grouped(groups, split.DefaultFractions(), cfg.Seed)
		if err != nil {
			return err
		}
		p.Split = res

		w, err := shard.NewWriter(sink, shard.Options{Prefix: "fusion-train", TargetBytes: cfg.ShardTarget})
		if err != nil {
			return err
		}
		for _, i := range res.Train {
			win := p.Windows[i]
			ex := tfrecord.NewExample()
			feats := make([]float32, len(win.Features))
			for j, v := range win.Features {
				feats[j] = float32(v)
			}
			ex.Features["signal"] = tfrecord.Feature{Floats: feats}
			ex.Features["shot"] = tfrecord.Feature{Ints: []int64{int64(win.Shot)}}
			ex.Features["label"] = tfrecord.Feature{Ints: []int64{int64(win.Label)}}
			// Serving-side consumers need the label's provenance: where the
			// window sits in the shot and how far ahead the disruption
			// label looks (Config.Horizon).
			ex.Features["start"] = tfrecord.Feature{Ints: []int64{int64(win.Start)}}
			ex.Features["horizon"] = tfrecord.Feature{Floats: []float32{float32(cfg.Horizon)}}
			if err := w.Write(ex.Marshal()); err != nil {
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

	return pipeline.New("fusion-archetype", extract, align, features, normalize, window, shardStage)
}

// DisruptionRate reports the positive-label fraction among windows
// (class-balance diagnostics; fusion labels are scarce, Table 1).
func DisruptionRate(windows []Window) float64 {
	if len(windows) == 0 {
		return 0
	}
	pos := 0
	for _, w := range windows {
		if w.Label == 1 {
			pos++
		}
	}
	return float64(pos) / float64(len(windows))
}
