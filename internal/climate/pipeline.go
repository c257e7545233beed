package climate

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/formats/npy"
	"repro/internal/loader"
	"repro/internal/pipeline"
	"repro/internal/quality"
	"repro/internal/shard"
	"repro/internal/split"
)

// Config tunes the climate archetype pipeline.
type Config struct {
	// Variables lists the NetCDF variables to prepare; nil means
	// {"tas"}. Each variable is normalized independently (ClimaX
	// "normalizing each variable with computed mean and standard
	// deviation", §3.1).
	Variables []string
	// TargetLat/TargetLon is the regrid resolution (standard grid
	// alignment, §3.1).
	TargetLat, TargetLon int
	Method               Method
	// Workers parallelizes per-timestep regridding.
	Workers int
	// ShardTargetBytes sizes output shards.
	ShardTargetBytes int64
	Seed             int64
}

// DefaultConfig matches the reproduction experiments.
func DefaultConfig() Config {
	return Config{TargetLat: 24, TargetLon: 48, Method: Bilinear, Workers: 4,
		ShardTargetBytes: 64 << 10, Seed: 1}
}

// Product accumulates the pipeline's outputs on the dataset payload.
type Product struct {
	Raw    []byte // ingested NetCDF bytes
	Fields []*Field
	// Field aliases Fields[0] (the primary variable).
	Field *Field
	// Stats maps variable name -> (mean, std) used for normalization.
	Stats map[string][2]float64
	// Mean/Std mirror Stats of the primary variable.
	Mean     float64
	Std      float64
	Samples  []*loader.Sample
	Split    *split.Result
	Manifest *shard.Manifest
}

// NewPipeline assembles the Table 1 climate workflow over the sink:
// normalize variables → resample grids → standardize outputs → shard.
func NewPipeline(cfg Config, sink shard.Sink) (*pipeline.Pipeline, error) {
	if sink == nil {
		return nil, errors.New("climate: nil sink")
	}
	if cfg.TargetLat < 2 || cfg.TargetLon < 2 {
		return nil, fmt.Errorf("climate: target grid %dx%d too small", cfg.TargetLat, cfg.TargetLon)
	}

	variables := cfg.Variables
	if len(variables) == 0 {
		variables = []string{"tas"}
	}

	ingest := pipeline.StageFunc{StageName: "decode-netcdf", StageKind: core.Ingest, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		if p.Raw == nil {
			return errors.New("climate: no raw NetCDF bytes on payload")
		}
		p.Fields = p.Fields[:0]
		missing, total := 0, 0
		for _, name := range variables {
			f, err := FromNetCDF(p.Raw, name)
			if err != nil {
				return err
			}
			p.Fields = append(p.Fields, f)
			missing += f.Data.CountNaN()
			total += f.Data.Numel()
		}
		p.Field = p.Fields[0]
		ds.Facts.StandardFormat = true
		ds.Facts.Validated = true
		ds.Facts.MissingRate = float64(missing) / float64(total)
		ds.SetMeta("source", "CMIP6-like synthetic")
		ds.SetMeta("variables", fmt.Sprintf("%d", len(p.Fields)))
		ds.SetMeta("units", p.Field.Units)
		ds.SetMeta("grid", fmt.Sprintf("%dx%d", p.Field.Data.Dim(1), p.Field.Data.Dim(2)))
		ds.Bytes = int64(len(p.Raw))
		ds.Records = int64(p.Field.Data.Dim(0))
		return nil
	}}

	clean := pipeline.StageFunc{StageName: "fill-missing", StageKind: core.Preprocess, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		repaired, remaining, total := 0, 0, 0
		for _, f := range p.Fields {
			_, rep, err := quality.FillMissing(f.Data, quality.FillInterpolate, 0)
			if err != nil {
				return err
			}
			repaired += rep.Repaired
			remaining += f.Data.CountNaN()
			total += f.Data.Numel()
		}
		ds.SetMeta("missing_repaired", fmt.Sprintf("%d", repaired))
		ds.Facts.MissingRate = float64(remaining) / float64(total)
		return nil
	}}

	regrid := pipeline.StageFunc{StageName: "regrid", StageKind: core.Preprocess, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		for _, f := range p.Fields {
			rg, err := RegridStack(f.Data, cfg.TargetLat, cfg.TargetLon, cfg.Method, cfg.Workers)
			if err != nil {
				return err
			}
			f.Data = rg
			f.Lats = linspace(-90, 90, cfg.TargetLat)
			f.Lons = linspace(0, 360*(1-1/float64(cfg.TargetLon)), cfg.TargetLon)
		}
		ds.Facts.AlignedGrids = true
		ds.SetMeta("regrid", fmt.Sprintf("%s to %dx%d", cfg.Method, cfg.TargetLat, cfg.TargetLon))
		return nil
	}}

	normalize := pipeline.StageFunc{StageName: "normalize", StageKind: core.Transform, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		p.Stats = make(map[string][2]float64, len(p.Fields))
		for _, f := range p.Fields {
			mean, std := f.Data.Normalize()
			p.Stats[f.Name] = [2]float64{mean, std}
		}
		p.Mean, p.Std = p.Stats[p.Field.Name][0], p.Stats[p.Field.Name][1]
		ds.Facts.Normalized = true
		ds.SetMeta("norm_mean", fmt.Sprintf("%.6g", p.Mean))
		ds.SetMeta("norm_std", fmt.Sprintf("%.6g", p.Std))
		return nil
	}}

	structure := pipeline.StageFunc{StageName: "build-samples", StageKind: core.Structure, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		T := p.Field.Data.Dim(0)
		p.Samples = make([]*loader.Sample, 0, T)
		for t := 0; t < T; t++ {
			// Concatenate all variables channel-wise per month.
			var features []float32
			for _, f := range p.Fields {
				month, err := f.Data.SubTensor(t)
				if err != nil {
					return err
				}
				features = append(features, month.Float32()...)
			}
			p.Samples = append(p.Samples, &loader.Sample{
				Features: features,
				Label:    int32((t % 12) / 3), // season class 0..3
			})
		}
		ds.Facts.FeaturesExtracted = true
		ds.Facts.StructuredLayout = true
		ds.Facts.LabelCoverage = 1 // season labels are inherent to the time axis
		ds.Records = int64(len(p.Samples))
		return nil
	}}

	// The stage keeps its Table 1 name; the NPZ archive itself is
	// ExportNPZ's, built on demand from the product.
	shardStage := pipeline.StageFunc{StageName: "split-shard-npz", StageKind: core.Shard, Fn: func(ds *pipeline.Dataset) error {
		p, err := product(ds)
		if err != nil {
			return err
		}
		// Temporal split: no future leakage for forecasting-style use.
		res, err := split.Temporal(len(p.Samples), split.DefaultFractions())
		if err != nil {
			return err
		}
		p.Split = res

		w, err := shard.NewWriter(sink, shard.Options{Prefix: "climate-train", TargetBytes: cfg.ShardTargetBytes})
		if err != nil {
			return err
		}
		for _, i := range res.Train {
			if err := w.Write(p.Samples[i].Encode()); err != nil {
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

	return pipeline.New("climate-archetype", ingest, clean, regrid, normalize, structure, shardStage)
}

// ExportNPZ builds the ClimaX-style NumPy archive of a normalized
// product: one float32 member per field, "<field>_stats" (mean, std) per
// field, and the primary field's "mean" and "std" as legacy
// single-variable members. The served shard set does not depend on it.
func ExportNPZ(p *Product) ([]byte, error) {
	if len(p.Fields) == 0 || p.Stats == nil {
		return nil, errors.New("climate: export needs a normalized product")
	}
	var npz bytes.Buffer
	zw := npy.NewNPZWriter(&npz)
	for _, f := range p.Fields {
		if err := zw.Add(f.Name, f.Data.Data(), f.Data.Shape(), npy.Float32); err != nil {
			return nil, err
		}
		st := p.Stats[f.Name]
		if err := zw.Add(f.Name+"_stats", st[:], []int{2}, npy.Float64); err != nil {
			return nil, err
		}
	}
	if err := zw.Add("mean", []float64{p.Mean}, []int{1}, npy.Float64); err != nil {
		return nil, err
	}
	if err := zw.Add("std", []float64{p.Std}, []int{1}, npy.Float64); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return npz.Bytes(), nil
}

// product extracts the typed payload.
func product(ds *pipeline.Dataset) (*Product, error) {
	p, ok := ds.Payload.(*Product)
	if !ok {
		return nil, fmt.Errorf("climate: payload is %T, want *Product", ds.Payload)
	}
	return p, nil
}

// NewDataset wraps raw NetCDF bytes for the pipeline.
func NewDataset(name string, raw []byte) *pipeline.Dataset {
	ds := pipeline.NewDataset(name, core.Climate, &Product{Raw: raw})
	ds.Bytes = int64(len(raw))
	return ds
}

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = lo
		return out
	}
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + step*float64(i)
	}
	return out
}

// GridMean returns the NaN-aware mean of a field (used by conservation
// tests and the experiment harness).
func GridMean(f *Field) float64 {
	if f == nil || f.Data == nil {
		return math.NaN()
	}
	return f.Data.Mean()
}
