// climate_orbit reproduces the ORBIT/ClimaX-style climate preparation at
// a larger scale: decode NetCDF, regrid with both methods (comparing
// conservation), normalize, shard, export the ClimaX-style NPZ archive,
// and sweep parallel regridding workers to show the preprocessing-scaling
// behaviour the paper's §3.1 ("pipeline throughput") calls out.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/climate"
	"repro/internal/formats/npy"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	cfg := climate.SynthConfig{Months: 48, Lat: 64, Lon: 128, MissingRate: 0.01, Seed: 7}
	field, err := climate.Synthesize(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CMIP6-like input: %d months on %dx%d\n", cfg.Months, cfg.Lat, cfg.Lon)

	// Compare regrid methods on month 0.
	month, err := field.Data.SubTensor(0)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range []climate.Method{climate.Bilinear, climate.Conservative} {
		down, err := climate.Regrid2D(month, 32, 64, m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-13s 64x128 -> 32x64: mean drift %+.3e K\n",
			m, down.Mean()-month.Mean())
	}

	// Parallel regridding sweep (the pipeline-throughput challenge).
	fmt.Println("\nparallel regridding sweep (48 months, 64x128 -> 32x64):")
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		start := time.Now()
		if _, err := climate.RegridStack(field.Data, 32, 64, climate.Bilinear, workers); err != nil {
			log.Fatal(err)
		}
		d := time.Since(start)
		if workers == 1 {
			base = d
		}
		fmt.Printf("  workers=%d  %10s  speedup %.2fx\n", workers, d.Round(time.Microsecond), float64(base)/float64(d))
	}

	// Full pipeline to AI-ready NPZ.
	raw, err := field.ToNetCDF()
	if err != nil {
		log.Fatal(err)
	}
	sink := shard.NewMemSink()
	p, err := climate.NewPipeline(climate.Config{
		TargetLat: 32, TargetLon: 64, Method: climate.Bilinear, Workers: 8,
		ShardTargetBytes: 256 << 10, Seed: 7}, sink)
	if err != nil {
		log.Fatal(err)
	}
	ds := climate.NewDataset("orbit-demo", raw)
	if _, err := p.Run(ds); err != nil {
		log.Fatal(err)
	}
	prod := ds.Payload.(*climate.Product)
	npz, err := climate.ExportNPZ(prod)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAI-ready outputs: %d train shards (%d bytes), NPZ export %d bytes\n",
		len(prod.Manifest.Shards), prod.Manifest.TotalStoredBytes(), len(npz))

	// Verify the NPZ export decodes and its stats denormalize sanely.
	arrs, err := npy.ReadNPZBytes(npz)
	if err != nil {
		log.Fatal(err)
	}
	mean := arrs["mean"].Data[0]
	std := arrs["std"].Data[0]
	if math.IsNaN(mean) || std <= 0 {
		log.Fatalf("bad normalization stats: mean=%v std=%v", mean, std)
	}
	fmt.Printf("NPZ members: tas%v, mean=%.2f K, std=%.2f K\n", arrs["tas"].Shape, mean, std)
	fmt.Println("\n" + p.Collector.Report())
}
