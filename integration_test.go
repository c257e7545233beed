// Cross-module integration tests: archetype pipelines running over the
// simulated parallel filesystem, loader read-back, provenance audits, and
// failure injection between pipeline stages.
package repro

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/anonymize"
	"repro/internal/bio"
	"repro/internal/climate"
	"repro/internal/core"
	"repro/internal/fusion"
	"repro/internal/loader"
	"repro/internal/materials"
	"repro/internal/parfs"
	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/quality"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// newFastFS returns a parfs with accounting but no real sleeping, so
// integration tests stay fast.
func newFastFS(t *testing.T) *parfs.FS {
	t.Helper()
	fs, err := parfs.New(parfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs.SetSleep(func(time.Duration) {})
	return fs
}

// TestClimateOnParallelFS runs the climate archetype with shards landing
// on the simulated striped filesystem, then trains-side reads them back.
func TestClimateOnParallelFS(t *testing.T) {
	fs := newFastFS(t)
	field, err := climate.Synthesize(climate.SynthConfig{Months: 24, Lat: 16, Lon: 32, MissingRate: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := field.ToNetCDF()
	if err != nil {
		t.Fatal(err)
	}
	p, err := climate.NewPipeline(climate.Config{
		TargetLat: 8, TargetLon: 16, Method: climate.Conservative, Workers: 4,
		ShardTargetBytes: 4 << 10, Seed: 3}, fs)
	if err != nil {
		t.Fatal(err)
	}
	ds := climate.NewDataset("parfs-climate", raw)
	snaps, err := p.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if snaps[len(snaps)-1].Assessment.Level != core.AIReady {
		t.Fatalf("level=%v", snaps[len(snaps)-1].Assessment.Level)
	}
	prod := ds.Payload.(*climate.Product)

	// Loader streams straight off the parallel FS.
	l, err := loader.New(fs, prod.Manifest, loader.Options{BatchSize: 4, ShuffleBuffer: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for b := l.Next(); b != nil; b = l.Next() {
		n += b.Len()
	}
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
	if n != len(prod.Split.Train) {
		t.Fatalf("loader read %d, train=%d", n, len(prod.Split.Train))
	}
	// The FS accounted real traffic on multiple OSTs.
	stats := fs.Stats()
	if stats.Bytes == 0 || stats.Ops == 0 {
		t.Fatalf("no simulated I/O recorded: %+v", stats)
	}
	// Provenance verifies end to end.
	if err := p.Tracker.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestShardCorruptionSurfacesThroughLoader injects corruption between the
// pipeline and the trainer; the loader must fail loudly, not deliver
// silent garbage.
func TestShardCorruptionSurfacesThroughLoader(t *testing.T) {
	sink := shard.NewMemSink()
	samples := make([]*loader.Sample, 50)
	for i := range samples {
		samples[i] = &loader.Sample{Features: []float32{float32(i)}, Label: int32(i)}
	}
	m, err := loader.WriteSamples(sink, shard.Options{Prefix: "x", TargetBytes: 256}, samples)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one shard by lying about its checksum in the manifest
	// (equivalent to bit rot on disk).
	m.Shards[1].SHA256 = "deadbeef" + m.Shards[1].SHA256[8:]
	l, err := loader.New(sink, m, loader.Options{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for b := l.Next(); b != nil; b = l.Next() {
	}
	if l.Err() == nil {
		t.Fatal("corruption not surfaced")
	}
}

// TestFileRoundTripThroughOS exercises the gendata-style path: raw files
// on disk, re-ingested from disk.
func TestFileRoundTripThroughOS(t *testing.T) {
	dir := t.TempDir()

	// Climate NetCDF file.
	field, err := climate.Synthesize(climate.SynthConfig{Months: 6, Lat: 8, Lon: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := field.ToNetCDF()
	if err != nil {
		t.Fatal(err)
	}
	ncPath := filepath.Join(dir, "tas.nc")
	if err := os.WriteFile(ncPath, nc, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(ncPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := climate.FromNetCDF(back, "tas"); err != nil {
		t.Fatal(err)
	}

	// Materials POSCAR files.
	structs, err := materials.Synthesize(materials.SynthConfig{Structures: 5, MinAtoms: 4, MaxAtoms: 8, ImbalanceRatio: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range structs {
		path := filepath.Join(dir, s.ID+".poscar")
		if err := os.WriteFile(path, []byte(s.ToPOSCAR()), 0o644); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := materials.ParsePOSCAR(string(data))
		if err != nil {
			t.Fatal(err)
		}
		if got.NumAtoms() != s.NumAtoms() {
			t.Fatalf("%s atoms %d vs %d", s.ID, got.NumAtoms(), s.NumAtoms())
		}
	}

	// Bio FASTA file.
	cohort, err := bio.Synthesize(bio.SynthConfig{Subjects: 4, SeqLen: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fPath := filepath.Join(dir, "cohort.fasta")
	if err := os.WriteFile(fPath, []byte(cohort.ToFASTA()), 0o600); err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(fPath)
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := bio.ParseFASTA(string(fb))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 4 {
		t.Fatalf("seqs=%d", len(seqs))
	}
}

// TestFusionSciH5AlternateOutput checks Table 1's "TFRecord/HDF5" by
// producing both containers from one campaign and re-windowing from the
// SciH5 copy.
func TestFusionSciH5AlternateOutput(t *testing.T) {
	st, err := fusion.SynthesizeCampaign(fusion.SynthConfig{Shots: 6, DisruptionRate: 0.5, FlattopSeconds: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var aligned []*fusion.AlignedShot
	for _, num := range st.Shots() {
		s, _ := st.Get(num)
		a, err := fusion.Align(s, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		aligned = append(aligned, a)
	}
	h5, err := fusion.ExportSciH5(aligned)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fusion.ImportSciH5(h5)
	if err != nil {
		t.Fatal(err)
	}
	// Windows from the original and the re-imported copy agree in count
	// and labels.
	for i := range aligned {
		w1, err := fusion.Windowize(aligned[i], 30, 15, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := fusion.Windowize(back[i], 30, 15, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if len(w1) != len(w2) {
			t.Fatalf("shot %d windows %d vs %d", i, len(w1), len(w2))
		}
		for k := range w1 {
			if w1[k].Label != w2[k].Label {
				t.Fatalf("shot %d window %d label %d vs %d", i, k, w1[k].Label, w2[k].Label)
			}
		}
	}
}

// TestBioPipelineOnParallelFS runs the secure bio path with sealed shards
// landing on the parallel FS, then decrypts from there.
func TestBioPipelineOnParallelFS(t *testing.T) {
	fs := newFastFS(t)
	cohort, err := bio.Synthesize(bio.SynthConfig{Subjects: 20, SeqLen: 256, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{9}, 32)
	p, err := bio.NewPipeline(bio.DefaultConfig(key, []byte("integration-pseudonym-secret")), fs)
	if err != nil {
		t.Fatal(err)
	}
	ds := bio.NewDataset("parfs-bio", cohort.ToFASTA(), cohort.Clinical)
	if _, err := p.Run(ds); err != nil {
		t.Fatal(err)
	}
	prod := ds.Payload.(*bio.Product)
	for _, info := range prod.Manifest.Shards {
		sealed, err := fs.ReadFile(info.Name + bio.SealedSuffix)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := anonymize.DecryptShard(key, info.Name, sealed)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(plain)) != info.StoredBytes {
			t.Fatalf("shard %s: %d plaintext bytes, manifest says %d", info.Name, len(plain), info.StoredBytes)
		}
	}
}

// TestProvenanceExportAcrossPipelines merges provenance from two domain
// runs and audits the combined report.
func TestProvenanceExportAcrossPipelines(t *testing.T) {
	fs := newFastFS(t)
	field, _ := climate.Synthesize(climate.SynthConfig{Months: 6, Lat: 8, Lon: 16, Seed: 9})
	raw, _ := field.ToNetCDF()
	p, err := climate.NewPipeline(climate.Config{TargetLat: 4, TargetLon: 8, Workers: 2, ShardTargetBytes: 4 << 10, Seed: 9}, fs)
	if err != nil {
		t.Fatal(err)
	}
	ds := climate.NewDataset("prov", raw)
	if _, err := p.Run(ds); err != nil {
		t.Fatal(err)
	}
	exported, err := p.Tracker.Export()
	if err != nil {
		t.Fatal(err)
	}
	imported, err := provenance.Import(exported)
	if err != nil {
		t.Fatal(err)
	}
	if err := imported.Verify(); err != nil {
		t.Fatal(err)
	}
	lin := imported.Lineage(ds.ID())
	if len(lin) != len(p.Stages()) {
		t.Fatalf("lineage %d vs %d stages", len(lin), len(p.Stages()))
	}
}

// TestQualityFeedbackLoop exercises the Fig. 1 feedback edge with a
// quality gate instead of labels: a dataset with heavy outliers is
// iteratively winsorized until its datasheet quality score clears the
// release threshold.
func TestQualityFeedbackLoop(t *testing.T) {
	// Values concentrated at 1 with gross outliers and some missing.
	vals := make([]float64, 2000)
	for i := range vals {
		switch {
		case i%97 == 0:
			vals[i] = 1e6 // gross outliers
		case i%53 == 0:
			vals[i] = nan()
		default:
			vals[i] = float64(i%100) * 0.7
		}
	}
	ds := pipeline.NewDataset("noisy", core.Climate, vals)

	refine := pipeline.StageFunc{StageName: "winsorize", StageKind: core.Transform,
		Fn: func(d *pipeline.Dataset) error {
			xs := d.Payload.([]float64)
			x, err := tensorFrom(xs)
			if err != nil {
				return err
			}
			if _, _, err := quality.FillMissing(x, quality.FillMedian, 0); err != nil {
				return err
			}
			if _, err := quality.WinsorizeOutliers(xs, quality.IQR, 1.5); err != nil {
				return err
			}
			return nil
		}}

	goodEnough := func(d *pipeline.Dataset) bool {
		sheet, err := quality.BuildDatasheet("noisy", d.Payload.([]float64), nil)
		if err != nil {
			return false
		}
		return sheet.QualityScore() > 0.9
	}
	if goodEnough(ds) {
		t.Fatal("dataset should start below the quality gate")
	}
	rounds, err := pipeline.Iterate(ds, refine, goodEnough, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 || rounds == 10 {
		t.Fatalf("rounds=%d, want convergence in (0,10)", rounds)
	}
	if !goodEnough(ds) {
		t.Fatal("quality gate not reached")
	}
}

func nan() float64 { return math.NaN() }

func tensorFrom(xs []float64) (*tensor.Tensor, error) {
	return tensor.FromSlice(xs, len(xs))
}
