package climate

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/formats/grib"
	"repro/internal/loader"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/tensor"
)

func TestSynthesizeStructure(t *testing.T) {
	f, err := Synthesize(SynthConfig{Months: 12, Lat: 16, Lon: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Data.Dim(0) != 12 || f.Data.Dim(1) != 16 || f.Data.Dim(2) != 32 {
		t.Fatalf("shape=%v", f.Data.Shape())
	}
	// Equator warmer than poles: compare mean of middle row vs first row.
	var eq, pole float64
	for tt := 0; tt < 12; tt++ {
		for j := 0; j < 32; j++ {
			pole += f.Data.At(tt, 0, j)
			eq += f.Data.At(tt, 8, j)
		}
	}
	if eq <= pole {
		t.Fatalf("equator %v not warmer than pole %v", eq, pole)
	}
	// Plausible Kelvin range.
	if f.Data.Min() < 200 || f.Data.Max() > 330 {
		t.Fatalf("range [%v, %v]", f.Data.Min(), f.Data.Max())
	}
}

func TestSynthesizeMissingRate(t *testing.T) {
	f, err := Synthesize(SynthConfig{Months: 20, Lat: 20, Lon: 20, MissingRate: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(f.Data.CountNaN()) / float64(f.Data.Numel())
	if rate < 0.05 || rate > 0.15 {
		t.Fatalf("missing rate=%v, want ~0.1", rate)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(SynthConfig{Months: 0, Lat: 4, Lon: 4}); err == nil {
		t.Fatal("want months error")
	}
	if _, err := Synthesize(SynthConfig{Months: 1, Lat: 4, Lon: 4, MissingRate: 1.5}); err == nil {
		t.Fatal("want rate error")
	}
}

func TestNetCDFRoundTrip(t *testing.T) {
	f, _ := Synthesize(SynthConfig{Months: 6, Lat: 8, Lon: 16, MissingRate: 0.02, Seed: 3})
	b, err := f.ToNetCDF()
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromNetCDF(b, "tas")
	if err != nil {
		t.Fatal(err)
	}
	if g.Units != "K" {
		t.Fatalf("units=%q", g.Units)
	}
	if !tensor.SameShape(f.Data, g.Data) {
		t.Fatalf("shape %v vs %v", f.Data.Shape(), g.Data.Shape())
	}
	// NaN gaps must round-trip through _FillValue.
	if f.Data.CountNaN() != g.Data.CountNaN() {
		t.Fatalf("NaNs %d vs %d", f.Data.CountNaN(), g.Data.CountNaN())
	}
	// Values survive float32 storage to ~1e-4 relative.
	fd, gd := f.Data.Data(), g.Data.Data()
	for i := range fd {
		if math.IsNaN(fd[i]) {
			continue
		}
		if math.Abs(fd[i]-gd[i]) > 1e-3 {
			t.Fatalf("value %d: %v vs %v", i, fd[i], gd[i])
		}
	}
	if len(g.Lats) != 8 || len(g.Lons) != 16 {
		t.Fatalf("coords %d/%d", len(g.Lats), len(g.Lons))
	}
}

func TestFromNetCDFMissingVar(t *testing.T) {
	f, _ := Synthesize(SynthConfig{Months: 2, Lat: 4, Lon: 4, Seed: 1})
	b, _ := f.ToNetCDF()
	if _, err := FromNetCDF(b, "nope"); err == nil {
		t.Fatal("want missing-variable error")
	}
	if _, err := FromNetCDF([]byte("garbage"), "tas"); err == nil {
		t.Fatal("want decode error")
	}
}

func TestGRIBIngestPath(t *testing.T) {
	// The alternate encoded ingest format: pack one month as GRIB-style
	// and confirm quantized decode is within tolerance.
	f, _ := Synthesize(SynthConfig{Months: 1, Lat: 16, Lon: 32, Seed: 4})
	month, _ := f.Data.SubTensor(0)
	enc, err := grib.Encode(month.Data(), 32, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := grib.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	tol := msg.MaxQuantizationError() + 1e-9
	for i, v := range msg.Values {
		if math.Abs(v-month.Data()[i]) > tol {
			t.Fatalf("grib point %d: %v vs %v", i, v, month.Data()[i])
		}
	}
}

func TestBilinearIdentity(t *testing.T) {
	src, _ := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	out, err := Regrid2D(src, 2, 2, Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		if v != src.Data()[i] {
			t.Fatalf("identity regrid changed data: %v", out.Data())
		}
	}
}

func TestBilinearUpsampleMidpoints(t *testing.T) {
	src, _ := tensor.FromSlice([]float64{0, 10, 20, 30}, 2, 2)
	out, err := Regrid2D(src, 3, 3, Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 1) != 5 { // midpoint of 0 and 10
		t.Fatalf("midpoint=%v", out.At(0, 1))
	}
	if out.At(1, 1) != 15 { // center
		t.Fatalf("center=%v", out.At(1, 1))
	}
}

func TestBilinearHandlesNaN(t *testing.T) {
	src, _ := tensor.FromSlice([]float64{math.NaN(), 10, 20, 30}, 2, 2)
	out, err := Regrid2D(src, 3, 3, Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	// blend2 falls back to the valid operand, so the NaN corner is
	// gap-filled from its row neighbour and no NaN leaks into the output.
	if out.CountNaN() != 0 {
		t.Fatalf("NaN leaked: %v", out.Data())
	}
	if out.At(0, 0) != 10 { // nearest valid value on that row
		t.Fatalf("corner=%v", out.At(0, 0))
	}
	// An all-NaN grid stays NaN.
	allNaN := tensor.Full(math.NaN(), 2, 2)
	out2, err := Regrid2D(allNaN, 3, 3, Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	if out2.CountNaN() != 9 {
		t.Fatalf("all-NaN grid produced values: %v", out2.Data())
	}
}

func TestConservativePreservesMean(t *testing.T) {
	f, _ := Synthesize(SynthConfig{Months: 1, Lat: 16, Lon: 32, Seed: 5})
	month, _ := f.Data.SubTensor(0)
	down, err := Regrid2D(month, 4, 8, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(down.Mean()-month.Mean()) > 1e-9 {
		t.Fatalf("mean not conserved: %v vs %v", down.Mean(), month.Mean())
	}
}

func TestConservativeConstantField(t *testing.T) {
	src := tensor.Full(7, 10, 10)
	out, err := Regrid2D(src, 3, 3, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data() {
		if math.Abs(v-7) > 1e-12 {
			t.Fatalf("constant field regrid=%v", out.Data())
		}
	}
}

func TestRegridErrors(t *testing.T) {
	if _, err := Regrid2D(tensor.New(4), 2, 2, Bilinear); err == nil {
		t.Fatal("want rank error")
	}
	if _, err := Regrid2D(tensor.New(2, 2), 0, 2, Bilinear); err == nil {
		t.Fatal("want target error")
	}
	if _, err := Regrid2D(tensor.New(2, 2), 2, 2, Method(9)); err == nil {
		t.Fatal("want method error")
	}
	if _, err := RegridStack(tensor.New(2, 2), 2, 2, Bilinear, 1); err == nil {
		t.Fatal("want rank-3 error")
	}
}

func TestRegridStackParallelMatchesSerial(t *testing.T) {
	f, _ := Synthesize(SynthConfig{Months: 8, Lat: 12, Lon: 24, MissingRate: 0.01, Seed: 6})
	serial, err := RegridStack(f.Data, 6, 12, Bilinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RegridStack(f.Data, 6, 12, Bilinear, 8)
	if err != nil {
		t.Fatal(err)
	}
	sd, pd := serial.Data(), par.Data()
	for i := range sd {
		if sd[i] != pd[i] && !(math.IsNaN(sd[i]) && math.IsNaN(pd[i])) {
			t.Fatalf("parallel differs at %d: %v vs %v", i, sd[i], pd[i])
		}
	}
}

// TestPipelineEndToEnd runs the full Table 1 climate workflow and checks
// the Table 2 trajectory plus the output artifacts.
func TestPipelineEndToEnd(t *testing.T) {
	f, _ := Synthesize(SynthConfig{Months: 24, Lat: 16, Lon: 32, MissingRate: 0.01, Seed: 7})
	raw, err := f.ToNetCDF()
	if err != nil {
		t.Fatal(err)
	}
	sink := shard.NewMemSink()
	p, err := NewPipeline(Config{TargetLat: 8, TargetLon: 16, Method: Bilinear, Workers: 4, ShardTargetBytes: 8 << 10, Seed: 1}, sink)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset("cmip6-mini", raw)
	snaps, err := p.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.VerifyMonotone(snaps); err != nil {
		t.Fatal(err)
	}
	final := snaps[len(snaps)-1].Assessment
	if final.Level != core.AIReady {
		t.Fatalf("final level=%v gaps=%v", final.Level, final.Gaps)
	}

	prod := ds.Payload.(*Product)
	if prod.Field.Data.Dim(1) != 8 || prod.Field.Data.Dim(2) != 16 {
		t.Fatalf("regrid shape=%v", prod.Field.Data.Shape())
	}
	if math.Abs(prod.Field.Data.Mean()) > 1e-6 {
		t.Fatalf("not normalized: mean=%v", prod.Field.Data.Mean())
	}
	if prod.Field.Data.CountNaN() != 0 {
		t.Fatal("NaNs survived cleaning")
	}
	if len(prod.Samples) != 24 {
		t.Fatalf("samples=%d", len(prod.Samples))
	}
	if prod.Manifest.TotalRecords() != len(prod.Split.Train) {
		t.Fatalf("sharded %d, train=%d", prod.Manifest.TotalRecords(), len(prod.Split.Train))
	}
	npz, err := ExportNPZ(prod)
	if err != nil {
		t.Fatal(err)
	}
	if len(npz) == 0 {
		t.Fatal("no NPZ artifact")
	}

	// The shards feed the loader (ready-to-train contract).
	l, err := loader.New(sink, prod.Manifest, loader.Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for b := l.Next(); b != nil; b = l.Next() {
		n += b.Len()
		if len(b.Features[0]) != 8*16 {
			t.Fatalf("feature dims=%d", len(b.Features[0]))
		}
	}
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
	if n != len(prod.Split.Train) {
		t.Fatalf("loader read %d", n)
	}
}

func TestPipelineNoRawBytes(t *testing.T) {
	sink := shard.NewMemSink()
	p, err := NewPipeline(DefaultConfig(), sink)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset("empty", nil)
	if _, err := p.Run(ds); err == nil {
		t.Fatal("want missing-raw error")
	}
}

func TestPipelineConfigErrors(t *testing.T) {
	if _, err := NewPipeline(DefaultConfig(), nil); err == nil {
		t.Fatal("want nil-sink error")
	}
	if _, err := NewPipeline(Config{TargetLat: 1, TargetLon: 1}, shard.NewMemSink()); err == nil {
		t.Fatal("want grid error")
	}
}

func TestExportNPZNeedsNormalizedProduct(t *testing.T) {
	if _, err := ExportNPZ(&Product{}); err == nil {
		t.Fatal("want error exporting a product with no fields")
	}
}

// Property: conservative downscaling preserves the mean for arbitrary
// complete fields.
func TestConservativeMeanProperty(t *testing.T) {
	f := func(seed int64, h8, w8, th8, tw8 uint8) bool {
		h, w := int(h8)%12+2, int(w8)%12+2
		th, tw := int(th8)%6+1, int(tw8)%6+1
		field, err := Synthesize(SynthConfig{Months: 1, Lat: maxi(h, 2), Lon: maxi(w, 2), Seed: seed})
		if err != nil {
			return false
		}
		month, err := field.Data.SubTensor(0)
		if err != nil {
			return false
		}
		out, err := Regrid2D(month, th, tw, Conservative)
		if err != nil {
			return false
		}
		return math.Abs(out.Mean()-month.Mean()) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func BenchmarkRegridParallel(b *testing.B) {
	f, err := Synthesize(SynthConfig{Months: 32, Lat: 64, Lon: 128, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(string(rune('0'+workers))+"w", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RegridStack(f.Data, 32, 64, Bilinear, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
