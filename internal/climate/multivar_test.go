package climate

import (
	"math"
	"testing"

	"repro/internal/formats/npy"
	"repro/internal/shard"
)

func TestSynthesizeVars(t *testing.T) {
	cfg := SynthConfig{Months: 6, Lat: 10, Lon: 20, Seed: 31}
	fields, err := SynthesizeVars(cfg, []string{"tas", "pr", "psl"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 3 {
		t.Fatalf("fields=%d", len(fields))
	}
	tas, pr, psl := fields[0], fields[1], fields[2]
	if tas.Units != "K" || pr.Units != "kg m-2 s-1" || psl.Units != "Pa" {
		t.Fatalf("units: %q %q %q", tas.Units, pr.Units, psl.Units)
	}
	// Precipitation is non-negative.
	if pr.Data.Min() < 0 {
		t.Fatalf("pr min=%v", pr.Data.Min())
	}
	// Pressure near 1 atm.
	if psl.Data.Mean() < 95000 || psl.Data.Mean() > 108000 {
		t.Fatalf("psl mean=%v", psl.Data.Mean())
	}
	// ITCZ: equatorial rain exceeds polar rain.
	eq, pole := 0.0, 0.0
	for tt := 0; tt < 6; tt++ {
		for j := 0; j < 20; j++ {
			eq += pr.Data.At(tt, 5, j)
			pole += pr.Data.At(tt, 0, j)
		}
	}
	if eq <= pole {
		t.Fatalf("no ITCZ structure: eq=%v pole=%v", eq, pole)
	}
}

func TestSynthesizeVarsErrors(t *testing.T) {
	cfg := SynthConfig{Months: 2, Lat: 4, Lon: 4, Seed: 1}
	if _, err := SynthesizeVars(cfg, nil); err == nil {
		t.Fatal("want empty error")
	}
	if _, err := SynthesizeVars(cfg, []string{"bogus"}); err == nil {
		t.Fatal("want unknown-variable error")
	}
}

func TestFieldsToNetCDFRoundTrip(t *testing.T) {
	cfg := SynthConfig{Months: 4, Lat: 6, Lon: 12, MissingRate: 0.01, Seed: 32}
	fields, err := SynthesizeVars(cfg, []string{"tas", "pr"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FieldsToNetCDF(fields)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tas", "pr"} {
		f, err := FromNetCDF(b, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Data.Dim(0) != 4 {
			t.Fatalf("%s shape=%v", name, f.Data.Shape())
		}
	}
	if _, err := FieldsToNetCDF(nil); err == nil {
		t.Fatal("want empty error")
	}
}

func TestMultiVariablePipeline(t *testing.T) {
	cfg := SynthConfig{Months: 24, Lat: 12, Lon: 24, MissingRate: 0.01, Seed: 33}
	fields, err := SynthesizeVars(cfg, []string{"tas", "pr", "psl"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := FieldsToNetCDF(fields)
	if err != nil {
		t.Fatal(err)
	}
	sink := shard.NewMemSink()
	pcfg := Config{
		Variables: []string{"tas", "pr", "psl"},
		TargetLat: 6, TargetLon: 12, Method: Bilinear, Workers: 4,
		ShardTargetBytes: 16 << 10, Seed: 1,
	}
	p, err := NewPipeline(pcfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset("multi", raw)
	if _, err := p.Run(ds); err != nil {
		t.Fatal(err)
	}
	prod := ds.Payload.(*Product)
	if len(prod.Fields) != 3 {
		t.Fatalf("fields=%d", len(prod.Fields))
	}
	// Each variable is independently normalized.
	if len(prod.Stats) != 3 {
		t.Fatalf("stats=%v", prod.Stats)
	}
	for name, st := range prod.Stats {
		if st[1] <= 0 {
			t.Fatalf("%s std=%v", name, st[1])
		}
	}
	for _, f := range prod.Fields {
		if math.Abs(f.Data.Mean()) > 1e-6 {
			t.Fatalf("%s not normalized: mean=%v", f.Name, f.Data.Mean())
		}
	}
	// pr and tas had very different scales; post-normalization both are
	// unit-scale (the reason per-variable normalization matters).
	// Samples concatenate all three variables.
	if got := len(prod.Samples[0].Features); got != 3*6*12 {
		t.Fatalf("feature dims=%d", got)
	}
	// NPZ holds one member + stats per variable plus legacy members.
	npz, err := ExportNPZ(prod)
	if err != nil {
		t.Fatal(err)
	}
	arrs, err := npy.ReadNPZBytes(npz)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tas", "pr", "psl", "tas_stats", "pr_stats", "psl_stats", "mean", "std"} {
		if _, ok := arrs[name]; !ok {
			t.Fatalf("NPZ missing %q (have %d members)", name, len(arrs))
		}
	}
	// Stats members let a consumer denormalize: check tas round trip.
	st := arrs["tas_stats"].Data
	tas := arrs["tas"]
	sample := tas.Data[0]*st[1] + st[0]
	if sample < 200 || sample > 330 {
		t.Fatalf("denormalized tas=%v not Kelvin-plausible", sample)
	}
}

func TestMultiVariableMissingVarFails(t *testing.T) {
	field, _ := Synthesize(SynthConfig{Months: 2, Lat: 4, Lon: 8, Seed: 1})
	raw, _ := field.ToNetCDF()
	p, err := NewPipeline(Config{Variables: []string{"tas", "pr"},
		TargetLat: 2, TargetLon: 4}, shard.NewMemSink())
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset("missing-var", raw)
	if _, err := p.Run(ds); err == nil {
		t.Fatal("want missing-variable error")
	}
}
