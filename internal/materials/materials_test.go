package materials

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/formats/bp"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

func TestSynthesize(t *testing.T) {
	structs, err := Synthesize(SynthConfig{Structures: 30, MinAtoms: 4, MaxAtoms: 10, ImbalanceRatio: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(structs) != 30 {
		t.Fatalf("n=%d", len(structs))
	}
	for _, s := range structs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.NumAtoms() < 4 || s.NumAtoms() > 10 {
			t.Fatalf("%s atoms=%d", s.ID, s.NumAtoms())
		}
		// Energy roughly extensive: more negative with more atoms.
		if s.Energy >= 0 {
			t.Fatalf("%s energy=%v", s.ID, s.Energy)
		}
	}
	counts := ClassCounts(structs)
	if counts["metal"] <= counts["insulator"] {
		t.Fatalf("imbalance not realized: %v", counts)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(SynthConfig{Structures: 0, MinAtoms: 1, MaxAtoms: 2, ImbalanceRatio: 1}); err == nil {
		t.Fatal("want structures error")
	}
	if _, err := Synthesize(SynthConfig{Structures: 1, MinAtoms: 5, MaxAtoms: 2, ImbalanceRatio: 1}); err == nil {
		t.Fatal("want atom-range error")
	}
	if _, err := Synthesize(SynthConfig{Structures: 1, MinAtoms: 1, MaxAtoms: 2, ImbalanceRatio: 0.5}); err == nil {
		t.Fatal("want imbalance error")
	}
}

func TestValidate(t *testing.T) {
	bad := &Structure{ID: "x", Lattice: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("want lattice error")
	}
	bad2 := &Structure{ID: "x", Lattice: 5, Species: []string{"Fe"}, Frac: [][3]float64{{1.5, 0, 0}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("want coord error")
	}
	bad3 := &Structure{ID: "x", Lattice: 5, Species: []string{"Fe", "O"}, Frac: [][3]float64{{0, 0, 0}}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("want count error")
	}
	bad4 := &Structure{ID: "x", Lattice: 5, Species: []string{"Fe"}, Frac: [][3]float64{{0, 0, 0}},
		Forces: [][3]float64{{0, 0, 0}, {0, 0, 0}}}
	if err := bad4.Validate(); err == nil {
		t.Fatal("want forces error")
	}
}

func TestPOSCARRoundTrip(t *testing.T) {
	structs, _ := Synthesize(SynthConfig{Structures: 5, MinAtoms: 4, MaxAtoms: 8, ImbalanceRatio: 2, Seed: 2})
	for _, s := range structs {
		text := s.ToPOSCAR()
		got, err := ParsePOSCAR(text)
		if err != nil {
			t.Fatalf("%s: %v\n%s", s.ID, err, text)
		}
		if got.ID != s.ID || got.Class != s.Class {
			t.Fatalf("id/class: %s/%s vs %s/%s", got.ID, got.Class, s.ID, s.Class)
		}
		if math.Abs(got.Energy-s.Energy) > 1e-5 {
			t.Fatalf("energy %v vs %v", got.Energy, s.Energy)
		}
		if math.Abs(got.Lattice-s.Lattice) > 1e-5 {
			t.Fatalf("lattice %v vs %v", got.Lattice, s.Lattice)
		}
		if got.NumAtoms() != s.NumAtoms() {
			t.Fatalf("atoms %d vs %d", got.NumAtoms(), s.NumAtoms())
		}
		// Species multiset preserved (POSCAR groups by species).
		want := map[string]int{}
		for _, sp := range s.Species {
			want[sp]++
		}
		for _, sp := range got.Species {
			want[sp]--
		}
		for sp, n := range want {
			if n != 0 {
				t.Fatalf("species %s count off by %d", sp, n)
			}
		}
	}
}

func TestParsePOSCARErrors(t *testing.T) {
	cases := []string{
		"",                  // empty
		"hdr\nnotanumber\n", // bad scale
		"hdr\n1.0\n1 0\n",   // short lattice row
		"hdr\n1.0\n5 0 0\n0 5 0\n0 0 5\nFe\n2 3\nDirect\n",         // counts mismatch
		"hdr\n1.0\n5 1 0\n0 5 0\n0 0 5\nFe\n1\nDirect\n0 0 0\n",    // non-cubic
		"hdr\n1.0\n5 0 0\n0 5 0\n0 0 5\nFe\n1\nCartesian\n0 0 0\n", // mode
		"hdr\n1.0\n5 0 0\n0 5 0\n0 0 5\nFe\n2\nDirect\n0 0 0\n",    // missing atom
	}
	for i, c := range cases {
		if _, err := ParsePOSCAR(c); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestMinImageDist(t *testing.T) {
	// Atoms at 0.05 and 0.95: wrapped distance is 0.1*a, not 0.9*a.
	d := minImageDist([3]float64{0.05, 0, 0}, [3]float64{0.95, 0, 0}, 10)
	if math.Abs(d-1.0) > 1e-12 {
		t.Fatalf("d=%v", d)
	}
	same := minImageDist([3]float64{0.3, 0.3, 0.3}, [3]float64{0.3, 0.3, 0.3}, 10)
	if same != 0 {
		t.Fatalf("self distance=%v", same)
	}
}

func TestBuildGraph(t *testing.T) {
	s := &Structure{
		ID: "dimer", Lattice: 10, Class: "metal", Energy: -8,
		Species: []string{"Fe", "Cu", "O"},
		Frac: [][3]float64{
			{0.0, 0, 0},
			{0.2, 0, 0},     // 2 A from atom 0
			{0.5, 0.5, 0.5}, // far from both
		},
	}
	g, err := BuildGraph(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes=%d", g.NumNodes())
	}
	if g.NumEdges() != 1 || g.Edges[0] != [2]int{0, 1} {
		t.Fatalf("edges=%v", g.Edges)
	}
	if math.Abs(g.EdgeLengths[0]-2) > 1e-12 {
		t.Fatalf("length=%v", g.EdgeLengths[0])
	}
	if g.NodeFeatures[0][0] != 26 { // Fe
		t.Fatalf("Z=%v", g.NodeFeatures[0][0])
	}
}

func TestBuildGraphPeriodicEdge(t *testing.T) {
	s := &Structure{
		ID: "wrap", Lattice: 10, Species: []string{"Si", "Si"},
		Frac: [][3]float64{{0.02, 0, 0}, {0.98, 0, 0}},
	}
	g, err := BuildGraph(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("periodic edge missed: %v", g.Edges)
	}
	if math.Abs(g.EdgeLengths[0]-0.4) > 1e-9 {
		t.Fatalf("wrapped length=%v", g.EdgeLengths[0])
	}
}

func TestBuildGraphErrors(t *testing.T) {
	s := &Structure{ID: "x", Lattice: 10, Species: []string{"Fe"}, Frac: [][3]float64{{0, 0, 0}}}
	if _, err := BuildGraph(s, 0); err == nil {
		t.Fatal("want cutoff error")
	}
	if _, err := BuildGraph(s, 6); err == nil {
		t.Fatal("want half-cell error")
	}
}

func TestDescriptorNormalization(t *testing.T) {
	structs, _ := Synthesize(SynthConfig{Structures: 20, MinAtoms: 6, MaxAtoms: 12, ImbalanceRatio: 1, Seed: 3})
	graphs := make([]*Graph, len(structs))
	for i, s := range structs {
		cutoff := math.Min(4, s.Lattice/2)
		g, err := BuildGraph(s, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	st, err := ComputeDescriptorStats(graphs)
	if err != nil {
		t.Fatal(err)
	}
	if st.StdZ <= 0 || st.StdDeg <= 0 {
		t.Fatalf("stats=%+v", st)
	}
	for _, g := range graphs {
		NormalizeDescriptors(g, st)
	}
	// Post-normalization: Z feature has ~0 mean across all nodes.
	sum, n := 0.0, 0
	for _, g := range graphs {
		for _, f := range g.NodeFeatures {
			if len(f) != 2 {
				t.Fatalf("feature dims=%d, want 2 (Z + degree)", len(f))
			}
			sum += f[0]
			n++
		}
	}
	if math.Abs(sum/float64(n)) > 1e-9 {
		t.Fatalf("normalized Z mean=%v", sum/float64(n))
	}
}

func TestComputeDescriptorStatsEmpty(t *testing.T) {
	if _, err := ComputeDescriptorStats(nil); err == nil {
		t.Fatal("want empty error")
	}
}

func TestFlatten(t *testing.T) {
	g := &Graph{
		StructID:     "x",
		NodeFeatures: [][]float64{{1, 2}, {3, 4}},
		Edges:        [][2]int{{0, 1}},
		EdgeLengths:  []float64{2.5},
		Energy:       -7,
		Class:        "metal",
	}
	names, shapes, data := g.Flatten(map[string]int{"metal": 1})
	if len(names) != 5 {
		t.Fatalf("names=%v", names)
	}
	if shapes[0][0] != 2 || shapes[0][1] != 2 {
		t.Fatalf("node shape=%v", shapes[0])
	}
	if data[0][3] != 4 {
		t.Fatalf("node data=%v", data[0])
	}
	if data[1][0] != 0 || data[1][1] != 1 {
		t.Fatalf("edges=%v", data[1])
	}
	if data[4][0] != 1 {
		t.Fatalf("class id=%v", data[4])
	}
}

// TestPipelineEndToEnd runs the full Table 1 materials workflow.
func TestPipelineEndToEnd(t *testing.T) {
	structs, err := Synthesize(SynthConfig{Structures: 40, MinAtoms: 4, MaxAtoms: 12, ImbalanceRatio: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	poscars := make([]string, len(structs))
	for i, s := range structs {
		poscars[i] = s.ToPOSCAR()
	}
	sink := shard.NewMemSink()
	p, err := NewPipeline(DefaultConfig(), sink)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset("omat-mini", poscars)
	snaps, err := p.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.VerifyMonotone(snaps); err != nil {
		t.Fatal(err)
	}
	final := snaps[len(snaps)-1].Assessment
	if final.Level != core.AIReady {
		t.Fatalf("level=%v gaps=%v", final.Level, final.Gaps)
	}
	prod := ds.Payload.(*Product)
	if len(prod.Graphs) != 40 {
		t.Fatalf("graphs=%d", len(prod.Graphs))
	}
	if prod.Imbalance <= 1 {
		t.Fatalf("imbalance=%v, expected skew preserved", prod.Imbalance)
	}

	// The BP export decodes and holds one PG per train graph.
	container, err := ExportBP(prod)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bp.Open(container)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.PGs()) != len(prod.Split.Train) {
		t.Fatalf("pgs=%d train=%d", len(f.PGs()), len(prod.Split.Train))
	}
	_, _, vars, err := f.ReadPG(0)
	if err != nil {
		t.Fatal(err)
	}
	varNames := map[string]bool{}
	for _, v := range vars {
		varNames[v.Name] = true
	}
	for _, want := range []string{"node_features", "edges", "edge_lengths", "energy", "class_id"} {
		if !varNames[want] {
			t.Fatalf("missing variable %q in PG", want)
		}
	}

	// The durable shard set mirrors the export: one self-describing PG
	// record per train graph, replayable through the verifying reader.
	if prod.Manifest == nil {
		t.Fatal("no shard manifest on product")
	}
	if got := prod.Manifest.TotalRecords(); got != len(prod.Split.Train) {
		t.Fatalf("shard records=%d train=%d", got, len(prod.Split.Train))
	}
	if len(prod.Manifest.Shards) < 2 {
		t.Fatalf("train split packed into %d shard(s); want rotation", len(prod.Manifest.Shards))
	}
	records := 0
	if err := shard.ReadAll(sink, prod.Manifest, func(_ string, rec []byte) error {
		rank, step, vars, err := bp.UnmarshalPG(rec)
		if err != nil {
			return err
		}
		if len(vars) != 5 {
			return fmt.Errorf("record %d: %d vars", records, len(vars))
		}
		wantRank, wantStep, wantVars, err := f.ReadPG(records)
		if err != nil {
			return err
		}
		if rank != wantRank || step != wantStep || !reflect.DeepEqual(vars, wantVars) {
			return fmt.Errorf("record %d: PG (rank %d, step %d) differs from the export's (rank %d, step %d)",
				records, rank, step, wantRank, wantStep)
		}
		records++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if records != len(prod.Split.Train) {
		t.Fatalf("streamed %d shard records, want %d", records, len(prod.Split.Train))
	}
}

func TestPipelineConfigErrors(t *testing.T) {
	if _, err := NewPipeline(Config{Cutoff: 0, Ranks: 1}, shard.NewMemSink()); err == nil {
		t.Fatal("want cutoff error")
	}
	if _, err := NewPipeline(Config{Cutoff: 1, Ranks: 0}, shard.NewMemSink()); err == nil {
		t.Fatal("want ranks error")
	}
	if _, err := NewPipeline(DefaultConfig(), nil); err == nil {
		t.Fatal("want nil-sink error")
	}
}

func TestExportBPErrors(t *testing.T) {
	if _, err := ExportBP(&Product{}); err == nil {
		t.Fatal("want error exporting an unsharded product")
	}
}

func TestPipelineNoInputs(t *testing.T) {
	p, err := NewPipeline(DefaultConfig(), shard.NewMemSink())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(NewDataset("empty", nil)); err == nil {
		t.Fatal("want no-input error")
	}
}

func TestPipelineBadPOSCAR(t *testing.T) {
	p, err := NewPipeline(DefaultConfig(), shard.NewMemSink())
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset("bad", []string{"not a poscar"})
	if _, err := p.Run(ds); err == nil {
		t.Fatal("want parse error")
	}
}

// Property: graph edges are symmetric under atom reordering of the
// distance computation, and all edge lengths respect the cutoff.
func TestGraphCutoffProperty(t *testing.T) {
	f := func(seed int64) bool {
		structs, err := Synthesize(SynthConfig{Structures: 1, MinAtoms: 3, MaxAtoms: 10, ImbalanceRatio: 1, Seed: seed})
		if err != nil {
			return false
		}
		s := structs[0]
		cutoff := math.Min(4, s.Lattice/2)
		g, err := BuildGraph(s, cutoff)
		if err != nil {
			return false
		}
		for k, e := range g.Edges {
			if e[0] >= e[1] {
				return false // canonical i<j ordering
			}
			if g.EdgeLengths[k] > cutoff || g.EdgeLengths[k] < 0 {
				return false
			}
			// Distance symmetric.
			d1 := minImageDist(s.Frac[e[0]], s.Frac[e[1]], s.Lattice)
			d2 := minImageDist(s.Frac[e[1]], s.Frac[e[0]], s.Lattice)
			if math.Abs(d1-d2) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: POSCAR round-trip preserves atom count and energy for any
// generated structure.
func TestPOSCARRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		structs, err := Synthesize(SynthConfig{Structures: 1, MinAtoms: 2, MaxAtoms: 8, ImbalanceRatio: 1, Seed: seed})
		if err != nil {
			return false
		}
		s := structs[0]
		got, err := ParsePOSCAR(s.ToPOSCAR())
		if err != nil {
			return false
		}
		return got.NumAtoms() == s.NumAtoms() &&
			math.Abs(got.Energy-s.Energy) < 1e-5 &&
			got.Class == s.Class
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicNumber(t *testing.T) {
	if AtomicNumber("Fe") != 26 || AtomicNumber("Xx") != 0 {
		t.Fatal("atomic numbers")
	}
}

func TestSortedClasses(t *testing.T) {
	structs := []*Structure{{Class: "b"}, {Class: "a"}, {Class: "b"}}
	got := SortedClasses(structs)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("classes=%v", got)
	}
	if !strings.Contains(strings.Join(got, ","), "a") {
		t.Fatal("missing class")
	}
}

func BenchmarkBuildGraph(b *testing.B) {
	structs, err := Synthesize(SynthConfig{Structures: 1, MinAtoms: 60, MaxAtoms: 64, ImbalanceRatio: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := structs[0]
	cutoff := math.Min(4, s.Lattice/2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildGraph(s, cutoff); err != nil {
			b.Fatal(err)
		}
	}
}
