package domain

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/formats/bp"
	"repro/internal/formats/tfrecord"
	"repro/internal/loader"
	"repro/internal/shard"
)

func TestAllDomainsHavePlugins(t *testing.T) {
	if got := len(Plugins()); got != len(core.Domains()) {
		t.Fatalf("%d plugins for %d domains", got, len(core.Domains()))
	}
	kinds := map[string]bool{}
	for _, d := range core.Domains() {
		p, err := Lookup(d)
		if err != nil {
			t.Fatal(err)
		}
		if p.Codec.Kind() == "" {
			t.Fatalf("%s: empty wire kind", d)
		}
		kinds[p.Codec.Kind()] = true
	}
	for _, want := range []string{KindSamples, KindFusionWindows, KindMaterialsGraphs} {
		if !kinds[want] {
			t.Fatalf("no plugin serves kind %q", want)
		}
	}
	t.Run("descriptions", func(t *testing.T) {
		for _, p := range Plugins() {
			if p.Description == "" {
				t.Fatalf("%s: empty description", p.Domain)
			}
		}
	})
	t.Run("sorted", func(t *testing.T) {
		plugs := Plugins()
		for i := 1; i < len(plugs); i++ {
			if plugs[i-1].Domain >= plugs[i].Domain {
				t.Fatalf("catalog not sorted: %v before %v", plugs[i-1].Domain, plugs[i].Domain)
			}
		}
	})
	t.Run("unknown", func(t *testing.T) {
		if _, err := Lookup(core.Domain("astro")); err == nil {
			t.Fatal("want not-found error")
		}
	})
	t.Run("register_validation", func(t *testing.T) {
		if err := Register(Plugin{}); err == nil {
			t.Fatal("empty plugin registered")
		}
		if err := Register(Plugin{Domain: "astro"}); err == nil {
			t.Fatal("incomplete plugin registered")
		}
		if _, err := Lookup(core.Domain("astro")); err == nil {
			t.Fatal("rejected plugin is in the catalog")
		}
	})
	// E7 through the catalog: every plugin's pipeline is its domain's
	// archetype and walks ingest→…→shard.
	t.Run("archetype_stages", func(t *testing.T) {
		for _, p := range Plugins() {
			run, err := p.Build(Spec{Domain: p.Domain}, shard.NewMemSink())
			if err != nil {
				t.Fatalf("%s: %v", p.Domain, err)
			}
			if name := run.Pipeline.Name(); !strings.HasSuffix(name, "-archetype") {
				t.Fatalf("%s: pipeline %q", p.Domain, name)
			}
			kinds := run.Pipeline.StageKinds()
			if kinds[0] != core.Ingest || kinds[len(kinds)-1] != core.Shard {
				t.Fatalf("%s kinds=%v", p.Domain, kinds)
			}
		}
	})
	// A spec that names only its domain builds that domain's default
	// archetype pipeline.
	defaultName := func(t *testing.T, d core.Domain) string {
		t.Helper()
		p, err := Lookup(d)
		if err != nil {
			t.Fatal(err)
		}
		run, err := p.Build(Spec{Domain: d}, shard.NewMemSink())
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		return run.Pipeline.Name()
	}
	t.Run("climate_default", func(t *testing.T) {
		if name := defaultName(t, core.Climate); name != "climate-archetype" {
			t.Fatalf("name=%q", name)
		}
	})
	t.Run("fusion_materials_defaults", func(t *testing.T) {
		for d, want := range map[core.Domain]string{
			core.Fusion:    "fusion-archetype",
			core.Materials: "materials-archetype",
		} {
			if name := defaultName(t, d); name != want {
				t.Fatalf("%s name=%q, want %q", d, name, want)
			}
		}
	})
}

// TestConcurrentPluginAccess races re-registration of the catalog's own
// plugins against lookups and listings, the way draid reads the catalog
// under parallel requests. Run with -race. It registers nothing new, so
// the catalog other tests see is unchanged.
func TestConcurrentPluginAccess(t *testing.T) {
	const workers, rounds = 8, 50
	plugs := Plugins()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p := plugs[(w+r)%len(plugs)]
				if err := Register(p); err != nil {
					errs <- err
					return
				}
				if got, err := Lookup(p.Domain); err != nil || got.Description != p.Description {
					errs <- fmt.Errorf("round %d: lookup %s: %v", r, p.Domain, err)
					return
				}
				if got := len(Plugins()); got != len(plugs) {
					errs <- fmt.Errorf("round %d: %d plugins, want %d", r, got, len(plugs))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Domain: core.Climate, Months: 24}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Spec{
		{Months: maxMonths + 1}, {Lat: -1}, {Shots: maxShots + 1},
		{Subjects: maxSubjects + 1}, {SeqLen: -2}, {Structures: maxStructures + 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("spec %+v accepted", bad)
		}
	}
}

// TestSampleCodecRoundTrip: encode → decode → batch line reproduces the
// samples and keeps the legacy top-level features/labels layout.
func TestSampleCodecRoundTrip(t *testing.T) {
	c := sampleCodec{}
	samples := []*loader.Sample{
		{Features: []float32{1.5, -2.25, 0}, Label: 3},
		{Features: []float32{0.125}, Label: -1},
	}
	var recs []any
	for _, s := range samples {
		r, bytes, err := c.Decode(s.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if bytes != int64(len(s.Encode())) {
			t.Fatalf("size %d", bytes)
		}
		if !reflect.DeepEqual(r, s) {
			t.Fatalf("decode %+v != %+v", r, s)
		}
		recs = append(recs, r)
	}
	line, err := c.Line(BatchHeader{Batch: 2, Cursor: "1:0", Kind: c.Kind()}, recs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Batch    int         `json:"batch"`
		Cursor   string      `json:"cursor"`
		Kind     string      `json:"kind"`
		Features [][]float32 `json:"features"`
		Labels   []int32     `json:"labels"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Kind != KindSamples || wire.Cursor != "1:0" || wire.Batch != 2 {
		t.Fatalf("header %+v", wire)
	}
	for i, s := range samples {
		if !reflect.DeepEqual(wire.Features[i], s.Features) || wire.Labels[i] != s.Label {
			t.Fatalf("sample %d differs on the wire", i)
		}
	}
}

// fusionExample builds a marshaled tf.train.Example the way the fusion
// shard stage does.
func fusionExample(signal []float32, shot, start, label int64, horizon float32) []byte {
	ex := tfrecord.NewExample()
	ex.Features["signal"] = tfrecord.Feature{Floats: signal}
	ex.Features["shot"] = tfrecord.Feature{Ints: []int64{shot}}
	ex.Features["start"] = tfrecord.Feature{Ints: []int64{start}}
	ex.Features["label"] = tfrecord.Feature{Ints: []int64{label}}
	ex.Features["horizon"] = tfrecord.Feature{Floats: []float32{horizon}}
	return ex.Marshal()
}

func TestFusionCodecRoundTrip(t *testing.T) {
	c := fusionCodec{}
	rec := fusionExample([]float32{0.5, -1, 2.75}, 42, 25, 1, 0.3)
	r, size, err := c.Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatalf("size %d", size)
	}
	w := r.(*FusionWindow)
	want := &FusionWindow{Signal: []float32{0.5, -1, 2.75}, Shot: 42, Start: 25, Label: 1, Horizon: 0.3}
	if !reflect.DeepEqual(w, want) {
		t.Fatalf("decoded %+v, want %+v", w, want)
	}
	line, err := c.Line(BatchHeader{Kind: c.Kind()}, []any{w})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(line)
	var wire struct {
		Kind     string      `json:"kind"`
		Labels   []int64     `json:"labels"`
		Signals  [][]float32 `json:"signals"`
		Shots    []int64     `json:"shots"`
		Starts   []int64     `json:"starts"`
		Horizons []float32   `json:"horizons"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Shots[0] != 42 || wire.Starts[0] != 25 || wire.Labels[0] != 1 ||
		wire.Horizons[0] != 0.3 || !reflect.DeepEqual(wire.Signals[0], want.Signal) {
		t.Fatalf("wire %+v", wire)
	}

	// A record without signal floats is not a fusion window.
	ex := tfrecord.NewExample()
	ex.Features["label"] = tfrecord.Feature{Ints: []int64{1}}
	if _, _, err := c.Decode(ex.Marshal()); err == nil {
		t.Fatal("signal-less record accepted")
	}

	// shot/label are mandatory (their absence means corruption, and a
	// defaulted label=0 would mis-serve disruption ground truth); a
	// pre-plugin record lacking only start/horizon still decodes with
	// zero defaults.
	for _, drop := range []string{"shot", "label"} {
		ex := tfrecord.NewExample()
		ex.Features["signal"] = tfrecord.Feature{Floats: []float32{1}}
		for _, k := range []string{"shot", "label"} {
			if k != drop {
				ex.Features[k] = tfrecord.Feature{Ints: []int64{1}}
			}
		}
		if _, _, err := c.Decode(ex.Marshal()); err == nil {
			t.Fatalf("record without %q accepted", drop)
		}
	}
	old := tfrecord.NewExample()
	old.Features["signal"] = tfrecord.Feature{Floats: []float32{1, 2}}
	old.Features["shot"] = tfrecord.Feature{Ints: []int64{7}}
	old.Features["label"] = tfrecord.Feature{Ints: []int64{1}}
	r2, _, err := c.Decode(old.Marshal())
	if err != nil {
		t.Fatalf("pre-plugin record rejected: %v", err)
	}
	if w := r2.(*FusionWindow); w.Start != 0 || w.Horizon != 0 || w.Shot != 7 || w.Label != 1 {
		t.Fatalf("pre-plugin record decoded as %+v", w)
	}
}

// materialsRecord builds one PG payload the way the materials shard
// stage does.
func materialsRecord(t *testing.T, nodes, dim int, edges [][2]int, energy float64, class int) []byte {
	t.Helper()
	nf := make([]float64, nodes*dim)
	for i := range nf {
		nf[i] = float64(i) / 2
	}
	ed := make([]float64, 0, len(edges)*2)
	lengths := make([]float64, len(edges))
	for i, e := range edges {
		ed = append(ed, float64(e[0]), float64(e[1]))
		lengths[i] = 1.5 + float64(i)
	}
	payload, _, err := bp.MarshalPG(0, 0, []bp.Variable{
		{Name: "node_features", Shape: []int{nodes, dim}, Data: nf},
		{Name: "edges", Shape: []int{len(edges), 2}, Data: ed},
		{Name: "edge_lengths", Shape: []int{len(edges)}, Data: lengths},
		{Name: "energy", Shape: []int{1}, Data: []float64{energy}},
		{Name: "class_id", Shape: []int{1}, Data: []float64{float64(class)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestMaterialsCodecRoundTrip(t *testing.T) {
	c := materialsCodec{}
	rec := materialsRecord(t, 3, 2, [][2]int{{0, 1}, {1, 2}}, -7.25, 1)
	r, size, err := c.Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatalf("size %d", size)
	}
	g := r.(*WireGraph)
	if g.Nodes != 3 || g.FeatureDim != 2 || len(g.NodeFeatures) != 6 ||
		!reflect.DeepEqual(g.Edges, []int64{0, 1, 1, 2}) ||
		len(g.EdgeLengths) != 2 || g.Energy != -7.25 || g.ClassID != 1 {
		t.Fatalf("decoded %+v", g)
	}
	line, err := c.Line(BatchHeader{Kind: c.Kind()}, []any{g})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(line)
	var wire struct {
		Kind   string       `json:"kind"`
		Graphs []*WireGraph `json:"graphs"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Graphs) != 1 || !reflect.DeepEqual(wire.Graphs[0], g) {
		t.Fatalf("wire %+v", wire)
	}

	// A PG without the graph layout must be rejected, not mis-served.
	payload, _, err := bp.MarshalPG(0, 0, []bp.Variable{
		{Name: "other", Shape: []int{1}, Data: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Decode(payload); err == nil {
		t.Fatal("non-graph PG accepted")
	}
}

// TestMaterialsCodecRejectsInconsistentShapes: shapes come off the wire
// (the PG checksum only covers data bytes), so shape/data mismatches
// must be rejected — clients index node_features[n*feature_dim+f] by
// the documented contract.
func TestMaterialsCodecRejectsInconsistentShapes(t *testing.T) {
	c := materialsCodec{}
	mk := func(mutate func(vars []bp.Variable)) []byte {
		vars := []bp.Variable{
			{Name: "node_features", Shape: []int{2, 2}, Data: []float64{1, 2, 3, 4}},
			{Name: "edges", Shape: []int{1, 2}, Data: []float64{0, 1}},
			{Name: "edge_lengths", Shape: []int{1}, Data: []float64{1.5}},
			{Name: "energy", Shape: []int{1}, Data: []float64{-1}},
			{Name: "class_id", Shape: []int{1}, Data: []float64{0}},
		}
		mutate(vars)
		// Marshal validates shape×data itself, so inconsistent records
		// are assembled via a raw re-marshal of consistent pieces with
		// lying shapes: build each variable alone and splice the data of
		// another. Easier: marshal with the mutated (still self-
		// consistent) variables — the lie is between variables.
		payload, _, err := bp.MarshalPG(0, 0, vars)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	// node_features claims [2,2] but edges/edge_lengths disagree.
	bad := mk(func(vars []bp.Variable) {
		vars[2] = bp.Variable{Name: "edge_lengths", Shape: []int{2}, Data: []float64{1, 2}}
	})
	if _, _, err := c.Decode(bad); err == nil {
		t.Fatal("edge_lengths/edges mismatch accepted")
	}
	// A consistent record still decodes.
	if _, _, err := c.Decode(mk(func([]bp.Variable) {})); err != nil {
		t.Fatal(err)
	}

	// A within-variable lie: patch node_features' first dim to 1000 in
	// the serialized payload (the per-variable CRC covers only the data
	// bytes, so the checksum still passes). Decode must reject rather
	// than hand clients a [1000,2] header over 4 floats.
	lying := mk(func([]bp.Variable) {})
	// Layout: PG header 12 + name len 2 + "node_features" 13 = offset 27
	// is ndims, dims start at 28.
	binary.LittleEndian.PutUint64(lying[28:], 1000)
	if _, _, err := c.Decode(lying); err == nil {
		t.Fatal("shape/data mismatch within node_features accepted")
	}
}

// TestCodecsRejectForeignRecords: each codec must refuse the others'
// records instead of serving garbage.
func TestCodecsRejectForeignRecords(t *testing.T) {
	sample := (&loader.Sample{Features: []float32{1}, Label: 0}).Encode()
	graph := materialsRecord(t, 2, 1, [][2]int{{0, 1}}, 0, 0)
	if _, _, err := (materialsCodec{}).Decode(sample); err == nil {
		t.Fatal("materials codec accepted a loader sample")
	}
	if _, _, err := (sampleCodec{}).Decode(graph); err == nil {
		t.Fatal("sample codec accepted a PG payload")
	}
	if _, ok := func() (any, bool) {
		r, _, err := (fusionCodec{}).Decode(sample)
		return r, err == nil
	}(); ok {
		t.Fatal("fusion codec accepted a loader sample")
	}
}

// TestPluginHelpers: the key alone decides sealing. With no key every
// plugin's opener and sink are the store's own; with one, every
// plugin's are the sealing pair, and stored names carry the sealed
// suffix.
func TestPluginHelpers(t *testing.T) {
	sink := shard.NewMemSink()
	for _, p := range Plugins() {
		if got := p.StoredName("s-00000", true); got != "s-00000"+bio.SealedSuffix {
			t.Fatalf("%s: sealed name %q", p.Domain, got)
		}
		if got := p.StoredName("s-00000", false); got != "s-00000" {
			t.Fatalf("%s: plain name %q", p.Domain, got)
		}
		if p.Opener(sink, nil) != shard.Opener(sink) || p.Sink(sink, nil) != shard.Sink(sink) {
			t.Fatalf("%s: keyless opener or sink is wrapped", p.Domain)
		}
		if _, ok := p.Opener(sink, []byte("k")).(decryptOpener); !ok {
			t.Fatalf("%s: keyed opener does not unseal", p.Domain)
		}
		if _, ok := p.Sink(sink, []byte("k")).(bio.SealingSink); !ok {
			t.Fatalf("%s: keyed sink does not seal", p.Domain)
		}
	}
}

// FuzzFusionCodecDecode hardens the TFRecord-Example decode path against
// hostile shard bytes: it must never panic, and whatever it accepts must
// re-encode through the line builder.
func FuzzFusionCodecDecode(f *testing.F) {
	f.Add(fusionExample([]float32{1, 2}, 1, 0, 1, 0.3))
	f.Add([]byte{})
	f.Add([]byte{0x0a, 0x00})
	f.Fuzz(func(t *testing.T, rec []byte) {
		c := fusionCodec{}
		r, size, err := c.Decode(rec)
		if err != nil {
			return
		}
		if size <= 0 {
			t.Fatalf("accepted record with size %d", size)
		}
		if _, err := c.Line(BatchHeader{Kind: c.Kind()}, []any{r}); err != nil {
			t.Fatalf("decoded record fails line building: %v", err)
		}
	})
}

// FuzzMaterialsCodecDecode does the same for the BP process-group path.
func FuzzMaterialsCodecDecode(f *testing.F) {
	valid, _, _ := bp.MarshalPG(0, 0, []bp.Variable{
		{Name: "node_features", Shape: []int{1, 1}, Data: []float64{1}},
		{Name: "edges", Shape: []int{0, 2}, Data: nil},
		{Name: "edge_lengths", Shape: []int{0}, Data: nil},
		{Name: "energy", Shape: []int{1}, Data: []float64{-1}},
		{Name: "class_id", Shape: []int{1}, Data: []float64{0}},
	})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, rec []byte) {
		c := materialsCodec{}
		r, size, err := c.Decode(rec)
		if err != nil {
			return
		}
		if size <= 0 {
			t.Fatalf("accepted record with size %d", size)
		}
		if _, err := c.Line(BatchHeader{Kind: c.Kind()}, []any{r}); err != nil {
			t.Fatalf("decoded record fails line building: %v", err)
		}
	})
}
