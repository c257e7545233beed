package fusion

import (
	"io"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/formats/tfrecord"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

func TestSignalValidate(t *testing.T) {
	ok := &Signal{Name: "ip", Times: []float64{0, 1, 2}, Data: []float64{1, 2, 3}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Signal{Name: "ip", Times: []float64{0, 1}, Data: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("want length error")
	}
	nonMono := &Signal{Name: "ip", Times: []float64{0, 2, 1}, Data: []float64{1, 2, 3}}
	if err := nonMono.Validate(); err == nil {
		t.Fatal("want monotonicity error")
	}
}

func TestStorePutGet(t *testing.T) {
	st := NewStore()
	shot := &Shot{Number: 1, Signals: map[string]*Signal{
		"ip": {Name: "ip", Times: []float64{0, 1}, Data: []float64{1, 2}},
	}}
	if err := st.Put(shot); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(shot); err == nil {
		t.Fatal("want duplicate error")
	}
	if err := st.Put(nil); err == nil {
		t.Fatal("want nil error")
	}
	got, err := st.Get(1)
	if err != nil || got.Number != 1 {
		t.Fatalf("got=%+v err=%v", got, err)
	}
	if _, err := st.Get(99); err == nil {
		t.Fatal("want not-found error")
	}
	sig, err := st.GetSignal(1, "ip")
	if err != nil || sig.Data[1] != 2 {
		t.Fatalf("sig=%+v err=%v", sig, err)
	}
	if _, err := st.GetSignal(1, "nope"); err == nil {
		t.Fatal("want signal-not-found error")
	}
}

func TestResampleLinear(t *testing.T) {
	sig := &Signal{Name: "x", Times: []float64{0, 1, 2}, Data: []float64{0, 10, 20}}
	out, err := sig.Resample(0, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 5, 10, 15}
	if len(out) != 4 {
		t.Fatalf("len=%d", len(out))
	}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("out=%v", out)
		}
	}
}

func TestResampleBridgesDropouts(t *testing.T) {
	sig := &Signal{Name: "x", Times: []float64{0, 1, 2, 3}, Data: []float64{0, math.NaN(), math.NaN(), 30}}
	out, err := sig.Resample(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Valid points are (0,0) and (3,30): interpolate across the gap.
	if out[1] != 10 || out[2] != 20 {
		t.Fatalf("out=%v", out)
	}
}

func TestResampleEdgeClamp(t *testing.T) {
	sig := &Signal{Name: "x", Times: []float64{1, 2}, Data: []float64{5, 6}}
	out, err := sig.Resample(0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 || out[3] != 6 {
		t.Fatalf("clamp: %v", out)
	}
}

func TestResampleAllNaN(t *testing.T) {
	sig := &Signal{Name: "x", Times: []float64{0, 1}, Data: []float64{math.NaN(), math.NaN()}}
	out, err := sig.Resample(0, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if !math.IsNaN(v) {
			t.Fatalf("out=%v", out)
		}
	}
}

func TestResampleErrors(t *testing.T) {
	sig := &Signal{Name: "x", Times: []float64{0}, Data: []float64{1}}
	if _, err := sig.Resample(0, 1, 0); err == nil {
		t.Fatal("want dt error")
	}
	if _, err := sig.Resample(1, 1, 0.1); err == nil {
		t.Fatal("want window error")
	}
}

func TestSynthesizeCampaign(t *testing.T) {
	st, err := SynthesizeCampaign(SynthConfig{Shots: 10, DisruptionRate: 0.5, FlattopSeconds: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	shots := st.Shots()
	if len(shots) != 10 {
		t.Fatalf("shots=%d", len(shots))
	}
	disrupted := 0
	for _, n := range shots {
		s, _ := st.Get(n)
		if len(s.Signals) != 4 {
			t.Fatalf("shot %d has %d signals", n, len(s.Signals))
		}
		if s.Disrupted {
			disrupted++
			ip := s.Signals["ip"]
			// Current must collapse after disruption.
			last := ip.Data[len(ip.Data)-1]
			if !math.IsNaN(last) && last > 0.5 {
				t.Fatalf("shot %d: no current quench (ip end=%v)", n, last)
			}
		}
		for _, sig := range s.Signals {
			if err := sig.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if disrupted == 0 || disrupted == 10 {
		t.Fatalf("disrupted=%d, want mixed outcomes", disrupted)
	}
}

// TestSynthesizeCampaignDeterministic: one seed yields one campaign, bit
// for bit — NaN dropouts included, hence the comparison of float bits.
func TestSynthesizeCampaignDeterministic(t *testing.T) {
	cfg := SynthConfig{Shots: 6, DisruptionRate: 0.35, FlattopSeconds: 1, DropoutRate: 0.02, Seed: 1}
	a, err := SynthesizeCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthesizeCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for _, n := range a.Shots() {
		sa, _ := a.Get(n)
		sb, err := b.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Disrupted != sb.Disrupted || sa.TDisrupt != sb.TDisrupt {
			t.Fatalf("shot %d: disruption differs", n)
		}
		for name, ga := range sa.Signals {
			gb := sb.Signals[name]
			if gb == nil || !slices.Equal(bits(ga.Times), bits(gb.Times)) || !slices.Equal(bits(ga.Data), bits(gb.Data)) {
				t.Fatalf("shot %d channel %s differs between two runs of one seed", n, name)
			}
		}
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := SynthesizeCampaign(SynthConfig{Shots: 0}); err == nil {
		t.Fatal("want shots error")
	}
	if _, err := SynthesizeCampaign(SynthConfig{Shots: 1, DisruptionRate: 2, FlattopSeconds: 1}); err == nil {
		t.Fatal("want rate error")
	}
	if _, err := SynthesizeCampaign(SynthConfig{Shots: 1, FlattopSeconds: 0}); err == nil {
		t.Fatal("want flattop error")
	}
}

func TestAlignCommonSupport(t *testing.T) {
	st, _ := SynthesizeCampaign(SynthConfig{Shots: 2, FlattopSeconds: 1, Seed: 1})
	s, _ := st.Get(170000)
	a, err := Align(s, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Channels) != 4 {
		t.Fatalf("channels=%v", a.Channels)
	}
	// Sorted channel order.
	for i := 1; i < len(a.Channels); i++ {
		if a.Channels[i] < a.Channels[i-1] {
			t.Fatalf("channels unsorted: %v", a.Channels)
		}
	}
	n := a.Samples()
	for c, s := range a.Series {
		if len(s) != n {
			t.Fatalf("channel %d length %d != %d", c, len(s), n)
		}
	}
}

func TestAlignErrors(t *testing.T) {
	if _, err := Align(&Shot{Number: 1, Signals: map[string]*Signal{}}, 0.1); err == nil {
		t.Fatal("want no-signal error")
	}
	disjoint := &Shot{Number: 2, Signals: map[string]*Signal{
		"a": {Name: "a", Times: []float64{0, 1}, Data: []float64{1, 1}},
		"b": {Name: "b", Times: []float64{5, 6}, Data: []float64{1, 1}},
	}}
	if _, err := Align(disjoint, 0.1); err == nil {
		t.Fatal("want no-support error")
	}
}

func TestDerivative(t *testing.T) {
	// f(t) = 3t -> f' = 3 everywhere.
	xs := []float64{0, 3, 6, 9}
	d, err := Derivative(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range d {
		if math.Abs(v-3) > 1e-12 {
			t.Fatalf("d=%v", d)
		}
	}
	if _, err := Derivative([]float64{1}, 1); err == nil {
		t.Fatal("want length error")
	}
	if _, err := Derivative(xs, 0); err == nil {
		t.Fatal("want dt error")
	}
}

func TestAddDerivativeChannels(t *testing.T) {
	a := &AlignedShot{Dt: 0.5, Channels: []string{"ip"}, Series: [][]float64{{0, 1, 2}}}
	if err := a.AddDerivativeChannels(); err != nil {
		t.Fatal(err)
	}
	if len(a.Channels) != 2 || a.Channels[1] != "dip" {
		t.Fatalf("channels=%v", a.Channels)
	}
	if a.Series[1][1] != 2 { // (2-0)/(2*0.5)
		t.Fatalf("dip=%v", a.Series[1])
	}
}

func TestNormalizePerShot(t *testing.T) {
	a := &AlignedShot{Dt: 1, Channels: []string{"x", "const"},
		Series: [][]float64{{2, 4, 6}, {5, 5, 5}}}
	stats, err := a.NormalizePerShot()
	if err != nil {
		t.Fatal(err)
	}
	if stats[0][0] != 4 {
		t.Fatalf("mean=%v", stats[0][0])
	}
	mean := (a.Series[0][0] + a.Series[0][1] + a.Series[0][2]) / 3
	if math.Abs(mean) > 1e-12 {
		t.Fatalf("normalized mean=%v", mean)
	}
	// Constant channel: centered, not divided by zero.
	for _, v := range a.Series[1] {
		if v != 0 {
			t.Fatalf("const channel=%v", a.Series[1])
		}
	}
}

func TestNormalizeAllNaNChannel(t *testing.T) {
	a := &AlignedShot{Dt: 1, Channels: []string{"x"},
		Series: [][]float64{{math.NaN(), math.NaN()}}}
	if _, err := a.NormalizePerShot(); err == nil {
		t.Fatal("want all-NaN error")
	}
}

func TestWindowizeLabels(t *testing.T) {
	// 100 samples at dt=0.01 from T0=0; disruption at t=0.55.
	a := &AlignedShot{Dt: 0.01, T0: 0, Disrupted: true, TDisrupt: 0.55,
		Channels: []string{"x"}, Series: [][]float64{make([]float64, 100)}}
	ws, err := Windowize(a, 20, 10, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 9 {
		t.Fatalf("windows=%d", len(ws))
	}
	// Window ending at t=0.4 (start 20): 0.55 in (0.4, 0.6] -> label 1.
	labeled := map[int]int{}
	for _, w := range ws {
		labeled[w.Start] = w.Label
	}
	if labeled[20] != 1 {
		t.Fatalf("window@20 label=%d", labeled[20])
	}
	// Window ending at t=0.2 (start 0): 0.55 beyond horizon -> 0.
	if labeled[0] != 0 {
		t.Fatalf("window@0 label=%d", labeled[0])
	}
	// Feature vector is channel-major length.
	if len(ws[0].Features) != 20 {
		t.Fatalf("features=%d", len(ws[0].Features))
	}
}

func TestWindowizeShortShot(t *testing.T) {
	a := &AlignedShot{Dt: 1, Channels: []string{"x"}, Series: [][]float64{{1, 2}}}
	ws, err := Windowize(a, 10, 5, 1)
	if err != nil || ws != nil {
		t.Fatalf("ws=%v err=%v", ws, err)
	}
	if _, err := Windowize(a, 0, 5, 1); err == nil {
		t.Fatal("want length error")
	}
}

// TestPipelineEndToEnd runs the full Table 1 fusion workflow.
func TestPipelineEndToEnd(t *testing.T) {
	st, err := SynthesizeCampaign(SynthConfig{Shots: 12, DisruptionRate: 0.4, FlattopSeconds: 1.5, DropoutRate: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sink := shard.NewMemSink()
	p, err := NewPipeline(DefaultConfig(), sink)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset("campaign-2024", st)
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
	if len(prod.Aligned) != 12 {
		t.Fatalf("aligned=%d", len(prod.Aligned))
	}
	// Derivative channels doubled the channel count.
	if got := len(prod.Aligned[0].Channels); got != 8 {
		t.Fatalf("channels=%d", got)
	}
	if len(prod.Windows) == 0 {
		t.Fatal("no windows")
	}
	rate := DisruptionRate(prod.Windows)
	if rate <= 0 || rate >= 0.5 {
		t.Fatalf("disruption window rate=%v, want sparse positives", rate)
	}

	// Shot-level leakage check: train/val/test shots disjoint.
	part := map[int]string{}
	for _, i := range prod.Split.Train {
		part[prod.Windows[i].Shot] = "train"
	}
	for _, i := range prod.Split.Val {
		if part[prod.Windows[i].Shot] == "train" {
			t.Fatal("shot leaked between train and val")
		}
	}

	// TFRecords decode as tf.train.Examples.
	count := 0
	err = shard.ReadAll(sink, prod.Manifest, func(_ string, rec []byte) error {
		ex, err := tfrecord.Unmarshal(rec)
		if err != nil {
			return err
		}
		if len(ex.Features["signal"].Floats) != 8*50 {
			t.Fatalf("signal dims=%d", len(ex.Features["signal"].Floats))
		}
		if len(ex.Features["label"].Ints) != 1 {
			return io.ErrUnexpectedEOF
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(prod.Split.Train) {
		t.Fatalf("tfrecords=%d train=%d", count, len(prod.Split.Train))
	}
}

func TestPipelineConfigErrors(t *testing.T) {
	if _, err := NewPipeline(DefaultConfig(), nil); err == nil {
		t.Fatal("want nil-sink error")
	}
	bad := DefaultConfig()
	bad.Dt = 0
	if _, err := NewPipeline(bad, shard.NewMemSink()); err == nil {
		t.Fatal("want dt error")
	}
}

func TestPipelineEmptyStore(t *testing.T) {
	p, err := NewPipeline(DefaultConfig(), shard.NewMemSink())
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset("empty", NewStore())
	if _, err := p.Run(ds); err == nil {
		t.Fatal("want empty-campaign error")
	}
}

// Property: resampling a linear signal is exact for any uniform rate.
func TestResampleLinearProperty(t *testing.T) {
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		sig := &Signal{Name: "lin", Times: make([]float64, 50), Data: make([]float64, 50)}
		for i := range sig.Times {
			t := float64(i) * 0.1
			sig.Times[i] = t
			sig.Data[i] = a + b*t
		}
		out, err := sig.Resample(0, 4.9, 0.07)
		if err != nil {
			return false
		}
		for i, v := range out {
			t := float64(i) * 0.07
			want := a + b*t
			if math.Abs(v-want) > 1e-6*math.Max(1, math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAlign(b *testing.B) {
	st, err := SynthesizeCampaign(SynthConfig{Shots: 1, FlattopSeconds: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, _ := st.Get(170000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Align(s, 0.001); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowize(b *testing.B) {
	st, _ := SynthesizeCampaign(SynthConfig{Shots: 1, FlattopSeconds: 3, Seed: 1})
	s, _ := st.Get(170000)
	a, err := Align(s, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Windowize(a, 100, 50, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPipelineExportSciH5(t *testing.T) {
	st, err := SynthesizeCampaign(SynthConfig{Shots: 5, DisruptionRate: 0.4, FlattopSeconds: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sink := shard.NewMemSink()
	p, err := NewPipeline(DefaultConfig(), sink)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset("h5-campaign", st)
	if _, err := p.Run(ds); err != nil {
		t.Fatal(err)
	}
	prod := ds.Payload.(*Product)
	h5, err := ExportSciH5(prod.Aligned)
	if err != nil {
		t.Fatal(err)
	}
	if len(h5) == 0 {
		t.Fatal("no SciH5 artifact")
	}
	back, err := ImportSciH5(h5)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 5 {
		t.Fatalf("shots in container=%d", len(back))
	}
	// Channels include the derivative features added upstream.
	if len(back[0].Channels) != 8 {
		t.Fatalf("channels=%v", back[0].Channels)
	}
}
