package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("draid_things_total", "Things.", "kind")
	c.With("a").Inc()
	c.With("a").Add(2)
	c.With("b").Add(0.5)
	if got := c.With("a").Value(); got != 3 {
		t.Fatalf("counter a = %v, want 3", got)
	}
	g := r.Gauge1("draid_level", "Level.")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE draid_things_total counter",
		`draid_things_total{kind="a"} 3`,
		`draid_things_total{kind="b"} 0.5`,
		"draid_level 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative counter add")
		}
	}()
	NewRegistry().Counter1("draid_x_total", "x").Add(-1)
}

func TestRegisterSchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("draid_x_total", "x", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on schema mismatch")
		}
	}()
	r.Counter("draid_x_total", "x", "b")
}

func TestRegisterSameSchemaIsFetch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("draid_x_total", "x", "k")
	b := r.Counter("draid_x_total", "x", "k")
	a.With("v").Inc()
	if got := b.With("v").Value(); got != 1 {
		t.Fatalf("re-registration did not share state: %v", got)
	}
}

func TestHistogramExpositionIsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("draid_lat_seconds", "Latency.", []float64{0.01, 0.1, 1}, "op")
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.With("read").Observe(v)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`draid_lat_seconds_bucket{op="read",le="0.01"} 1`,
		`draid_lat_seconds_bucket{op="read",le="0.1"} 2`,
		`draid_lat_seconds_bucket{op="read",le="1"} 3`,
		`draid_lat_seconds_bucket{op="read",le="+Inf"} 4`,
		`draid_lat_seconds_count{op="read"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if got := h.With("read").Sum(); math.Abs(got-5.555) > 1e-9 {
		t.Errorf("sum = %v, want 5.555", got)
	}
}

// TestHistogramScrapeMidObserve: a scrape that lands after Observe has
// bumped a bucket counter, and before anything else it updates, must
// still be cumulative through +Inf and agree with _count.
func TestHistogramScrapeMidObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("draid_mid_seconds", "Mid.", []float64{0.1, 1}).With()
	h.Observe(0.05)
	h.counts[1].Add(1) // the bucket half of an Observe(0.5)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if _, err := ParseText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("scrape mid-Observe rejected: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		`draid_mid_seconds_bucket{le="1"} 2`,
		`draid_mid_seconds_bucket{le="+Inf"} 2`,
		`draid_mid_seconds_count 2`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	cases := map[string]string{
		`plain`:              `plain`,
		`with"quote`:         `with\"quote`,
		`back\slash`:         `back\\slash`,
		"new\nline":          `new\nline`,
		"tab\tstays":         "tab\tstays", // tabs are legal raw in label values
		"utf8 héllo":         "utf8 héllo", // NOT escaped — %q would have mangled this
		`all"three\n` + "\n": `all\"three\\n\n`,
	}
	for in, want := range cases {
		if got := EscapeLabelValue(in); got != want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExpositionRoundTripsThroughStrictParser(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("draid_stage_seconds_total", "Stage time.", "stage")
	c.With(`job:"climate"`).Add(1.5)
	c.With("a\\b\nc").Inc()
	r.Gauge1("draid_jobs_queued", "Queued.").Set(3)
	h := r.Histogram("draid_req_seconds", "Req.", []float64{0.001, 1}, "route", "code")
	h.With("/v1/jobs", "200").Observe(0.5)
	r.GaugeFunc("draid_goroutines", "Goroutines.", func() float64 { return 42 })

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	series, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("strict parse of own exposition: %v\n%s", err, buf.String())
	}
	byKey := map[string]float64{}
	for _, s := range series {
		byKey[s.Name+"{"+s.LabelString()+"}"] = s.Value
	}
	if v := byKey[`draid_stage_seconds_total{stage="job:\"climate\""}`]; v != 1.5 {
		t.Errorf("escaped label round-trip: got %v, want 1.5 (have %v)", v, byKey)
	}
	if v := byKey[`draid_goroutines{}`]; v != 42 {
		t.Errorf("gauge func = %v, want 42", v)
	}
}

func TestConcurrentUseAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("draid_ops_total", "ops", "kind")
	h := r.Histogram("draid_op_seconds", "t", nil, "kind")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kind := string(rune('a' + i%4))
			for j := 0; j < 1000; j++ {
				c.With(kind).Inc()
				h.With(kind).Observe(float64(j) / 1000)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var buf bytes.Buffer
				r.WritePrometheus(&buf)
				if _, err := ParseText(&buf); err != nil {
					t.Errorf("mid-flight scrape invalid: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var total float64
	for _, k := range []string{"a", "b", "c", "d"} {
		total += c.With(k).Value()
	}
	if total != 8000 {
		t.Fatalf("lost updates: total = %v, want 8000", total)
	}
}

func TestFormatValueIntegersStayIntegers(t *testing.T) {
	// serve_test.go scrapes counters with Sscanf("%d") — integral values
	// must render without exponent or decimal point.
	cases := map[float64]string{
		0: "0", 2: "2", 1048576: "1048576", 2.5: "2.5",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}
