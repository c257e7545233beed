// Package telemetry is the draid observability substrate: a
// dependency-free metrics registry (labeled counters, gauges, and
// fixed-bucket histograms with Prometheus text exposition), trace-ID
// propagation helpers, and a strict exposition-format parser the tests
// use to keep the metric surface honest.
//
// The registry is built for scrape-under-load: family lookup takes a
// read lock, label-child lookup takes a per-family read lock (the lock
// striping — one contended family never blocks another), and every
// value update is a single atomic operation. A scrape walks the same
// structures with read locks only, so exposition never serializes
// against the serving hot path and never needs any caller-side mutex.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types, mirrored in the exposition TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// labelSep joins label values into a child key. 0xff cannot appear in
// valid UTF-8 label text, so joined keys never collide.
const labelSep = "\xff"

// Registry holds metric families and renders them in Prometheus text
// exposition format. Create with NewRegistry; safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // registration order kept only for duplicate checks; exposition sorts
}

// family is one named metric with a fixed label schema.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histograms only

	mu       sync.RWMutex
	children map[string]metric

	fn func() float64 // GaugeFunc families evaluate at scrape time
}

// metric is one labeled child of a family.
type metric interface {
	write(w io.Writer, fam *family, labelValues []string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s is a legal Prometheus metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether s is a legal label name (no colons).
func validLabelName(s string) bool {
	if s == "" || s == "le" { // "le" is reserved for histogram buckets
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// register installs (or fetches, when the schema matches) a family.
// Schema mismatches panic: two call sites disagreeing about a metric's
// shape is a programming error no runtime fallback can paper over.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("telemetry: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as %s{%s}, was %s{%s}",
				name, typ, strings.Join(labels, ","), f.typ, strings.Join(f.labels, ",")))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]metric),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// child returns the family's metric for the given label values,
// creating it with mk on first use. The fast path is one read-locked
// map hit.
func (f *family) child(values []string, mk func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m = mk()
	f.children[key] = m
	return m
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing float value.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v, which must not be negative.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decremented")
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(w io.Writer, fam *family, values []string) {
	fmt.Fprintf(w, "%s%s %s\n", fam.name, renderLabels(fam.labels, values), formatValue(c.Value()))
}

// CounterVec is a counter family; With selects one labeled child.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (in the order the
// labels were declared), creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.child(labelValues, func() metric { return &Counter{} }).(*Counter)
}

// Counter registers (or fetches) a labeled counter family. With no
// labels the returned vec's With() yields the single child.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, typeCounter, labels, nil)}
}

// Counter1 registers an unlabeled counter and returns its only child —
// the common case for global totals.
func (r *Registry) Counter1(name, help string) *Counter {
	return r.Counter(name, help).With()
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by v (negative allowed).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, fam *family, values []string) {
	fmt.Fprintf(w, "%s%s %s\n", fam.name, renderLabels(fam.labels, values), formatValue(g.Value()))
}

// GaugeVec is a gauge family; With selects one labeled child.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.fam.child(labelValues, func() metric { return &Gauge{} }).(*Gauge)
}

// Gauge registers (or fetches) a labeled gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, typeGauge, labels, nil)}
}

// Gauge1 registers an unlabeled gauge and returns its only child.
func (r *Registry) Gauge1(name, help string) *Gauge {
	return r.Gauge(name, help).With()
}

// GaugeFunc registers a gauge whose value is computed by fn at every
// scrape — for values another subsystem already tracks under its own
// lock (cache sizes, fleet membership, runtime stats).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeGauge, nil, nil)
	f.fn = fn
}

// CounterFunc registers a counter collected by fn at scrape time — for
// monotone totals another subsystem already counts under its own lock.
// fn must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeCounter, nil, nil)
	f.fn = fn
}

// ---------------------------------------------------------------------------
// Histogram

// DefBuckets covers request/stream latencies from 100µs to 10s.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// FastBuckets covers per-batch encode and shard-load costs from 1µs to
// 250ms — the sub-request work the serving hot path is made of.
var FastBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.25,
}

// Exemplar links one observed value to the trace that produced it —
// rendered OpenMetrics-style after the bucket's sample so a p99 bucket
// carries the trace ID of a real offending request.
type Exemplar struct {
	TraceID string
	Value   float64
}

// Histogram is a fixed-bucket distribution. Observations update one
// bucket counter and the sum, both atomically; the count is the sum of
// the bucket counters, so a scrape renders +Inf and _count from the
// same snapshot as the finite buckets. Each bucket (including +Inf)
// keeps the latest exemplar via an atomic pointer.
type Histogram struct {
	buckets   []float64                  // upper bounds, ascending; +Inf implicit
	counts    []atomic.Uint64            // one per bucket + one for values above the last bound
	exemplars []atomic.Pointer[Exemplar] // one per bucket + one for +Inf
	sumBits   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bucket whose bound holds v; past the
	// last bound it lands on the overflow counter.
	h.counts[sort.SearchFloat64s(h.buckets, v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveWithExemplar records one value and stamps its bucket's
// exemplar with the trace that produced it (last writer wins — the
// freshest offender is the useful one). An empty trace ID degrades to
// a plain Observe.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" || !ValidTraceID(traceID) {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v) // i == len(buckets) means +Inf
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(w io.Writer, fam *family, values []string) {
	var cum uint64
	for i, bound := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d%s\n",
			fam.name, renderLabelsExtra(fam.labels, values, "le", formatValue(bound)), cum,
			renderExemplar(h.exemplars[i].Load()))
	}
	// +Inf and _count continue the same running sum: a separately
	// loaded total could read below a bucket an Observe had just bumped.
	cum += h.counts[len(h.buckets)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d%s\n",
		fam.name, renderLabelsExtra(fam.labels, values, "le", "+Inf"), cum,
		renderExemplar(h.exemplars[len(h.buckets)].Load()))
	fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, renderLabels(fam.labels, values), formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", fam.name, renderLabels(fam.labels, values), cum)
}

// renderExemplar renders an OpenMetrics exemplar suffix
// (` # {trace_id="..."} value`), or "" for nil.
func renderExemplar(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return ` # {trace_id="` + EscapeLabelValue(e.TraceID) + `"} ` + formatValue(e.Value)
}

// HistogramVec is a histogram family; With selects one labeled child.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.fam.child(labelValues, func() metric {
		return &Histogram{
			buckets:   v.fam.buckets,
			counts:    make([]atomic.Uint64, len(v.fam.buckets)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(v.fam.buckets)+1),
		}
	}).(*Histogram)
}

// Histogram registers (or fetches) a labeled histogram family with the
// given ascending bucket upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: metric %s: buckets not strictly ascending", name))
		}
	}
	return &HistogramVec{fam: r.register(name, help, typeHistogram, labels, buckets)}
}

// ---------------------------------------------------------------------------
// Exposition

// EscapeLabelValue escapes a label value for the exposition format:
// backslash, double-quote, and newline get backslash escapes — the
// Prometheus contract, which is NOT Go's %q quoting (that would also
// escape every non-ASCII rune and tab, which a strict Prometheus
// parser reads back literally).
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP text: backslash and newline only (quotes
// are legal in HELP).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// renderLabels renders a {k="v",...} block ("" when no labels).
func renderLabels(names, values []string) string {
	return renderLabelsExtra(names, values, "", "")
}

// renderLabelsExtra renders labels plus one extra pair (for histogram
// "le"); extraName "" omits it.
func renderLabelsExtra(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value: integral floats print without an
// exponent or decimal point so counters stay grep-able.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in text exposition format,
// sorted by family name with children sorted by label values, so
// consecutive scrapes diff cleanly. It takes only read locks.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		if f.fn != nil {
			fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn()))
			continue
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]metric, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.RUnlock()
		for i, k := range keys {
			var values []string
			if k != "" || len(f.labels) > 0 {
				values = strings.Split(k, labelSep)
			}
			children[i].write(w, f, values)
		}
	}
}
