// Stage instrumentation: wall-clock timing and throughput accounting
// for every pipeline stage. The curation-time experiment (paper §3.2:
// "scientists spend upwards of 70% of their time on data curation") is
// answered by attributing stage time to categories and reporting shares.
package pipeline

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sample is one timed operation.
type Sample struct {
	Stage    string
	Category string // e.g. "curation" vs "compute"
	Duration time.Duration
	Bytes    int64
	Records  int64
}

// Collector accumulates samples; safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	samples []Sample
	clock   func() time.Time
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{clock: time.Now} }

// SetClock overrides the time source (testing hook).
func (c *Collector) SetClock(clock func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock = clock
}

// Record appends a pre-measured sample.
func (c *Collector) Record(s Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, s)
}

// Time runs fn, recording its duration under (stage, category) with the
// given data volume, and propagates fn's error.
func (c *Collector) Time(stage, category string, bytes, records int64, fn func() error) error {
	c.mu.Lock()
	clock := c.clock
	c.mu.Unlock()
	start := clock()
	err := fn()
	c.Record(Sample{
		Stage: stage, Category: category,
		Duration: clock().Sub(start), Bytes: bytes, Records: records,
	})
	return err
}

// Samples returns a copy of the recorded samples in record order —
// the per-call view span synthesis needs (ByStage aggregates it away).
func (c *Collector) Samples() []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Sample(nil), c.samples...)
}

// StageStats aggregates one stage.
type StageStats struct {
	Stage   string
	Calls   int
	Total   time.Duration
	Bytes   int64
	Records int64
}

// Throughput returns bytes/second over the stage's total time (0 when
// no time elapsed).
func (s StageStats) Throughput() float64 {
	if s.Total <= 0 {
		return 0
	}
	return float64(s.Bytes) / s.Total.Seconds()
}

// RecordsPerSecond returns records/second.
func (s StageStats) RecordsPerSecond() float64 {
	if s.Total <= 0 {
		return 0
	}
	return float64(s.Records) / s.Total.Seconds()
}

// ByStage aggregates samples per stage, sorted by stage name.
func (c *Collector) ByStage() []StageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := make(map[string]*StageStats)
	for _, s := range c.samples {
		st, ok := agg[s.Stage]
		if !ok {
			st = &StageStats{Stage: s.Stage}
			agg[s.Stage] = st
		}
		st.Calls++
		st.Total += s.Duration
		st.Bytes += s.Bytes
		st.Records += s.Records
	}
	out := make([]StageStats, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// CategoryShare returns each category's fraction of total recorded time.
// This is the instrument behind the "70% curation" claim (E5).
func (c *Collector) CategoryShare() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	totals := make(map[string]time.Duration)
	var grand time.Duration
	for _, s := range c.samples {
		totals[s.Category] += s.Duration
		grand += s.Duration
	}
	out := make(map[string]float64, len(totals))
	if grand <= 0 {
		return out
	}
	for cat, d := range totals {
		out[cat] = float64(d) / float64(grand)
	}
	return out
}

// TotalDuration sums all recorded time.
func (c *Collector) TotalDuration() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total time.Duration
	for _, s := range c.samples {
		total += s.Duration
	}
	return total
}

// Report renders a human-readable per-stage table plus category shares.
func (c *Collector) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %14s %14s %12s\n", "stage", "calls", "time", "MB/s", "rec/s")
	for _, st := range c.ByStage() {
		fmt.Fprintf(&b, "%-24s %8d %14s %14.1f %12.0f\n",
			st.Stage, st.Calls, st.Total.Round(time.Microsecond),
			st.Throughput()/(1024*1024), st.RecordsPerSecond())
	}
	shares := c.CategoryShare()
	cats := make([]string, 0, len(shares))
	for cat := range shares {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		fmt.Fprintf(&b, "category %-16s %6.1f%%\n", cat, 100*shares[cat])
	}
	return b.String()
}
