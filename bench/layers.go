package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/pkg/client"
)

// --- (d) public /metrics, /events and /traces ---------------------------

// scrape is one GET /metrics: every series summed by name (the counters
// read here carry no labels), and how long the scrape took.
type scrape struct {
	values map[string]float64
	ms     float64
}

func scrapeMetrics(ctx context.Context, url string) (scrape, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return scrape{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return scrape{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	series, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return scrape{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	s := scrape{values: make(map[string]float64, len(series)), ms: msSince(start)}
	for _, sr := range series {
		s.values[sr.Name] += sr.Value
	}
	return s, nil
}

// layerCounters turns the before/after difference of the server's own
// counters into the per-layer counts and ratios over the window.
func layerCounters(before, after scrape) map[string]float64 {
	d := func(name string) float64 { return after.values[name] - before.values[name] }
	hitRatio := func(prefix string) float64 {
		hits := d(prefix + "_hits_total")
		return ratio(hits, hits+d(prefix+"_misses_total"))
	}
	return map[string]float64{
		"server.shard_cache_hit_ratio": hitRatio("draid_shard_cache"),
		"server.frame_cache_hit_ratio": hitRatio("draid_frame_cache"),
		"server.frame_store_hit_ratio": hitRatio("draid_frame_store"),
		"server.cache_evictions":       d("draid_shard_cache_evictions_total") + d("draid_frame_cache_evictions_total"),
		"server.frame_store_backfills": d("draid_frame_store_backfills_total"),
		"server.evicted_jobs":          d("draid_jobs_evicted_total"),
		"server.serve_errors":          d("draid_serve_errors_total"),
		"ledger.appends":               d("draid_ledger_records_total"),
		"ledger.records_per_sync":      ratio(d("draid_ledger_records_total"), d("draid_ledger_syncs_total")),
		"tenant.auth_failures":         d("draid_tenant_auth_failures_total"),
		"telemetry.spans_recorded":     d("draid_spans_recorded_total"),
		"telemetry.spans_dropped":      d("draid_spans_dropped_total"),
		"wire_bytes_served":            d("draid_bytes_served_total"),
	}
}

// jobTimeline is what a window job's /events said: how long it queued
// and how long it ran.
type jobTimeline struct {
	domain         int
	queueMs, runMs float64
}

// fetchJobSpans pulls a finished window job's lifecycle events and its
// server-side job spans (the pipeline's stage spans among them) through
// the public API, and files the spans under the client span that
// submitted the job. Traced runs only.
func (e *env) fetchJobSpans(ctx context.Context, c int, js *jobSample) {
	if js == nil || !e.rec.enabled() {
		return
	}
	if evs, err := e.cs[c].Events(ctx, js.id); err == nil {
		at := make(map[string]time.Time, len(evs))
		for _, ev := range evs {
			at[ev.Event] = ev.Time
		}
		if !at[client.EventRunning].IsZero() && !at[client.EventDone].IsZero() {
			tl := jobTimeline{domain: js.domain,
				queueMs: float64(at[client.EventRunning].Sub(at[client.EventQueued]).Nanoseconds()) / 1e6,
				runMs:   float64(at[client.EventDone].Sub(at[client.EventRunning]).Nanoseconds()) / 1e6}
			e.rec.mu.Lock()
			e.rec.timelines = append(e.rec.timelines, tl)
			e.rec.mu.Unlock()
		}
	}
	// The stage spans land a moment after the status turns done.
	for try := 0; try < 5; try++ {
		tv, err := e.cs[c].Trace(ctx, js.trace)
		if err != nil {
			return
		}
		ids := make(map[string]uint32)
		stages := 0
		for _, sp := range tv.Spans {
			switch sp.Name {
			case "job.wait", "job.run":
				ids[sp.SpanID] = 0
			case "job.stage":
				stages++
			}
		}
		if stages == 0 {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		for _, sp := range tv.Spans {
			if _, ok := ids[sp.SpanID]; ok {
				ids[sp.SpanID] = e.rec.add("server."+sp.Name, js.submitSpan, sp.Start, sp.End, js.id)
			}
		}
		for _, sp := range tv.Spans {
			if sp.Name == "job.stage" {
				e.rec.add("pipeline.stage", ids[sp.Parent], sp.Start, sp.End, sp.Attrs["stage"])
			}
		}
		return
	}
}

// --- process ------------------------------------------------------------

type processUsage struct {
	cpuSeconds float64
	allocBytes uint64
	gcPauseNs  uint64
}

func readUsage() processUsage {
	var u processUsage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpuSeconds = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.allocBytes, u.gcPauseNs = ms.TotalAlloc, ms.PauseTotalNs
	return u
}

// windowSampler is the traced window's background observer: heap in use
// at 10 Hz (runtime/metrics does not stop the world) and a 1 Hz GET
// /metrics, as an operator's scraper would.
type windowSampler struct {
	quit     chan struct{}
	wg       sync.WaitGroup
	heapPeak uint64
	scrapeMs []float64
}

func startSampler(url string) *windowSampler {
	s := &windowSampler{quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		heap := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			metrics.Read(heap)
			if v := heap[0].Value.Uint64() + heap[1].Value.Uint64(); v > s.heapPeak {
				s.heapPeak = v
			}
			if n%10 == 5 {
				if sc, err := scrapeMetrics(context.Background(), url); err == nil {
					s.scrapeMs = append(s.scrapeMs, sc.ms)
				}
			}
		}
	}()
	return s
}

func (s *windowSampler) stop() {
	close(s.quit)
	s.wg.Wait()
}

// tracedLoad is everything the traced window observed.
type tracedLoad struct {
	loads          [clients]*clientLoad
	seen           clientObserved
	refRate        float64
	usage0, usage1 processUsage
	sampler        *windowSampler
	replayMs       float64
}

// perLayerMetrics fills res.metrics with every per-layer metric: the
// window's boundary samples and counter deltas, then the layer probes.
func perLayerMetrics(ctx context.Context, res *result, e *env, p *plan, rec *recorder, tl tracedLoad, probeDir string) error {
	m := res.metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for name, v := range res.counters {
		if _, ok := m[name]; ok {
			m[name] = v
		}
	}
	var streams, records int64
	for _, l := range tl.loads {
		streams += l.streams
		for _, r := range l.records {
			records += r
		}
	}
	rec.mu.Lock()
	o := tl.seen
	m["client.first_batch_ms_p95"] = balanced(o.first, 95)
	m["client.first_batch_ms_p99"] = balanced(o.first, 99)
	m["client.stream_records_per_s"] = o.streamRecordsPerS
	m["client.batch_gap_us_p50"] = balanced(o.gaps, 50)
	m["client.batch_gap_us_p99"] = balanced(o.gaps, 99)
	m["client.job_turnaround_ms_p50"] = balanced(o.turnaround, 50)
	m["client.job_turnaround_ms_p90"] = balanced(o.turnaround, 90)
	m["client.prepared_records_per_s"] = o.preparedPerS
	m["client.resumes"] = float64(rec.batchesReqs - streams)
	m["server.batches_handler_ms_p50"] = percentile(rec.batchesMs, 50)
	m["server.batches_handler_ms_p99"] = percentile(rec.batchesMs, 99)
	m["server.open_to_first_write_us_p50"] = percentile(rec.firstWriteUs, 50)
	m["server.submit_handler_ms_p50"] = percentile(rec.submitMs, 50)
	var queue []float64
	var runs perDomain
	for _, t := range rec.timelines {
		queue = append(queue, t.queueMs)
		runs[t.domain] = append(runs[t.domain], t.runMs)
	}
	m["server.queue_wait_ms_p50"] = percentile(queue, 50)
	for d := range benchDomains {
		m["server.job_run_ms_p50."+domainLabels[d]] = percentile(runs[d], 50)
	}
	st := rec.store
	rec.mu.Unlock()
	m["server.replay_ms"] = tl.replayMs
	m["shard.store_read_ops"] = float64(st.readOps)
	m["shard.store_read_bytes"] = float64(st.readBytes)
	m["shard.store_read_busy_ms"] = float64(st.readBusy) / 1e6
	m["shard.store_write_ops"] = float64(st.writeOps)
	m["shard.store_write_bytes"] = float64(st.writeBytes)
	m["shard.store_write_busy_ms"] = float64(st.writeBusy) / 1e6
	m["shard.store_errors"] = float64(st.errors)
	m["shard.read_amplification"] = ratio(float64(st.readBytes), res.counters["wire_bytes_served"])
	m["telemetry.scrape_ms_p50"] = percentile(tl.sampler.scrapeMs, 50)
	m["process.cpu_s_per_mrecord"] = ratio(tl.usage1.cpuSeconds-tl.usage0.cpuSeconds, float64(records)/1e6)
	m["process.alloc_bytes_per_record"] = ratio(float64(tl.usage1.allocBytes-tl.usage0.allocBytes), float64(records))
	m["process.gc_pause_ms_total"] = float64(tl.usage1.gcPauseNs-tl.usage0.gcPauseNs) / 1e6
	m["process.heap_inuse_peak_mib"] = float64(tl.sampler.heapPeak) / (1 << 20)
	if tl.refRate > 0 {
		m["bench.trace_overhead_share"] = 1 - o.recordsPerS/tl.refRate
	}
	return runProbes(ctx, res, e, p, probeDir)
}
