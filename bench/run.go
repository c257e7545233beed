package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/pkg/client"
)

// config is one run: a workload, a seed, a window, tracing on or off.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// scale divides the corpus record counts and reps is the number of
	// set-up repetitions (and of probe builds and replay samples in a
	// traced run); only the smoke test changes them.
	scale int
	reps  int
}

// result is one run's outcome. metrics holds the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one; counters
// holds the /metrics-derived layer counters of either (the fidelity
// test compares them across the two).
type result struct {
	cfg       config
	attempted int64
	failed    int64
	errors    []string // first few failure messages
	metrics   map[string]float64
	samples   map[string]int // sample count behind each percentile metric
	counters  map[string]float64
	info      map[string]any
}

func (r *result) correct() bool { return r.failed == 0 }

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errors) < 8 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

// jobSample is one job the submitter pushed through in the window.
type jobSample struct {
	id, trace    string
	domain       int
	turnaroundMs float64
	records      int64
	submitSpan   uint32
	finished     time.Time
}

// perDomain holds one sample set per benchDomains index. Latencies and
// sizes differ several-fold between the domains, so a percentile over
// the pooled samples sits on the boundary between two domains' modes
// and moves with the mix a seed happens to draw; every such metric is
// computed per domain and combined by balanced.
type perDomain [4][]float64

// balanced is the geometric mean over the domains that have samples of
// each domain's p-th percentile: a 5 % change in the cheapest domain
// moves it as much as one in the dearest.
func balanced(s perDomain, p float64) float64 {
	var logSum float64
	var n int
	for d := range s {
		if v := percentile(s[d], p); v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

func (s perDomain) count() int {
	n := 0
	for d := range s {
		n += len(s[d])
	}
	return n
}

// clientLoad is what one client observed while driving its loop.
type clientLoad struct {
	deadline       time.Time
	firstMs, gapUs perDomain
	bytes, records [4]int64
	// drainRecords and drainNs cover each stream from its first batch to
	// EOF: what flows once a stream is open, without the cost of opening it.
	drainRecords, drainNs [4]int64
	// inWindow counts the records of batches that arrived before the
	// deadline; a stream still open then finishes, but its late batches
	// do not count towards the rate.
	inWindow  int64
	attempted int64
	streams   int64
	failures  []string
	failed    int64
	jobs      []jobSample
}

func (l *clientLoad) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < 4 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// drive runs every client's closed loop until the deadline: a client
// issues its next request only when the previous one has completed, and
// the submitter not before its next job is due.
func drive(ctx context.Context, e *env, p *plan, d time.Duration) [clients]*clientLoad {
	var loads [clients]*clientLoad
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		l := &clientLoad{deadline: deadline}
		loads[c] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pending *jobSample // traced: the job whose server-side spans are fetched next
			for n := 0; time.Now().Before(deadline); n++ {
				// The submitter's n-th job of this drive is due n periods in.
				if p.clients[c].submit && !sleepUntil(ctx, start.Add(time.Duration(n)*p.w.submitEvery), deadline) {
					break
				}
				req := p.next(c)
				if req.submit {
					js := e.submitOp(ctx, c, req, l)
					if js != nil && !js.finished.After(deadline) {
						l.jobs = append(l.jobs, *js)
					}
					// The previous job's stage spans are recorded a moment
					// after its status turns done, so fetch one job behind.
					e.fetchJobSpans(ctx, c, pending)
					pending = js
				} else {
					e.streamOp(ctx, c, req, l)
				}
			}
			e.fetchJobSpans(ctx, c, pending)
		}()
	}
	wg.Wait()
	return loads
}

// sleepUntil waits for due and reports whether it came before the
// deadline and before ctx was cancelled.
func sleepUntil(ctx context.Context, due, deadline time.Time) bool {
	if !due.Before(deadline) {
		due = deadline
	}
	t := time.NewTimer(time.Until(due))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return time.Now().Before(deadline)
	}
}

// streamOp is one read: a full scan, or a two-batch read from a cursor.
// It checks the record count and the final cursor against the set-up
// reference; the per-record digests are compared in the verify phase.
func (e *env) streamOp(ctx context.Context, c int, req request, l *clientLoad) {
	j := e.corpus[req.job]
	o := client.StreamOptions{BatchSize: scanBatch, Wire: e.w.wire}
	wantRecords, wantCursor := j.records, endCursor(j.shards)
	if e.w.seek {
		o.BatchSize, o.MaxBatches = seekBatch, seekMax
		o.Cursor, wantRecords, wantCursor = j.seekPlan(req.pick)
	}
	var last time.Time
	var firstCount int
	st, err := runStream(ctx, e.cs[c], j.id, o, func(w *client.BatchWire, at time.Time) {
		if last.IsZero() {
			firstCount = w.Count()
		} else {
			l.gapUs[j.domain] = append(l.gapUs[j.domain], float64(at.Sub(last).Nanoseconds())/1e3)
		}
		last = at
		if at.Before(l.deadline) {
			l.inWindow += int64(w.Count())
		}
	})
	l.attempted++
	l.streams++
	// One span per batch would be most of the trace file and say nothing
	// batch_gap_us does not: a stream is open, first batch, drain.
	if root := e.rec.add("client.stream", 0, st.begin, st.end, st.trace); root != 0 {
		e.rec.add("client.open", root, st.begin, st.opened, "")
		if !st.first.IsZero() {
			e.rec.add("client.first_next", root, st.opened, st.first, "")
			e.rec.add("client.drain", root, st.first, st.end, "")
		}
	}
	switch {
	case err != nil:
		l.fail("stream %s: %v", j.id, err)
		return
	case st.records != wantRecords:
		l.fail("stream %s from %q: %d records, want %d", j.id, o.Cursor, st.records, wantRecords)
		return
	case st.cursor != wantCursor:
		l.fail("stream %s from %q: final cursor %q, want %q", j.id, o.Cursor, st.cursor, wantCursor)
		return
	}
	l.firstMs[j.domain] = append(l.firstMs[j.domain], float64(st.first.Sub(st.begin).Nanoseconds())/1e6)
	l.bytes[j.domain] += st.bytes
	l.records[j.domain] += int64(st.records)
	if st.records > firstCount {
		l.drainRecords[j.domain] += int64(st.records - firstCount)
		l.drainNs[j.domain] += st.end.Sub(st.first).Nanoseconds()
	}
}

// submitOp pushes one job through: SubmitJob, then WaitDone at the 2 ms
// poll the clients are built with.
func (e *env) submitOp(ctx context.Context, c int, req request, l *clientLoad) *jobSample {
	l.attempted++
	t0 := time.Now()
	st, err := e.cs[c].SubmitJob(ctx, req.spec)
	t1 := time.Now()
	if err != nil {
		l.fail("submit %s: %v", req.spec.Domain, err)
		return nil
	}
	fin, err := e.cs[c].WaitDone(ctx, st.ID)
	t2 := time.Now()
	root := e.rec.add("client.job", 0, t0, t2, st.ID)
	e.rec.add("client.submit", root, t0, t1, "")
	e.rec.add("client.wait_done", root, t1, t2, "")
	if err != nil {
		l.fail("job %s: %v", st.ID, err)
		return nil
	}
	if fin.Records <= 0 || !fin.Servable {
		l.fail("job %s: done with %d records, servable=%v", st.ID, fin.Records, fin.Servable)
		return nil
	}
	dom := 0
	for i, d := range benchDomains {
		if d == req.spec.Domain {
			dom = i
		}
	}
	return &jobSample{id: st.ID, trace: st.Trace, domain: dom, submitSpan: root,
		turnaroundMs: float64(t2.Sub(t0).Nanoseconds()) / 1e6, records: fin.Records, finished: t2}
}

// run executes one workload once: set-up (repeated), warm-up, the
// timed window, then the verify phase; a traced run adds the reference
// window, the scrapes, the probes and the trace file.
func run(ctx context.Context, cfg config) (*result, error) {
	if runtime.NumCPU() < clients {
		return nil, fmt.Errorf("bench: %d cores, need at least %d (one per closed-loop client)", runtime.NumCPU(), clients)
	}
	w := cfg.workload
	// A scaled-down corpus (the smoke test) keeps its size relative to
	// the cache, a shorter window its warm-up and submit period relative
	// to the window.
	w.cacheBytes /= int64(cfg.scale)
	if cfg.scale > 1 {
		w.seedsPerDomain = min(w.seedsPerDomain, 2) // still twice the scaled cold cache
	}
	w.warmup = scaleDuration(w.warmup, cfg.seconds)
	w.submitEvery = scaleDuration(w.submitEvery, cfg.seconds)
	res := &result{cfg: cfg, metrics: map[string]float64{}, samples: map[string]int{}, counters: map[string]float64{}}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	tmp, err := os.MkdirTemp(cfg.out, "tmp-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up, repeated: the median is setup_s, the last one stays up.
	p := newPlan(w, cfg.seed, cfg.scale)
	var e *env
	var setups []setupSample
	for rep := 0; rep < cfg.reps; rep++ {
		if e != nil {
			// Stopped, not deleted: unlinking tens of MB right before the
			// next timed set-up would have it share the disk with the
			// journal's discards. Everything under tmp goes at the end.
			e.stop()
		}
		var s setupSample
		e, s, err = setUp(ctx, w, p.corpusSpecs(), filepath.Join(tmp, fmt.Sprintf("data-%d", rep)), rec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer func() { e.stop() }()
	var corpusFrameBytes, corpusStoredBytes, corpusRecords int64
	for _, j := range e.corpus {
		corpusRecords += int64(j.records)
		corpusFrameBytes += j.frameBytes
		corpusStoredBytes += j.storedBytes
	}
	res.attempted += int64(len(e.corpus)) // the reference scans, checked against the manifests
	// A cold workload whose corpus fits the cache measures nothing cold.
	if w.zipf && cfg.scale == 1 && corpusFrameBytes < 4*w.cacheBytes {
		return nil, fmt.Errorf("bench: %s corpus is %d frame bytes, need at least 4x the %d-byte cache", w.name, corpusFrameBytes, w.cacheBytes)
	}

	drive(ctx, e, p, w.warmup)

	var refRate float64
	if cfg.trace {
		// Same wrappers in place, switched off: the untraced reference the
		// tracing overhead is measured against.
		refWindow := time.Duration(math.Max(cfg.seconds/4, 0.2) * float64(time.Second))
		refRate = recordsPerSecond(drive(ctx, e, p, refWindow), refWindow)
	}
	before, err := scrapeMetrics(ctx, e.url)
	if err != nil {
		return nil, err
	}
	var sampler *windowSampler
	if cfg.trace {
		rec.on.Store(true)
		sampler = startSampler(e.url)
	}
	usage0 := readUsage()
	window := time.Duration(cfg.seconds * float64(time.Second))
	loads := drive(ctx, e, p, window)
	usage1 := readUsage()
	if cfg.trace {
		sampler.stop()
		rec.on.Store(false)
	}
	after, err := scrapeMetrics(ctx, e.url)
	if err != nil {
		return nil, err
	}

	for _, l := range loads {
		res.attempted += l.attempted
		res.failed += l.failed
		for _, f := range l.failures {
			if len(res.errors) < 8 {
				res.errors = append(res.errors, f)
			}
		}
	}
	res.counters = layerCounters(before, after)
	replayMs := e.verify(ctx, res)

	res.info = map[string]any{
		"workload": w.name, "seed": cfg.seed, "trace": cfg.trace, "window_s": cfg.seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"clients": clients, "corpus_jobs": len(e.corpus), "corpus_records": corpusRecords,
		"corpus_stored_bytes": corpusStoredBytes, "corpus_frame_bytes": corpusFrameBytes,
		"serve_cache_bytes": w.cacheBytes, "setup_reps": cfg.reps,
	}
	if !cfg.trace {
		endToEndMetrics(res, observe(e, setups, loads, window))
		return res, nil
	}
	tl := tracedLoad{loads: loads, seen: observe(e, setups, loads, window), refRate: refRate,
		usage0: usage0, usage1: usage1, sampler: sampler, replayMs: replayMs}
	if err := perLayerMetrics(ctx, res, e, p, rec, tl, filepath.Join(tmp, "probe")); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(cfg.out, w.name+".trace.json")
	if err := rec.writeFile(tracePath, res.info); err != nil {
		return nil, err
	}
	res.info["trace_file"] = tracePath
	return res, nil
}

// scaleDuration shrinks a warm-up, submit period or probe time in
// proportion when the window is shorter than the one BENCHMARK.json
// fixes (the smoke test).
func scaleDuration(d time.Duration, seconds float64) time.Duration {
	if seconds >= runSeconds {
		return d
	}
	return time.Duration(float64(d) * seconds / runSeconds)
}

// recordsPerSecond is the records every client received and validated
// inside the window, over the window. (Medians over slices of the
// window were tried and were no steadier: on this box the noise is a
// wander of the whole machine over minutes, not bursts inside a run.)
func recordsPerSecond(loads [clients]*clientLoad, window time.Duration) float64 {
	var n int64
	for _, l := range loads {
		n += l.inWindow
	}
	return float64(n) / window.Seconds()
}

// bytesPerRecord is wire bytes per record, per domain, balanced.
func bytesPerRecord(loads [clients]*clientLoad) float64 {
	var perRecord perDomain
	for d := range benchDomains {
		var b, r int64
		for _, l := range loads {
			b += l.bytes[d]
			r += l.records[d]
		}
		if r > 0 {
			perRecord[d] = []float64{float64(b) / float64(r)}
		}
	}
	return balanced(perRecord, 50)
}

// streamRecordsPerSecond is the rate of one open stream: records after
// a stream's first batch over the time from that batch to EOF, per
// domain, balanced.
func streamRecordsPerSecond(loads [clients]*clientLoad) float64 {
	var rate perDomain
	for d := range benchDomains {
		var r, ns int64
		for _, l := range loads {
			r += l.drainRecords[d]
			ns += l.drainNs[d]
		}
		if ns > 0 {
			rate[d] = []float64{float64(r) / (float64(ns) / 1e9)}
		}
	}
	return balanced(rate, 50)
}

// clientObserved is everything the clients measured in one run, from
// which both metric tables draw.
type clientObserved struct {
	setupS, recordsPerS, streamRecordsPerS, wireBytesPerRecord, storedBytesPerRecord float64
	first, gaps, turnaround                                                          perDomain
	preparedPerS                                                                     float64
}

func observe(e *env, setups []setupSample, loads [clients]*clientLoad, window time.Duration) clientObserved {
	var o clientObserved
	var setupS, prepRates []float64
	var stored perDomain
	for _, s := range setups {
		setupS = append(setupS, s.seconds)
		prepRates = append(prepRates, float64(s.statusRecords)/s.buildSeconds)
		for i, ms := range s.turnaroundMs {
			o.turnaround[i%len(benchDomains)] = append(o.turnaround[i%len(benchDomains)], ms)
		}
	}
	o.setupS = median(setupS)
	o.recordsPerS = recordsPerSecond(loads, window)
	o.streamRecordsPerS = streamRecordsPerSecond(loads)
	for _, l := range loads {
		for d := range benchDomains {
			o.first[d] = append(o.first[d], l.firstMs[d]...)
			o.gaps[d] = append(o.gaps[d], l.gapUs[d]...)
		}
	}
	o.wireBytesPerRecord = bytesPerRecord(loads)
	for _, j := range e.corpus {
		stored[j.domain] = append(stored[j.domain], float64(j.storedBytes)/float64(j.records))
	}
	o.storedBytesPerRecord = balanced(stored, 50)
	// Job numbers: the window's submissions where the workload submits,
	// the set-up's corpus submissions (an otherwise idle server) elsewhere.
	o.preparedPerS = median(prepRates)
	if e.w.submitEvery > 0 {
		// Per second a job was in flight, not per second of the window:
		// the submit period fixes the latter.
		o.turnaround = perDomain{}
		var recs int64
		var inFlightMs float64
		for _, j := range wholeCycles(loads[0].jobs) {
			o.turnaround[j.domain] = append(o.turnaround[j.domain], j.turnaroundMs)
			recs += j.records
			inFlightMs += j.turnaroundMs
		}
		o.preparedPerS = ratio(float64(recs), inFlightMs/1e3)
	}
	return o
}

// endToEndMetrics fills the metrics of an untraced run.
func endToEndMetrics(res *result, o clientObserved) {
	m := res.metrics
	m["setup_s"] = o.setupS
	m["records_per_s"] = o.recordsPerS
	m["first_batch_ms_p50"] = balanced(o.first, 50)
	res.samples["first_batch_ms_p50"] = o.first.count()
	m["wire_bytes_per_record"] = o.wireBytesPerRecord
	m["stored_bytes_per_record"] = o.storedBytesPerRecord
}

// wholeCycles trims the submitter's jobs to whole four-domain cycles,
// so the prepared-records rate and the turnaround percentiles always
// cover the same domain mix. Fewer than four jobs (the smoke test) are
// returned as they are.
func wholeCycles(jobs []jobSample) []jobSample {
	if n := len(jobs) - len(jobs)%len(benchDomains); n > 0 {
		return jobs[:n]
	}
	return jobs
}
