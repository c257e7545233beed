// Server-side telemetry wiring: the metric families the draid service
// exports, the HTTP middleware that stamps every request with a trace
// ID and a latency observation, and the per-job event timeline. This
// file is the single place a metric family is registered — the
// metrics-hygiene test holds every name here to the README contract.
package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ledger"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/pkg/client"
)

// serverMetrics holds the registry plus pre-resolved children for the
// hot paths, so serving code never does a label lookup per batch.
type serverMetrics struct {
	reg *telemetry.Registry

	// Job lifecycle gauges, updated at state transitions — never by
	// scanning the job table at scrape time.
	jobsTotal    *telemetry.Gauge
	jobsQueued   *telemetry.Gauge
	jobsInFlight *telemetry.Gauge
	jobsDone     *telemetry.Counter
	jobsFailed   *telemetry.Counter
	jobsEvicted  *telemetry.Counter

	// Serving totals (unlabeled: the all-up numbers dashboards alert
	// on; per-domain/wire splits live in the histograms' counts).
	bytesServed    *telemetry.Counter
	batchesServed  *telemetry.Counter
	samplesServed  *telemetry.Counter
	serveErrors    *telemetry.Counter
	serveThrottled *telemetry.Counter

	// Frame-store (on-disk sidecar) traffic: the disk tier of the
	// zero-copy frame path.
	frameStoreHits      *telemetry.Counter
	frameStoreMisses    *telemetry.Counter
	frameStoreBackfills *telemetry.Counter
	frameStoreBytes     *telemetry.Counter
	frameStoreErrors    *telemetry.Counter

	// Serving latency distributions.
	requestSeconds *telemetry.HistogramVec // route × code
	firstBatch     *telemetry.HistogramVec // domain × wire
	batchEncode    *telemetry.HistogramVec // domain × wire
	shardLoad      *telemetry.HistogramVec // domain × outcome

	// Pipeline stage accounting, folded in at job completion.
	stageSeconds *telemetry.CounterVec
	stageCalls   *telemetry.CounterVec
	stageBytes   *telemetry.CounterVec

	// Cluster routing counters (registered always so the accessors are
	// total; they only move in cluster mode).
	clusterProxied    *telemetry.Counter
	clusterRedirected *telemetry.Counter
	clusterRetries    *telemetry.Counter
	clusterAdopted    *telemetry.Counter

	// Tenancy counters (registered always, moving only with -tenants:
	// same always-total contract as the cluster counters).
	tenantAuthFailures    *telemetry.Counter
	tenantQuotaRejections *telemetry.Counter
}

func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg: reg,

		jobsTotal:    reg.Gauge1("draid_jobs_total", "Jobs in the local table (all states)."),
		jobsQueued:   reg.Gauge1("draid_jobs_queued", "Jobs waiting for a worker."),
		jobsInFlight: reg.Gauge1("draid_jobs_in_flight", "Jobs currently executing."),
		jobsDone:     reg.Counter1("draid_jobs_done_total", "Jobs completed successfully."),
		jobsFailed:   reg.Counter1("draid_jobs_failed_total", "Jobs that ended in failure."),
		jobsEvicted:  reg.Counter1("draid_jobs_evicted_total", "Completed jobs evicted by TTL or retention pressure."),

		bytesServed:    reg.Counter1("draid_bytes_served_total", "Wire bytes written by batch streams."),
		batchesServed:  reg.Counter1("draid_batches_served_total", "Batches emitted by /batches streams."),
		samplesServed:  reg.Counter1("draid_samples_served_total", "Records emitted by /batches streams."),
		serveErrors:    reg.Counter1("draid_serve_errors_total", "Mid-stream serving failures reported in-band."),
		serveThrottled: reg.Counter1("draid_serve_throttled_total", "Streams that hit the pacing token bucket."),

		frameStoreHits:      reg.Counter1("draid_frame_store_hits_total", "Shard cache fills (either wire) served from an on-store sidecar."),
		frameStoreMisses:    reg.Counter1("draid_frame_store_misses_total", "Shard cache fills (either wire) that found no usable sidecar and built one from the shard."),
		frameStoreBackfills: reg.Counter1("draid_frame_store_backfills_total", "Sidecars lazily materialized for shards that lacked one (replayed jobs, recovered corruption)."),
		frameStoreBytes:     reg.Counter1("draid_frame_store_bytes_total", "Payload bytes read from frame sidecars."),
		frameStoreErrors:    reg.Counter1("draid_frame_store_errors_total", "Sidecars rejected as torn/corrupt or failed to build (served by decode+encode instead)."),

		requestSeconds: reg.Histogram("draid_request_seconds",
			"HTTP request latency by route pattern and status code.",
			telemetry.DefBuckets, "route", "code"),
		firstBatch: reg.Histogram("draid_first_batch_seconds",
			"Time from request start to the first batch on the wire.",
			telemetry.DefBuckets, "domain", "wire"),
		batchEncode: reg.Histogram("draid_batch_encode_seconds",
			"Per-batch encode time: NDJSON header fields or frame envelope (payloads are sliced from encoded shards; excludes network writes).",
			telemetry.FastBuckets, "domain", "wire"),
		shardLoad: reg.Histogram("draid_shard_load_seconds",
			"Sidecar build time of a cache fill without a usable sidecar: read, verify, decode and pack one shard.",
			telemetry.DefBuckets, "domain", "outcome"),

		stageSeconds: reg.Counter("draid_stage_seconds_total", "Stage wall time: each pipeline stage by name, and stage job:<domain> for a whole job's input synthesis plus its pipeline run.", "stage"),
		stageCalls:   reg.Counter("draid_stage_calls_total", "Pipeline stage invocations.", "stage"),
		stageBytes:   reg.Counter("draid_stage_bytes_total", "Bytes processed per pipeline stage.", "stage"),

		clusterProxied:    reg.Counter1("draid_cluster_proxied_total", "Requests transparently proxied to their ring owner."),
		clusterRedirected: reg.Counter1("draid_cluster_redirected_total", "Requests answered with a 307 to their ring owner."),
		clusterRetries:    reg.Counter1("draid_cluster_forward_retries_total", "Forward attempts that failed and marked a peer down."),
		clusterAdopted:    reg.Counter1("draid_cluster_jobs_adopted_total", "Jobs adopted from the shared ledgers after an ownership change."),

		tenantAuthFailures:    reg.Counter1("draid_tenant_auth_failures_total", "Requests rejected 401 for a missing or invalid bearer token."),
		tenantQuotaRejections: reg.Counter1("draid_tenant_quota_rejections_total", "Submissions rejected 429 by a per-tenant job or byte quota."),
	}
	return m
}

// observeStage folds one stage sample into the stage counters —
// transition-time accounting, replacing the per-scrape ByStage scan.
func (m *serverMetrics) observeStage(stage string, seconds float64, calls, bytes int64) {
	m.stageSeconds.With(stage).Add(seconds)
	m.stageCalls.With(stage).Add(float64(calls))
	if bytes > 0 {
		m.stageBytes.With(stage).Add(float64(bytes))
	}
}

// registerCollectors wires scrape-time collectors for state other
// subsystems already track under their own locks. Runtime gauges ride
// only on debug servers: they cost a stop-the-world ReadMemStats per
// scrape.
func (s *Server) registerCollectors() {
	reg := s.metrics.reg
	reg.GaugeFunc("draid_shard_cache_entries", "Shards resident in the serving cache as NDJSON line fragments.",
		func() float64 { return float64(s.cache.Stats(wireLines).Entries) })
	reg.GaugeFunc("draid_shard_cache_bytes", "NDJSON line-fragment bytes (fragments plus offsets) resident in the serving cache.",
		func() float64 { return float64(s.cache.Stats(wireLines).Bytes) })
	reg.CounterFunc("draid_shard_cache_hits_total", "NDJSON shard reads served from cached line fragments.",
		func() float64 { return float64(s.cache.Stats(wireLines).Hits) })
	reg.CounterFunc("draid_shard_cache_misses_total", "NDJSON shard reads that filled line fragments from the shard's sidecar.",
		func() float64 { return float64(s.cache.Stats(wireLines).Misses) })
	reg.CounterFunc("draid_shard_cache_evictions_total", "Line-fragment shards evicted by byte-budget pressure.",
		func() float64 { return float64(s.cache.Stats(wireLines).Evictions) })
	reg.CounterFunc("draid_shard_cache_invalidations_total", "Line-fragment shards removed by job eviction or release (DropPrefix).",
		func() float64 { return float64(s.cache.Stats(wireLines).Invalidations) })
	reg.CounterFunc("draid_shard_cache_rejections_total", "Line-fragment loads kept out of the full cache by admission (read less often than the LRU victim).",
		func() float64 { return float64(s.cache.Stats(wireLines).Rejections) })
	reg.GaugeFunc("draid_frame_cache_entries", "Shards resident in the serving cache as frame-ready payloads.",
		func() float64 { return float64(s.cache.Stats(wireFrames).Entries) })
	reg.GaugeFunc("draid_frame_cache_bytes", "Frame-ready payload bytes (payload plus offsets) resident in the serving cache.",
		func() float64 { return float64(s.cache.Stats(wireFrames).Bytes) })
	reg.CounterFunc("draid_frame_cache_hits_total", "Frame-wire shard reads served from cached payload bytes.",
		func() float64 { return float64(s.cache.Stats(wireFrames).Hits) })
	reg.CounterFunc("draid_frame_cache_misses_total", "Frame-wire shard reads that had to load the shard's payload (sidecar, or decode+encode).",
		func() float64 { return float64(s.cache.Stats(wireFrames).Misses) })
	reg.CounterFunc("draid_frame_cache_evictions_total", "Frame-payload shards evicted by byte-budget pressure.",
		func() float64 { return float64(s.cache.Stats(wireFrames).Evictions) })
	reg.CounterFunc("draid_frame_cache_invalidations_total", "Frame-payload shards removed by job eviction or release (DropPrefix).",
		func() float64 { return float64(s.cache.Stats(wireFrames).Invalidations) })
	reg.CounterFunc("draid_frame_cache_rejections_total", "Frame-payload loads kept out of the full cache by admission (read less often than the LRU victim).",
		func() float64 { return float64(s.cache.Stats(wireFrames).Rejections) })
	if c := s.opts.Cluster; c != nil {
		reg.GaugeFunc("draid_cluster_members", "Configured fleet size.",
			func() float64 { return float64(len(c.Nodes())) })
		reg.GaugeFunc("draid_cluster_peers_alive", "Fleet members currently passing probes.",
			func() float64 { return float64(c.AliveCount()) })
	}
	// The tenancy collector is registered unconditionally (nil-guarded),
	// like the ledger's, so the family set — and the docs-hygiene
	// contract over it — does not depend on server configuration.
	reg.GaugeFunc("draid_tenant_active_streams", "Batch streams currently drawing from the weighted-fair bandwidth budget.",
		func() float64 {
			if s.fair == nil {
				return 0
			}
			return float64(s.fair.activeStreams())
		})
	reg.CounterFunc("draid_ledger_records_total", "Records appended to the audit ledger.",
		func() float64 { return float64(s.ledger.Stats().Records) })
	reg.CounterFunc("draid_ledger_syncs_total", "fsync calls issued by the audit ledger (group commit amortizes these).",
		func() float64 { return float64(s.ledger.Stats().Syncs) })
	reg.CounterFunc("draid_ledger_bytes_total", "Bytes appended to the audit ledger.",
		func() float64 { return float64(s.ledger.Stats().Bytes) })
	reg.CounterFunc("draid_spans_recorded_total", "Completed spans recorded into the span store.",
		func() float64 { return float64(s.spans.Stats().Recorded) })
	reg.CounterFunc("draid_spans_dropped_total", "Recorded spans overwritten by ring pressure.",
		func() float64 { return float64(s.spans.Stats().Dropped) })
	reg.CounterFunc("draid_trace_notable_total", "Traces tail-sampled as notable (slow root or error).",
		func() float64 { return float64(s.spans.Stats().Notable) })
	reg.GaugeFunc("draid_trace_spans", "Spans currently resident in the recent ring.",
		func() float64 { return float64(s.spans.Stats().Resident) })
	if s.opts.Debug {
		reg.GaugeFunc("draid_goroutines", "Live goroutines (debug servers only).",
			func() float64 { return float64(runtime.NumGoroutine()) })
		// Both memory collectors read the snapshot handleMetrics took for
		// this scrape: ReadMemStats stops the world, and paying that
		// pause once per collector doubled the scrape's STW cost.
		reg.GaugeFunc("draid_heap_alloc_bytes", "Heap bytes in use (debug servers only).",
			func() float64 { return s.rtSample.heapAlloc() })
		reg.CounterFunc("draid_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time (debug servers only).",
			func() float64 { return s.rtSample.gcPause() })
	}
}

// runtimeSampler is one MemStats snapshot per /metrics scrape, shared
// by every collector that needs it.
type runtimeSampler struct {
	mu sync.Mutex
	ms runtime.MemStats
}

// refresh takes the snapshot (called once at the top of a scrape).
func (rs *runtimeSampler) refresh() {
	rs.mu.Lock()
	runtime.ReadMemStats(&rs.ms)
	rs.mu.Unlock()
}

func (rs *runtimeSampler) heapAlloc() float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return float64(rs.ms.HeapAlloc)
}

func (rs *runtimeSampler) gcPause() float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return float64(rs.ms.PauseTotalNs) / 1e9
}

// statusWriter captures the response status for the request histogram
// while passing flushes through — a batch stream flushes to send its
// first batch, before each wait and at the end, and must keep doing so
// under the middleware.
type statusWriter struct {
	w      http.ResponseWriter
	status int
}

func (sw *statusWriter) Header() http.Header { return sw.w.Header() }

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.w.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.w.Write(p)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.w.(http.Flusher); ok {
		f.Flush()
	}
}

// spanlessPath reports whether a request path is excluded from span
// creation: probes and scrapes arrive every few milliseconds in a
// fleet and would evict every interesting trace from the ring, and the
// trace endpoints reading the store must not write to it. Excluded
// requests still get trace IDs, latency observations, and log lines.
func spanlessPath(path string) bool {
	return path == "/healthz" || path == "/metrics" ||
		path == "/v1/traces" || strings.HasPrefix(path, "/v1/traces/") ||
		strings.HasPrefix(path, "/debug/")
}

// withTelemetry is the edge middleware: every request gets (or inherits
// via X-Draid-Trace) a trace ID — set on the request header so cluster
// forwards carry it, on the context so handlers and job records see it,
// and on the response so callers can correlate — plus an http.request
// root span (child of the proxying node's span when X-Draid-Span
// names one), a latency observation labeled by mux route pattern and
// status code with the trace as exemplar, and a structured log line:
// Debug normally, Info for 5xx or tail-sampling-slow requests so
// failures are visible without -debug.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get(telemetry.TraceHeader)
		if !telemetry.ValidTraceID(trace) {
			trace = telemetry.NewTraceID()
		}
		// Span attributes and log lines record the redacted path: a
		// ?access_token= credential must never rest in the span store or
		// the debug log (Authorization headers are never logged at all).
		var span *telemetry.Span
		if !spanlessPath(r.URL.Path) {
			parent, _ := telemetry.ParseSpanContext(r.Header.Get(telemetry.SpanHeader))
			span = s.spans.StartRoot("http.request", trace, parent)
			span.SetAttr("method", r.Method)
			span.SetAttr("path", tenant.RedactedPath(r))
			// Stamp our span as the parent for any outbound hop that
			// clones this request's headers (cluster.Forward does).
			r.Header.Set(telemetry.SpanHeader, span.Context().String())
		}
		r = r.WithContext(telemetry.ContextWithSpan(
			telemetry.WithTrace(r.Context(), trace), span))
		r.Header.Set(telemetry.TraceHeader, trace)
		w.Header().Set(telemetry.TraceHeader, trace)
		sw := &statusWriter{w: w}
		start := time.Now()
		// Observe in a defer so aborted proxy streams (which panic with
		// http.ErrAbortHandler by design) are still counted.
		defer func() {
			code := sw.status
			if code == 0 {
				code = http.StatusOK
			}
			route := r.Pattern // set by the mux; bounded cardinality
			if route == "" {
				route = "unmatched"
			}
			elapsed := time.Since(start)
			s.metrics.requestSeconds.With(route, strconv.Itoa(code)).
				ObserveWithExemplar(elapsed.Seconds(), trace)
			span.SetAttr("route", route)
			span.SetAttr("code", strconv.Itoa(code))
			if code >= 500 {
				span.SetError(http.StatusText(code))
			}
			span.End()
			level := slog.LevelDebug
			if code >= 500 || elapsed >= s.spans.SlowThreshold() {
				level = slog.LevelInfo
			}
			s.logger.Log(r.Context(), level, "http request",
				"method", r.Method, "path", tenant.RedactedPath(r), "status", code,
				"ms", float64(elapsed.Microseconds())/1000,
				"trace", trace)
		}()
		next.ServeHTTP(sw, r)
	})
}

// JobEvent is one entry in a job's lifecycle timeline.
type JobEvent = client.JobEvent

// addEvent appends a lifecycle event to a job's in-memory timeline.
// Most transitions are NOT separately persisted — replay re-derives
// them from the submitted/terminal records already in the ledger, so
// the hot path pays no extra fsyncs. Transitions replay cannot derive
// (adoption, requeue) go through addDurableEvent instead.
func (s *Server) addEvent(job *Job, event, detail string) {
	now := time.Now()
	job.mu.Lock()
	job.events = append(job.events, JobEvent{
		Event: event, Time: now, Node: s.nodeID(), Detail: detail, Trace: job.trace,
	})
	job.mu.Unlock()
}

// addDurableEvent records a transition replay cannot reconstruct from
// the other record types, persisting an event record alongside the
// in-memory append.
func (s *Server) addDurableEvent(job *Job, event, detail string) {
	s.addEvent(job, event, detail)
	_ = s.audit(context.Background(), ledger.TypeEvent, job.tenant, job.id, event, &jobBody{Error: detail, Trace: job.trace})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.routedElsewhere(w, r, r.PathValue("id")) {
		return
	}
	job := s.job(w, r)
	if job == nil {
		return
	}
	writeJSON(w, http.StatusOK, job.Events())
}
