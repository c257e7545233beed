// Package server is the draid serving tier: it turns the in-process
// data-readiness library into a facility service. Clients list the
// registry's domain templates, submit pipeline jobs that run
// asynchronously on a bounded worker pool, follow each job's readiness
// trajectory and provenance, and stream training batches from completed
// jobs' shard sets through an LRU shard cache. /metrics exposes the
// paper-facing accounting (latency histograms, jobs in flight, bytes
// served) in Prometheus text format via internal/telemetry, and every
// request carries a trace ID (X-Draid-Trace) across fleet hops.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/domain"
	"repro/internal/ledger"
	"repro/internal/provenance"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/pkg/client"
)

// Options tunes a Server.
type Options struct {
	// Workers bounds concurrent pipeline executions. <=0 means 2.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; submissions beyond it
	// are rejected with 429 (explicit backpressure, not unbounded RAM).
	// <=0 means 64.
	QueueDepth int
	// CacheBytes budgets the decoded-shard LRU cache. <=0 disables it.
	CacheBytes int64
	// FrameCacheBytes budgets the encoded-frame shard cache: each
	// shard's records are packed into frame-ready payload bytes once,
	// and frame-wire batches are then served by slicing byte ranges —
	// no per-request tensor marshalling. <=0 disables it (frame batches
	// serve from on-store sidecars, or encode per request). NDJSON
	// streams never use it.
	FrameCacheBytes int64
	// ServeCacheBytes, when positive, replaces the independent
	// CacheBytes/FrameCacheBytes budgets with ONE byte budget shared by
	// the decoded-shard and encoded-frame caches (the -serve-cache-mb
	// arena). Eviction is weighted: encoded payloads are cheap to
	// refill from frame sidecars, so they are evicted preferentially;
	// decoded entries only pay once frames hold a small fraction of the
	// resident bytes. <=0 keeps the split budgets.
	ServeCacheBytes int64
	// DisableFrameStore turns the on-store frame sidecar tier off
	// entirely: sidecars are neither written at job completion, nor
	// read, nor backfilled — every cold frame stream pays the full
	// decode+encode. Benchmarks and byte-exactness tests use it as the
	// encode-per-request reference; production servers leave it off.
	DisableFrameStore bool
	// ServeMaxKBps caps every batch stream's throughput (KiB/second,
	// token bucket per stream). <=0 leaves streams unpaced. Clients may
	// lower their own stream's cap with ?max_kbps= but never raise it
	// above this server-wide ceiling.
	ServeMaxKBps int
	// ServeBudgetKBps is the global weighted-fair bandwidth budget
	// (KiB/second) shared by ALL batch streams: split across active
	// tenants by their configured weights, then evenly across each
	// tenant's streams, re-evaluated continuously as streams open and
	// close. A per-stream ?max_kbps= (or ServeMaxKBps) still caps a
	// stream below its fair share, never above. <=0 keeps the
	// independent per-stream pacing only.
	ServeBudgetKBps int

	// Tenants enables bearer-token authentication: every request (bar
	// /healthz and /metrics) must present a registered tenant's token,
	// job visibility is scoped to the owning tenant, and per-tenant
	// quotas and weights apply. Nil keeps the server open — existing
	// single-user behavior, byte for byte.
	Tenants *tenant.Registry
	// LedgerBatch is the audit ledger's Merkle batch size (records per
	// published root). <=0 uses the ledger default (64). Only
	// meaningful with DataDir set — the ledger lives there.
	LedgerBatch int
	// LedgerFlushWait is the audit ledger's group-commit window: how
	// long the first appender waits for followers before one fsync
	// covers them all. 0 uses the default (2ms); negative syncs every
	// append individually.
	LedgerFlushWait time.Duration

	// DataDir makes the server durable: job shard sets are written to
	// DataDir/jobs/<id> (FSSink) and every job transition is appended to
	// DataDir/jobs.log, which New replays so a restarted server re-serves
	// completed jobs from disk. Empty keeps everything in memory.
	DataDir string
	// JobTTL evicts completed (done or failed) jobs idle longer than
	// this — their shard directories are deleted and the eviction is
	// logged. <=0 disables TTL eviction.
	JobTTL time.Duration
	// MaxJobs bounds retained completed jobs; beyond it the least
	// recently served are evicted. <=0 means unbounded.
	MaxJobs int

	// NewStore overrides per-job shard storage (benchmarks route jobs
	// through a parfs-backed store with it). Nil picks FSSink under
	// DataDir, or MemSink when DataDir is empty.
	NewStore func(jobID string) (shard.Store, error)

	// Cluster makes this server a fleet member: job-addressed requests
	// are routed to their consistent-hash owner, /v1/cluster reports
	// membership, and jobs stranded by dead members are adopted from
	// the shared DataDir (which every member must point at the same
	// parallel filesystem). The server takes over the cluster's
	// lifecycle: New starts its probing, Close stops it. Requires
	// DataDir (or a shared NewStore) for failover to mean anything.
	Cluster *cluster.Cluster
	// Requeue resubmits jobs replayed in queued/running state instead
	// of marking them failed: their partial output is wiped and the
	// deterministic spec (seeds included) reruns on this node's pool.
	Requeue bool

	// TraceSlow is the tail-sampling threshold: requests whose root span
	// lasts at least this long (or ends in error) have their whole trace
	// retained in the notable ring and are logged at Info even without
	// Debug. <=0 means 250ms.
	TraceSlow time.Duration
	// TraceSpans bounds the recent-span ring (completed spans retained
	// per node). <=0 means 4096.
	TraceSpans int
	// TraceNotable bounds the tail-sampled notable-trace ring. <=0
	// means 32.
	TraceNotable int

	// Debug exposes /debug/pprof and the runtime gauges (goroutines,
	// heap bytes, cumulative GC pause) on /metrics. Off by default: the
	// runtime gauges cost a ReadMemStats per scrape and the profiler
	// endpoints do not belong on an unguarded production port.
	Debug bool
	// Logger receives the server's structured log (every record carries
	// the request trace ID and this node's fleet ID). Nil discards —
	// embedding tests stay quiet unless they opt in.
	Logger *slog.Logger
}

// Server is the draid HTTP service. Create with New, serve via Handler,
// stop with Close.
type Server struct {
	mux     *http.ServeMux
	handler http.Handler               // mux wrapped in the telemetry middleware
	cache   *ShardCache[[]any]         // decoded shard records
	frames  *ShardCache[*encodedShard] // frame-ready shard payload bytes
	opts    Options
	// frameCacheOn records whether the frame cache has a byte budget
	// (its own or the shared arena's) — the frame-wire serving path's
	// cache-vs-disk switch.
	frameCacheOn bool

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order for listing
	seq    int
	closed bool

	queue chan *Job
	stop  chan struct{}
	wg    sync.WaitGroup

	// Durability (nil/empty when DataDir is unset).
	log      *jobLog
	master   []byte
	nodeLock *shard.NodeLock
	// ledger is the append-only audit log (nil without DataDir);
	// peerAuth is the master-key-derived fleet-internal secret.
	ledger   *ledger.Ledger
	peerAuth string

	// Tenancy (tenants nil = open server). fair is the global
	// weighted-fair bandwidth pool (nil without ServeBudgetKBps).
	tenants *tenant.Registry
	fair    *fairShare
	// tenantMu guards the quota counters below; it is a leaf lock
	// (see auth.go).
	tenantMu    sync.Mutex
	tenantJobs  map[string]int   // tenant -> jobs queued or running
	tenantBytes map[string]int64 // tenant -> retained shard bytes of done jobs

	// adoptMu serializes shared-log adoption scans (probe callbacks and
	// request-path misses can race into adoptOrphans) and guards the
	// scan memo below, which lets repeated misses skip unchanged logs.
	adoptMu sync.Mutex
	scanSig string
	scanIDs map[string]bool

	// metrics is the server's telemetry registry: all counters and
	// gauges move at the transition that changes them, so a /metrics
	// scrape never takes s.mu (see TestMetricsScrapeDoesNotBlock).
	metrics *serverMetrics
	// spans is the per-node span store behind /v1/traces. Its lock
	// stripes are private to the store — recording on the serving hot
	// path never contends with s.mu or any cache lock.
	spans    *telemetry.SpanStore
	rtSample runtimeSampler
	logger   *slog.Logger
}

// New starts a server's worker pool and registers its routes. With
// Options.DataDir set it also replays the persisted job log, so
// completed jobs from previous runs are immediately servable.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	// The unified arena gives each cache the full joint budget as its
	// individual ceiling; the arena's weighted rebalance is what keeps
	// their sum under it.
	cacheBytes, frameBytes := opts.CacheBytes, opts.FrameCacheBytes
	if opts.ServeCacheBytes > 0 {
		cacheBytes, frameBytes = opts.ServeCacheBytes, opts.ServeCacheBytes
	}
	s := &Server{
		mux:         http.NewServeMux(),
		cache:       NewShardCache[[]any](cacheBytes),
		frames:      NewShardCache[*encodedShard](frameBytes),
		opts:        opts,
		jobs:        make(map[string]*Job),
		queue:       make(chan *Job, opts.QueueDepth),
		stop:        make(chan struct{}),
		metrics:     newServerMetrics(),
		logger:      opts.Logger,
		tenants:     opts.Tenants,
		tenantJobs:  make(map[string]int),
		tenantBytes: make(map[string]int64),
	}
	if opts.ServeBudgetKBps > 0 {
		s.fair = newFairShare(int64(opts.ServeBudgetKBps) << 10)
	}
	s.frameCacheOn = frameBytes > 0
	if opts.ServeCacheBytes > 0 {
		arena := &cacheArena{budget: opts.ServeCacheBytes, frames: s.frames, decoded: s.cache}
		s.cache.arena, s.frames.arena = arena, arena
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	// Fleet members tag every line with their ID once here, so call
	// sites don't emit a noisy node="" in single-node mode.
	if id := s.nodeID(); id != "" {
		s.logger = s.logger.With("node", id)
	}
	s.spans = telemetry.NewSpanStore(s.nodeID(), opts.TraceSpans, opts.TraceNotable, opts.TraceSlow)
	s.registerCollectors()
	if opts.DataDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	s.routes()
	// Auth sits inside telemetry so 401s are traced and latency-counted
	// like everything else, but outside the mux so no handler ever runs
	// without an identity when tenancy is on.
	s.handler = s.withTelemetry(s.withAuth(s.mux))
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	if opts.JobTTL > 0 || opts.MaxJobs > 0 || s.tenantByteQuotas() {
		s.wg.Add(1)
		go s.evictLoop()
	}
	if opts.Cluster != nil {
		// Membership transitions trigger adoption of whatever the new
		// ring says is ours; probing starts only once the job table is
		// replayed so adoption never races the initial restore.
		opts.Cluster.SetOnChange(func() { s.adoptOrphans("") })
		opts.Cluster.Start()
	}
	return s, nil
}

// syncDir is shard.SyncDir behind a variable so the crash-consistency
// tests can observe which directories the server makes durable.
var syncDir = shard.SyncDir

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// newStore allocates the shard storage backing one job.
func (s *Server) newStore(jobID string) (shard.Store, error) {
	if s.opts.NewStore != nil {
		return s.opts.NewStore(jobID)
	}
	if s.opts.DataDir != "" {
		return shard.NewFSSink(filepath.Join(s.opts.DataDir, "jobs", jobID))
	}
	return shard.NewMemSink(), nil
}

// openDurable prepares the data directory and rebuilds the job table
// from the persisted log. In cluster mode the data dir is shared by the
// fleet: this node registers a heartbeating lock file, appends to its
// own per-node log (so members never interleave writes into one file),
// replays the merged logs of every member, and keeps only the jobs the
// ring assigns to it.
func (s *Server) openDurable() error {
	if err := os.MkdirAll(filepath.Join(s.opts.DataDir, "jobs"), 0o755); err != nil {
		return fmt.Errorf("server: create data dir: %w", err)
	}
	master, err := loadOrCreateMasterKey(s.opts.DataDir)
	if err != nil {
		return err
	}
	s.master = master
	// Fleet-internal requests authenticate with a secret derived from
	// the shared master key — every member of this data dir computes the
	// same value, so peer hops survive tenancy without key distribution.
	s.peerAuth = peerAuthSecret(master)
	if c := s.opts.Cluster; c != nil {
		c.SetPeerAuth(s.peerAuth)
	}
	selfID, logName, ledgerName := "", "jobs.log", "audit.log"
	if c := s.opts.Cluster; c != nil {
		selfID = c.Self().ID
		logName = "jobs-" + selfID + ".log"
		ledgerName = "audit-" + selfID + ".log"
		lock, err := shard.AcquireNodeLock(filepath.Join(s.opts.DataDir, "nodes"), selfID, c.Self().URL, nodeLockStale)
		if err != nil {
			return err
		}
		s.nodeLock = lock
	}
	recs, err := readAllJobLogs(s.opts.DataDir)
	if err != nil {
		return err
	}
	logPath := filepath.Join(s.opts.DataDir, logName)
	ledgerPath := filepath.Join(s.opts.DataDir, ledgerName)
	created := !fileExists(logPath) || !fileExists(ledgerPath)
	log, err := openJobLog(logPath)
	if err != nil {
		return err
	}
	s.log = log
	led, err := ledger.Open(ledger.Config{
		Path:      ledgerPath,
		Node:      selfID,
		BatchSize: s.opts.LedgerBatch,
		FlushWait: s.opts.LedgerFlushWait,
	})
	if err != nil {
		return err
	}
	s.ledger = led
	if created {
		// Every append fsyncs its log's bytes, never the log's name: until
		// the data dir itself is synced a power cut can take a whole log —
		// and every done record in it — while the shard sets those records
		// committed survive. The same sync covers jobs/ and master.key.
		if err := syncDir(s.opts.DataDir); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	states, maxSeq := replayJobs(recs, selfID)
	s.seq = maxSeq
	var requeued []*Job
	for _, st := range states {
		if s.opts.Cluster != nil && !s.opts.Cluster.IsLocal(st.sub.ID) {
			continue // another live member's job; adoption picks it up if that member dies
		}
		// Same guard as adoption: a non-terminal job whose accepting
		// member still heartbeats its lock file is running, not lost.
		if s.opts.Cluster != nil && !st.hasTerm &&
			st.sub.Node != "" && st.sub.Node != selfID && s.nodeLockFresh(st.sub.Node) {
			continue
		}
		job, requeue, err := s.restoreJob(st)
		if err != nil {
			return err
		}
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
		if job.state == JobDone {
			s.quotaRetain(job.tenant, manifestStoredBytes(job.manifest))
		}
		if requeue {
			requeued = append(requeued, job)
		}
	}
	for _, job := range requeued {
		s.enqueueRestored(job)
	}
	s.metrics.jobsTotal.Set(float64(len(s.jobs)))
	return nil
}

// enqueueRestored resubmits a job replayed in queued/running state: its
// partial shard output is wiped so the deterministic rerun starts
// clean. Queue overflow (more interrupted jobs than QueueDepth) falls
// back to the non-requeue behaviour — the job is marked failed.
func (s *Server) enqueueRestored(job *Job) {
	if st, err := s.newStore(job.id); err == nil {
		if d, ok := st.(interface{ Destroy() error }); ok {
			_ = d.Destroy()
		}
	}
	select {
	case s.queue <- job:
		s.quotaActivate(job.tenant)
		s.metrics.jobsQueued.Add(1)
		s.addDurableEvent(job, client.EventRequeued, "interrupted job resubmitted after restart")
		s.logger.Info("job requeued", "job", job.id, "trace", job.trace)
	default:
		job.mu.Lock()
		job.state = JobFailed
		job.err = "requeue: job queue full"
		job.finished = time.Now()
		job.mu.Unlock()
		s.metrics.jobsFailed.Inc()
		s.addEvent(job, client.EventFailed, "requeue: job queue full", "")
		s.persistTerminal(job, "")
	}
}

// restoreJob rebuilds one job from its log records. Jobs the crash
// caught queued or running come back as failed (their partial output
// is gone) — or, with Options.Requeue, as queued again (the caller
// enqueues them). Done jobs reattach to their on-disk shard set and
// reimport their persisted provenance DAG.
func (s *Server) restoreJob(st *replayState) (job *Job, requeue bool, err error) {
	job = &Job{
		id:         st.sub.ID,
		spec:       *st.sub.Spec,
		submitted:  st.sub.Time,
		lastAccess: st.sub.Time,
		trace:      st.sub.Trace,
		tenant:     st.sub.Tenant,
		events:     replayEvents(st),
	}
	if !st.hasTerm {
		if s.opts.Requeue {
			job.state = JobQueued
			return job, true, nil
		}
		job.state = JobFailed
		job.err = "interrupted by server restart"
		job.events = append(job.events, JobEvent{
			Event: client.EventFailed, Time: time.Now(), Node: s.nodeID(),
			Detail: job.err, Trace: job.trace,
		})
		// Record the loss so the next replay converges without this branch.
		_ = s.log.append(logRecord{Type: recFailed, ID: job.id, Time: time.Now(), Error: job.err, Node: s.nodeID()})
		return job, false, nil
	}
	rec := st.rec
	job.started = rec.Started
	job.finished = rec.Time
	job.lastAccess = rec.Time
	if len(rec.Provenance) > 0 {
		if tr, perr := provenance.Import(rec.Provenance); perr == nil {
			job.tracker = tr
		}
	}
	if rec.Type == recFailed {
		job.state = JobFailed
		job.err = rec.Error
		return job, false, nil
	}
	job.state = JobDone
	job.records = rec.Records
	job.trajectory = rec.Traject
	// A job is servable whenever a manifest-indexed shard set exists and
	// its domain has a plugin. (Logs predating the plugin architecture
	// recorded servable=false for fusion/materials jobs even though
	// their manifests were persisted — those become streamable on
	// replay, which is exactly the upgrade this field order buys.)
	job.manifest = rec.Manifest
	plug, perr := domain.Lookup(job.spec.Domain)
	job.servable = rec.Manifest != nil && perr == nil
	if !job.servable {
		return job, false, nil
	}
	store, err := s.newStore(job.id)
	if err != nil {
		return nil, false, err
	}
	// Trust the on-store manifest over the log copy when present: it is
	// committed atomically alongside the shards it describes. Stores
	// without manifest persistence (parfs) serve from the log copy.
	if lm, ok := store.(interface {
		LoadManifest() (*shard.Manifest, error)
	}); ok {
		if m, merr := lm.LoadManifest(); merr == nil {
			job.manifest = m
		}
	}
	job.store = store
	job.open = store
	if rec.SealedKey != "" {
		key, err := unsealJobKey(s.master, rec.SealedKey, job.id)
		if err != nil {
			job.state = JobFailed
			job.err = fmt.Sprintf("restore: %v", err)
			job.servable = false
			return job, false, nil
		}
		job.key = key
		job.open = plug.Opener(store, key)
	}
	if len(job.manifest.Shards) > 0 &&
		store.Size(plug.StoredName(job.manifest.Shards[0].Name, job.key != nil)) == 0 {
		job.state = JobFailed
		job.err = "restore: shard files missing from data dir"
		job.servable = false
	}
	return job, false, nil
}

// nodeID is this server's fleet member ID ("" single-node).
func (s *Server) nodeID() string {
	if c := s.opts.Cluster; c != nil {
		return c.Self().ID
	}
	return ""
}

// Handler returns the HTTP handler (also usable under httptest): the
// route mux wrapped in the telemetry middleware, so every request is
// traced, latency-observed, and logged.
func (s *Server) Handler() http.Handler { return s.handler }

// Close initiates graceful shutdown: no new submissions are accepted,
// running jobs finish, and workers exit. Jobs still queued stay queued
// and are reported as such.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.opts.Cluster != nil {
		// Stop probing first so no adoption scan starts mid-shutdown.
		s.opts.Cluster.Close()
	}
	close(s.stop)
	s.wg.Wait()
	if s.log != nil {
		_ = s.log.close()
	}
	if s.ledger != nil {
		_ = s.ledger.Close()
	}
	if s.nodeLock != nil {
		_ = s.nodeLock.Release()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Check stop first: a blocking select alone picks randomly when
		// both channels are ready, which would keep draining a full
		// queue instead of shutting down.
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case job := <-s.queue:
			s.runJob(job)
		}
	}
}

func (s *Server) runJob(job *Job) {
	job.mu.Lock()
	job.state = JobRunning
	job.started = time.Now()
	spec := job.spec
	trace := job.trace
	submitted := job.submitted
	started := job.started
	job.mu.Unlock()
	s.metrics.jobsQueued.Add(-1)
	s.metrics.jobsInFlight.Add(1)
	defer s.metrics.jobsInFlight.Add(-1)
	s.addEvent(job, client.EventRunning, "", "")
	s.logger.Info("job running", "job", job.id, "domain", string(spec.Domain), "trace", trace)

	// Job spans live in the submission's trace but are top-level there:
	// the submission request span ended long before the worker picked the
	// job up, so parenting under it would violate interval nesting.
	var runSpan *telemetry.Span
	if telemetry.ValidTraceID(trace) {
		s.spans.Record(telemetry.SpanData{
			TraceID: trace, SpanID: telemetry.NewSpanID(), Name: "job.wait",
			Start: submitted, End: started,
			Attrs: map[string]string{"job": job.id},
		})
		runSpan = s.spans.StartChild("job.run", telemetry.SpanContext{TraceID: trace})
		runSpan.SetAttr("job", job.id)
		runSpan.SetAttr("domain", string(spec.Domain))
	}

	var res *jobResult
	var pipeStart time.Time
	store, err := s.newStore(job.id)
	if err == nil {
		pipeStart = time.Now()
		res, err = runSpec(spec, store)
		s.metrics.observeStage("job:"+string(spec.Domain), time.Since(pipeStart).Seconds(), 1, 0)
	}
	// Frame-ready sidecars are written before the commit so they ride the
	// shard set's one barrier and the first cold frame stream already
	// serves from the disk tier. Best effort: a failed build costs
	// decode+encode (and a lazy backfill) later, never the job.
	if err == nil && res.servable && res.manifest != nil {
		s.buildJobSidecars(job, store, res.manifest, res.key)
	}
	// Commit durable state before announcing success, so clients never
	// observe a done job that later un-happens.
	var sealedKey string
	if err == nil && s.log != nil {
		sealedKey, err = s.commitJob(job.id, store, res)
	}

	job.mu.Lock()
	job.finished = time.Now()
	job.lastAccess = job.finished
	job.store = store
	if res != nil {
		job.trajectory = res.trajectory
		job.tracker = res.tracker
	}
	if err != nil {
		job.state = JobFailed
		job.err = err.Error()
		job.mu.Unlock()
		s.quotaDeactivate(job.tenant)
		runSpan.SetError(err.Error())
		runSpan.End()
		s.metrics.jobsFailed.Inc()
		s.addEvent(job, client.EventFailed, err.Error(), "")
		s.logger.Info("job failed", "job", job.id, "error", err.Error(), "trace", trace)
		s.persistTerminal(job, "")
		s.maybeEvict()
		return
	}
	job.records = res.records
	job.manifest = res.manifest
	job.open = res.open
	job.key = res.key
	job.servable = res.servable && res.manifest != nil
	job.state = JobDone
	job.mu.Unlock()
	s.quotaDeactivate(job.tenant)
	s.quotaRetain(job.tenant, manifestStoredBytes(res.manifest))
	s.metrics.jobsDone.Inc()
	s.addEvent(job, client.EventDone, "", "")
	s.logger.Info("job done", "job", job.id, "records", res.records, "trace", trace)
	s.persistTerminal(job, sealedKey)
	s.maybeEvict()

	// Fold the pipeline's per-stage timings into the stage counters so
	// /metrics aggregates stage cost across all jobs.
	for _, st := range res.pipe.Collector.ByStage() {
		s.metrics.observeStage(st.Stage, st.Total.Seconds(), int64(st.Calls), st.Bytes)
	}

	// Synthesize job.stage child spans from the pipeline's sample record:
	// samples were taken sequentially during runSpec, so laying them end
	// to end from the pipeline start reconstructs the stage timeline
	// (clamped so children never escape job.run's interval).
	if runSpan != nil {
		parent := runSpan.Context()
		cursor := pipeStart
		for _, sm := range res.pipe.Collector.Samples() {
			end := cursor.Add(sm.Duration)
			if end.After(time.Now()) {
				end = time.Now()
			}
			s.spans.Record(telemetry.SpanData{
				TraceID: parent.TraceID, SpanID: telemetry.NewSpanID(), Parent: parent.SpanID,
				Name: "job.stage", Start: cursor, End: end,
				Attrs: map[string]string{"stage": sm.Stage, "category": sm.Category},
			})
			cursor = end
		}
		runSpan.End()
	}
}

// commitJob is a job's one durability point. Nothing the pipeline and
// the sidecar build wrote has been fsynced by its writer (shard.FSSink
// syncs behind them): the barrier makes every file and its directory
// entry durable, only then is the manifest published, and only after
// this returns may the caller log the terminal record. A power cut
// before that record leaves a job that replay reruns or fails; after
// it, everything the record promises is on disk.
func (s *Server) commitJob(id string, store shard.Store, res *jobResult) (sealedKey string, err error) {
	if sy, ok := store.(shard.Syncer); ok {
		if err := sy.Sync(); err != nil {
			return "", fmt.Errorf("commit shard set: %w", err)
		}
	}
	if ms, ok := store.(interface{ WriteManifest(*shard.Manifest) error }); ok && res.manifest != nil {
		if err := ms.WriteManifest(res.manifest); err != nil {
			return "", err
		}
	}
	if res.key == nil {
		return "", nil
	}
	return sealJobKey(s.master, res.key, id)
}

// persistTerminal appends a finished job's terminal log record (the
// shard set and manifest were already committed to disk by commitJob
// before the job was declared done). Without a data dir it is a no-op.
func (s *Server) persistTerminal(job *Job, sealedKey string) {
	if s.log == nil {
		return
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	rec := logRecord{
		ID:      job.id,
		Time:    job.finished,
		Started: job.started,
		Node:    s.nodeID(),
	}
	if job.state == JobFailed {
		rec.Type = recFailed
		rec.Error = job.err
	} else {
		rec.Type = recDone
		rec.Records = job.records
		rec.Servable = job.servable
		rec.Manifest = job.manifest
		rec.Traject = job.trajectory
		rec.SealedKey = sealedKey
	}
	// The lineage DAG rides along on every terminal record so replayed
	// jobs keep serving /provenance (a failed run's partial lineage is
	// worth as much as a successful one's for debugging).
	if job.tracker != nil {
		if b, perr := job.tracker.Export(); perr == nil {
			rec.Provenance = b
		}
	}
	_ = s.log.append(rec)
}

// evictLoop applies TTL eviction on a timer (LRU pressure is also
// checked at every job completion).
func (s *Server) evictLoop() {
	defer s.wg.Done()
	interval := time.Second
	if ttl := s.opts.JobTTL; ttl > 0 {
		interval = ttl / 4
		if interval < 50*time.Millisecond {
			interval = 50 * time.Millisecond
		}
		if interval > 30*time.Second {
			interval = 30 * time.Second
		}
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.maybeEvict()
		}
	}
}

// maybeEvict removes completed jobs past the TTL or beyond the
// retained-job bound (least recently served first), deleting their
// shard storage and logging the eviction so a restart does not
// resurrect them. In-flight streams of a victim fail on their next
// uncached shard read — the same contract as any storage eviction.
func (s *Server) maybeEvict() {
	ttl, maxJobs := s.opts.JobTTL, s.opts.MaxJobs
	if ttl <= 0 && maxJobs <= 0 && !s.tenantByteQuotas() {
		return
	}
	now := time.Now()
	var victims, released []*Job

	s.mu.Lock()
	type candidate struct {
		job  *Job
		last time.Time
	}
	var completed []candidate
	for _, j := range s.jobs {
		// In a fleet only the current ring owner may evict: destroying
		// a shard set out from under the member actually serving it
		// (after ownership moved back) would be a cross-node eviction
		// race on the shared dir. A copy we no longer own (adopted
		// during an outage, owner since returned) is instead released —
		// dropped from the table and cache, storage untouched — so it
		// neither lingers forever nor serves a dir the owner may evict.
		if c := s.opts.Cluster; c != nil && !c.IsLocal(j.id) {
			j.mu.Lock()
			terminal := j.state == JobDone || j.state == JobFailed
			j.mu.Unlock()
			if terminal {
				released = append(released, j)
			}
			continue
		}
		j.mu.Lock()
		terminal := j.state == JobDone || j.state == JobFailed
		last := j.lastAccess
		j.mu.Unlock()
		if !terminal {
			continue
		}
		if ttl > 0 && now.Sub(last) > ttl {
			victims = append(victims, j)
			continue
		}
		completed = append(completed, candidate{job: j, last: last})
	}
	if maxJobs > 0 && len(completed) > maxJobs {
		sort.Slice(completed, func(i, k int) bool {
			return completed[i].last.Before(completed[k].last)
		})
		for _, c := range completed[:len(completed)-maxJobs] {
			victims = append(victims, c.job)
		}
	}
	if s.tenants != nil {
		// Tenant byte-quota pressure: a tenant past its retained-bytes cap
		// has its least recently served completed jobs evicted until it
		// fits again, so over-quota hoarding degrades into LRU turnover
		// instead of freezing the tenant's submissions forever. Reading a
		// victim's manifest without its lock is safe here: the state read
		// above confirmed the job terminal under job.mu, after which the
		// manifest never changes.
		chosen := make(map[string]bool, len(victims))
		for _, j := range victims {
			chosen[j.id] = true
		}
		over := make(map[string]int64)
		for _, t := range s.tenants.Tenants() {
			if t.MaxShardBytes <= 0 {
				continue
			}
			usage := s.tenantRetained(t.ID)
			for _, j := range victims {
				if j.tenant == t.ID {
					usage -= manifestStoredBytes(j.manifest)
				}
			}
			if usage > t.MaxShardBytes {
				over[t.ID] = usage - t.MaxShardBytes
			}
		}
		if len(over) > 0 {
			sort.Slice(completed, func(i, k int) bool {
				return completed[i].last.Before(completed[k].last)
			})
			for _, c := range completed {
				j := c.job
				if chosen[j.id] || over[j.tenant] <= 0 {
					continue
				}
				bytes := manifestStoredBytes(j.manifest)
				if bytes <= 0 {
					continue
				}
				victims = append(victims, j)
				chosen[j.id] = true
				over[j.tenant] -= bytes
			}
		}
	}
	if len(victims) == 0 && len(released) == 0 {
		s.mu.Unlock()
		return
	}
	gone := make(map[string]bool, len(victims)+len(released))
	for _, j := range victims {
		gone[j.id] = true
		delete(s.jobs, j.id)
	}
	for _, j := range released {
		gone[j.id] = true
		delete(s.jobs, j.id)
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if !gone[id] {
			kept = append(kept, id)
		}
	}
	s.order = kept
	s.metrics.jobsTotal.Set(float64(len(s.jobs)))
	s.mu.Unlock()

	for _, j := range released {
		s.cache.DropPrefix(j.id + "/")
		s.frames.DropPrefix(j.id + "/")
		// The ring owner re-retains these bytes on its side; this copy no
		// longer charges the tenant here.
		s.quotaRelease(j.tenant, manifestStoredBytes(j.manifest))
	}
	for _, j := range victims {
		// Destroy the shard files before invalidating the caches: a load
		// that starts in the gap then either fails (files gone — nothing
		// inserted) or completes before DropPrefix and is swept or
		// tombstoned by it. The reverse order would let a load beginning
		// just after DropPrefix read still-present files and cache the
		// deleted job's records forever.
		if d, ok := j.store.(interface{ Destroy() error }); ok {
			_ = d.Destroy()
		} else if s.opts.DataDir != "" {
			// Restored jobs without an attached store (failed or
			// interrupted) may still own a shard directory.
			_ = os.RemoveAll(filepath.Join(s.opts.DataDir, "jobs", j.id))
		}
		s.cache.DropPrefix(j.id + "/")
		s.frames.DropPrefix(j.id + "/")
		if s.log != nil {
			_ = s.log.append(logRecord{Type: recEvicted, ID: j.id, Time: now, Node: s.nodeID()})
		}
		s.quotaRelease(j.tenant, manifestStoredBytes(j.manifest))
		s.audit(ledger.TypeEvict, j.tenant, j.id, "retention")
		s.metrics.jobsEvicted.Inc()
		s.logger.Info("job evicted", "job", j.id)
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /v1/templates", s.handleTemplates)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/provenance", s.handleProvenance)
	s.mux.HandleFunc("GET /v1/jobs/{id}/batches", s.handleBatches)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /v1/audit/roots", s.handleAuditRoots)
	s.mux.HandleFunc("GET /v1/audit/proof", s.handleAuditProof)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.Debug {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// TemplateInfo is the catalog entry served by /v1/templates: the wire
// kind, the negotiable wire formats, and whether completed jobs stream
// at all — discovery fields so clients pick a decoder instead of
// probing for 409s.
type TemplateInfo = client.TemplateInfo

func (s *Server) handleTemplates(w http.ResponseWriter, _ *http.Request) {
	plugs := domain.Plugins()
	out := make([]TemplateInfo, len(plugs))
	for i, p := range plugs {
		info := TemplateInfo{Domain: string(p.Domain), Kind: p.Codec.Kind(),
			Wires: domain.Wires(), Servable: true}
		if t, err := registry.Lookup(p.Domain); err == nil {
			info.Description = t.Description
		}
		out[i] = info
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode job spec: %w", err))
		return
	}
	// Gate on the plugin seam (not the registry): a spec is runnable iff
	// a domain plugin exists — the same lookup runSpec will do.
	if _, err := domain.Lookup(spec.Domain); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.clusterMode() {
		s.clusterSubmit(w, r, spec)
		return
	}
	s.submitLocal(w, spec, "", telemetry.TraceFrom(r.Context()), tenant.FromContext(r.Context()).ID)
}

// submitLocal enqueues a job on this node. An empty id allocates the
// next sequence number; a pre-assigned id (cluster routing) is used
// verbatim after a collision check. trace is the submitting request's
// trace ID — recorded on the job and in its log record so the whole
// lifecycle correlates back to the request. tenantID is the
// authenticated submitter ("" with auth off): it owns the job for
// scoping, is charged for it under quotas, and rides on the log record
// so ownership survives replay and adoption.
func (s *Server) submitLocal(w http.ResponseWriter, spec JobSpec, id, trace, tenantID string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down"))
		return
	}
	if id == "" {
		s.seq++
		id = s.jobID(s.seq)
	} else if _, exists := s.jobs[id]; exists {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("job %q already exists", id))
		return
	}
	var ten *tenant.Tenant
	if s.tenants != nil && tenantID != "" {
		if t, ok := s.tenants.Get(tenantID); ok {
			ten = t
		}
	}
	if err := s.quotaAdmit(ten); err != nil {
		s.mu.Unlock()
		s.metrics.tenantQuotaRejections.Inc()
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	job := &Job{
		id:        id,
		spec:      spec,
		state:     JobQueued,
		submitted: time.Now(),
		trace:     trace,
		tenant:    tenantID,
	}
	if job.spec.Name == "" {
		job.spec.Name = job.id
	}
	job.events = []JobEvent{
		{Event: client.EventSubmitted, Time: job.submitted, Node: s.nodeID(), Trace: trace},
		{Event: client.EventQueued, Time: job.submitted, Node: s.nodeID(), Trace: trace},
	}
	select {
	case s.queue <- job:
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
		s.metrics.jobsTotal.Set(float64(len(s.jobs)))
		s.mu.Unlock()
		s.metrics.jobsQueued.Add(1)
		if s.log != nil {
			spec := job.spec
			_ = s.log.append(logRecord{
				Type: recSubmitted, ID: job.id, Time: job.submitted, Spec: &spec,
				Node: s.nodeID(), Trace: trace, Tenant: tenantID,
			})
		}
		s.audit(ledger.TypeSubmit, tenantID, job.id, string(spec.Domain))
		s.logger.Info("job submitted", "job", job.id, "domain", string(spec.Domain), "trace", trace)
		writeJSON(w, http.StatusAccepted, s.decorate(job.Status()))
	default:
		s.mu.Unlock()
		if ten != nil {
			s.quotaDeactivate(ten.ID)
		}
		writeError(w, http.StatusTooManyRequests, fmt.Errorf("job queue full (%d waiting)", cap(s.queue)))
	}
}

// decorate stamps a status with this node's fleet identity.
func (s *Server) decorate(st JobStatus) JobStatus {
	st.Node = s.nodeID()
	return st
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ident := tenant.FromContext(r.Context())
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		if s.tenants != nil && !ident.CanAccess(j.tenant) {
			continue
		}
		out = append(out, s.decorate(j.Status()))
	}
	if s.clusterMode() && r.URL.Query().Get("scope") != "local" && !cluster.Forwarded(r) {
		out = s.mergeClusterList(out, ident.ID)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok && s.clusterMode() && s.opts.DataDir != "" {
		// The job may be stranded on the shared dir by a dead member
		// whose hash range just became ours: adopt it on the spot.
		// Malformed IDs can't name a logged job — don't scan for them.
		if _, _, valid := parseJobID(id); valid {
			job = s.adoptJob(id)
			ok = job != nil
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil
	}
	if s.tenants != nil {
		if ident := tenant.FromContext(r.Context()); !ident.CanAccess(job.tenant) {
			// 403 (not a job-hiding 404): the ID namespace is sequential
			// and node-prefixed, so existence is not a secret — but the
			// job's spec, events, and batches are.
			writeError(w, http.StatusForbidden, fmt.Errorf("job %q belongs to another tenant", id))
			return nil
		}
	}
	return job
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if s.routedElsewhere(w, r) {
		return
	}
	if job := s.job(w, r); job != nil {
		writeJSON(w, http.StatusOK, s.decorate(job.Status()))
	}
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	if s.routedElsewhere(w, r) {
		return
	}
	job := s.job(w, r)
	if job == nil {
		return
	}
	job.mu.Lock()
	tracker := job.tracker
	job.mu.Unlock()
	if tracker == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s has no provenance yet", job.id))
		return
	}
	b, err := tracker.Export()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) handleBatches(w http.ResponseWriter, r *http.Request) {
	if s.routedElsewhere(w, r) {
		return
	}
	// Time-to-first-batch starts once the request is ours to serve —
	// proxy hops are accounted on the node actually streaming.
	streamStart := time.Now()
	job := s.job(w, r)
	if job == nil {
		return
	}
	job.mu.Lock()
	dom := string(job.spec.Domain)
	job.mu.Unlock()
	manifest, open, codec, err := job.serveHandle()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	batchSize, err := queryInt(r, "batch_size", 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	maxBatches, err := queryInt(r, "max_batches", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if batchSize <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch_size must be positive"))
		return
	}
	// 0 means unlimited; a negative cap is a malformed request, not a
	// synonym for it — same contract as batch_size and max_kbps.
	if maxBatches < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("max_batches must not be negative"))
		return
	}
	maxKBps, err := queryInt(r, "max_kbps", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if maxKBps < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("max_kbps must not be negative"))
		return
	}
	// Rates beyond ~1 TiB/s are indistinguishable from unpaced and
	// would overflow the bytes/sec conversion below — treat them as no
	// request. Applies to the operator's ceiling too.
	const maxPaceKBps = 1 << 30
	if maxKBps > maxPaceKBps {
		maxKBps = 0
	}
	// The client may pace itself below the server-wide ceiling, never
	// above it.
	if lim := s.opts.ServeMaxKBps; lim > 0 && lim <= maxPaceKBps && (maxKBps <= 0 || maxKBps > lim) {
		maxKBps = lim
	}
	start := Cursor{}
	if cs := r.URL.Query().Get("cursor"); cs != "" {
		start, err = ParseCursor(cs)
		if err == nil {
			err = start.validate(manifest)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	job.touch()
	ident := tenant.FromContext(r.Context())
	s.audit(ledger.TypeStream, ident.ID, job.id, "cursor="+start.String()+" batch_size="+strconv.Itoa(batchSize))

	// Content negotiation: NDJSON unless the client's Accept asks for
	// the binary frame format. X-Draid-Wire names the format actually
	// chosen, so clients need not re-parse the content type.
	wire := domain.WireNDJSON
	if acceptsFrames(r) {
		wire = domain.WireFrame
	}
	if wire == domain.WireFrame {
		w.Header().Set("Content-Type", domain.ContentTypeFrame)
	} else {
		w.Header().Set("Content-Type", domain.ContentTypeNDJSON)
	}
	w.Header().Set(domain.HeaderWire, wire)
	w.Header().Set("X-Draid-Cursor", start.String())
	cw := &countingResponseWriter{w: w}
	flusher, _ := w.(http.Flusher)
	// Pacing: with a global fair-share budget every stream gets a
	// dynamic pacer tracking its live share (capped by any per-stream
	// ?max_kbps= / server ceiling resolved above); without one, the
	// per-stream cap alone paces, exactly as before.
	var pace *pacer
	if s.fair != nil {
		weight := 1
		if s.tenants != nil {
			if t, ok := s.tenants.Get(ident.ID); ok {
				weight = t.EffectiveWeight()
			}
		}
		fairRate, release := s.fair.acquire(ident.ID, weight)
		defer release()
		capBytes := float64(0)
		if maxKBps > 0 {
			capBytes = float64(int64(maxKBps) << 10)
		}
		pace = newDynamicPacer(func() float64 {
			rate := fairRate()
			if capBytes > 0 && capBytes < rate {
				rate = capBytes
			}
			return rate
		})
	} else if maxKBps > 0 {
		pace = newPacer(int64(maxKBps) << 10)
	}
	// Histogram children resolved once per stream, not per batch.
	firstBatchH := s.metrics.firstBatch.With(dom, wire)
	encodeH := s.metrics.batchEncode.With(dom, wire)
	trace := telemetry.TraceFrom(r.Context())

	// emitError reports a mid-stream failure in-band, in the stream's
	// own format (NDJSON error line or error frame) — and fails the
	// request's root span so the trace is tail-sampled as notable.
	emitError := func(err error) {
		s.metrics.serveErrors.Inc()
		telemetry.SpanFromContext(r.Context()).SetError(err.Error())
		if wire == domain.WireFrame {
			_, _ = cw.Write(domain.EncodeErrorFrame(err.Error()))
			return
		}
		line, _ := json.Marshal(map[string]string{"error": err.Error()})
		cw.writeLine(string(line))
	}

	// Frame streams are served by slicing byte ranges out of per-shard
	// frame sources — cached payload bytes, on-store sidecars, or a
	// per-request encode, resolved per shard by frameSourceFor — so a
	// single emission path covers warm, disk-tier, and fallback
	// serving. NDJSON keeps the encode-per-request path. Sources backed
	// by open store handles are closed when the stream ends.
	useFrames := wire == domain.WireFrame
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()

	served := 0
	failed := false                // shard-read failure: error already reported in-band
	emitFailed := false            // write/encode failure: the connection is unusable
	pos := start                   // position after the last record buffered for emission
	var pending []any              // NDJSON path: buffered records
	var pendingRanges []frameRange // frame path: buffered payload ranges
	pendingCount := 0

	// post is the shared per-batch bookkeeping after a successful write:
	// latency, counters, flush, and pacing — which charges the bytes
	// actually written since before (cw.n), so NDJSON, encoded frames,
	// and cache-sliced frames are throttled identically.
	post := func(before int64) error {
		if served == 0 {
			firstBatchH.ObserveWithExemplar(time.Since(streamStart).Seconds(), trace)
		}
		served++
		s.metrics.batchesServed.Inc()
		s.metrics.samplesServed.Add(float64(pendingCount))
		if flusher != nil {
			flusher.Flush()
		}
		if pace != nil {
			stallStart := time.Now()
			perr := pace.pace(r.Context(), cw.n-before)
			// A pace call that actually slept becomes a span — token-bucket
			// bookkeeping that never blocked is not a stall.
			if d := time.Since(stallStart); d >= time.Millisecond {
				s.recordChildSpan(r.Context(), "pace.stall", stallStart, stallStart.Add(d), nil)
			}
			if perr != nil {
				return perr
			}
		}
		return nil
	}

	emit := func() error {
		// The codec references the cached record slices directly —
		// encoding only reads them, and copying every batch would double
		// memory traffic on the serving hot path.
		h := domain.BatchHeader{Batch: served, Cursor: pos.String(), Kind: codec.Kind()}
		before := cw.n
		// Encode and write are timed apart: the encode histogram is
		// codec cost only, so a slow client (or the pacer) cannot
		// masquerade as an expensive codec.
		encStart := time.Now()
		line, err := codec.Line(h, pending)
		if err != nil {
			// Encode failure with a healthy connection: nothing was
			// written yet, so the client can still be told — same
			// contract as the shard-read failure path. (Write/pace
			// errors below get nothing; that connection is dead.)
			emitError(err)
			return err
		}
		b, err := json.Marshal(line)
		if err != nil {
			emitError(err)
			return err
		}
		wireBytes := append(b, '\n')
		encDone := time.Now()
		encodeH.Observe(encDone.Sub(encStart).Seconds())
		s.recordChildSpan(r.Context(), "batch.encode", encStart, encDone, nil)
		if _, err := cw.Write(wireBytes); err != nil {
			return err
		}
		return post(before)
	}

	// emitFrame frames the buffered payload ranges under a fresh
	// header. The envelope is a handful of varint bytes; the payload is
	// written straight from each source — cached buffers, or io.CopyN
	// off an on-store sidecar — byte-identical to what EncodeFrame
	// would produce (a codec batch payload is the concatenation of its
	// records' payloads), with the encode histogram collapsing to
	// header-assembly time.
	emitFrame := func() error {
		h := domain.BatchHeader{Batch: served, Cursor: pos.String(), Kind: codec.Kind()}
		before := cw.n
		encStart := time.Now()
		payloadLen := 0
		for _, rng := range pendingRanges {
			payloadLen += rng.src.rangeLen(rng.a, rng.b)
		}
		env, err := domain.FrameEnvelope(h, pendingCount, payloadLen)
		if err != nil {
			emitError(err)
			return err
		}
		encDone := time.Now()
		encodeH.Observe(encDone.Sub(encStart).Seconds())
		s.recordChildSpan(r.Context(), "batch.encode", encStart, encDone, nil)
		if _, err := cw.Write(env); err != nil {
			return err
		}
		for _, rng := range pendingRanges {
			if err := rng.src.writeRange(cw, rng.a, rng.b); err != nil {
				return err
			}
		}
		return post(before)
	}

	flush := func() error {
		var err error
		if useFrames {
			err = emitFrame()
			pendingRanges = pendingRanges[:0]
		} else {
			err = emit()
			pending = pending[:0]
		}
		pendingCount = 0
		return err
	}

shards:
	for si := start.Shard; si < len(manifest.Shards); si++ {
		info := manifest.Shards[si]
		var records []any
		var src frameSource
		var n int
		var err error
		if useFrames {
			src, err = s.frameSourceFor(r.Context(), job, dom, manifest, info, open, codec, &closers)
			if err == nil {
				n = src.count()
			}
		} else {
			records, err = s.shardRecords(r.Context(), job.id, dom, manifest, info, open, codec)
			if err == nil {
				n = len(records)
			}
		}
		if err != nil {
			// Headers are gone; the in-band error is the only channel
			// left — but the counter makes the failure observable
			// beyond whoever held this one connection.
			emitError(err)
			failed = true
			break
		}
		first := 0
		if si == start.Shard {
			first = start.Record
			if first > n {
				first = n
			}
		}
		for j := first; j < n; j++ {
			if useFrames {
				// Batches may span shards; contiguous records within one
				// shard coalesce into a single byte range.
				if k := len(pendingRanges); k > 0 && pendingRanges[k-1].src == src && pendingRanges[k-1].b == j {
					pendingRanges[k-1].b = j + 1
				} else {
					pendingRanges = append(pendingRanges, frameRange{src: src, a: j, b: j + 1})
				}
			} else {
				pending = append(pending, records[j])
			}
			pendingCount++
			pos = advanceCursor(manifest, si, j)
			if pendingCount == batchSize {
				if err := flush(); err != nil {
					// The batch was already written (or the writer is
					// gone): do NOT fall through to the tail emit, which
					// would duplicate it onto a half-dead connection.
					emitFailed = true
					break shards
				}
				if maxBatches > 0 && served >= maxBatches {
					break shards
				}
			}
		}
	}
	if !failed && !emitFailed && pendingCount > 0 && (maxBatches <= 0 || served < maxBatches) {
		_ = flush()
	}
	if pace != nil && pace.throttled {
		s.metrics.serveThrottled.Inc()
	}
	s.metrics.bytesServed.Add(float64(cw.n))
	s.metrics.observeStage("serve:batches", 0, 1, cw.n)
}

// shardRecords returns one shard's decoded records through the LRU
// cache, verifying checksums and decoding (via the domain codec) on
// first access only. Misses are timed into the shard-load histogram
// (with the loading request's trace as exemplar) and spanned as
// shard.load; hits observe nothing — cache lookups are not loads.
func (s *Server) shardRecords(ctx context.Context, jobID, dom string, m *shard.Manifest, info shard.Info, open shard.Opener, codec domain.Codec) ([]any, error) {
	key := jobID + "/" + info.Name
	return s.cache.Get(key, func() ([]any, int64, error) {
		loadStart := time.Now()
		one := &shard.Manifest{Prefix: m.Prefix, Compressed: m.Compressed, Shards: []shard.Info{info}}
		var records []any
		var bytes int64
		err := shard.ReadAll(open, one, func(_ string, rec []byte) error {
			decoded, n, derr := codec.Decode(rec)
			if derr != nil {
				return derr
			}
			records = append(records, decoded)
			bytes += n
			return nil
		})
		loadDone := time.Now()
		outcome := "ok"
		attrs := map[string]string{"shard": info.Name}
		if err != nil {
			outcome = "error"
			attrs["error"] = err.Error()
		}
		s.metrics.shardLoad.With(dom, outcome).ObserveWithExemplar(
			loadDone.Sub(loadStart).Seconds(), telemetry.TraceFrom(ctx))
		s.recordChildSpan(ctx, "shard.load", loadStart, loadDone, attrs)
		if err != nil {
			return nil, 0, err
		}
		return records, bytes, nil
	})
}

// recordChildSpan records a completed interval as a child of the
// context's active span — the no-allocation-when-untraced path for
// per-batch and cache-fill work, where a live Span object per event
// would cost more than the work being measured.
func (s *Server) recordChildSpan(ctx context.Context, name string, start, end time.Time, attrs map[string]string) {
	sp := telemetry.SpanFromContext(ctx)
	if sp == nil {
		return
	}
	pc := sp.Context()
	s.spans.Record(telemetry.SpanData{
		TraceID: pc.TraceID, SpanID: telemetry.NewSpanID(), Parent: pc.SpanID,
		Name: name, Start: start, End: end, Attrs: attrs,
	})
}

// pacer is a per-stream token bucket: rate bytes/second sustained, with
// a small burst so short streams are not over-delayed by rounding.
type pacer struct {
	rate      float64 // bytes per second
	burst     float64 // bucket capacity (bytes)
	tokens    float64
	last      time.Time
	throttled bool
	// rateFn, when set, re-resolves the rate at every pace call — the
	// weighted-fair share moves as streams open and close elsewhere.
	rateFn func() float64
}

// newPacer returns a pacer sustaining rateBytes per second, with the
// pacerBurst capacity for that rate.
func newPacer(rateBytes int64) *pacer {
	burst := pacerBurst(float64(rateBytes))
	return &pacer{rate: float64(rateBytes), burst: burst, tokens: burst, last: time.Now()}
}

// pace charges n bytes against the bucket and sleeps off any deficit.
// The sleep aborts when ctx ends (client disconnect), returning the
// context's error so the caller stops streaming instead of pinning a
// handler goroutine — a huge batch at a tiny rate would otherwise
// sleep unbounded for a reader that may already be gone.
func (p *pacer) pace(ctx context.Context, n int64) error {
	if p.rateFn != nil {
		if r := p.rateFn(); r > 0 && r != p.rate {
			p.rate = r
			p.burst = pacerBurst(r)
			if p.tokens > p.burst {
				p.tokens = p.burst
			}
		}
	}
	now := time.Now()
	p.tokens += now.Sub(p.last).Seconds() * p.rate
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
	p.last = now
	p.tokens -= float64(n)
	if p.tokens < 0 {
		p.throttled = true
		t := time.NewTimer(time.Duration(-p.tokens / p.rate * float64(time.Second)))
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// handleMetrics renders the registry. It never takes s.mu: every value
// is either updated at its state transition or collected by a callback
// against a subsystem's own lock, so a scrape under heavy submission
// load costs the submitters nothing (the old implementation scanned the
// whole job table under the server mutex, stalling submissions for the
// duration of every scrape).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// One MemStats snapshot per scrape, shared by every runtime
	// collector — ReadMemStats stops the world, so the collectors must
	// never each take their own.
	if s.opts.Debug {
		s.rtSample.refresh()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.reg.WritePrometheus(w)
}

// countingResponseWriter tracks bytes written for the serving metrics.
type countingResponseWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingResponseWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingResponseWriter) writeLine(line string) {
	n, _ := c.w.Write([]byte(line + "\n"))
	c.n += int64(n)
}

// acceptsFrames reports whether the request's Accept header asks for
// the binary frame media type at least as strongly as for NDJSON.
// Only an explicit frame mention opts in — wildcard accepts (curl's
// */*) keep the debuggable NDJSON default — and q-values are honoured
// per RFC 9110: ";q=0" refuses frames, and a lower frame q than the
// client's (explicit or wildcard) NDJSON preference keeps NDJSON.
func acceptsFrames(r *http.Request) bool {
	frameQ, ndjsonQ, wildQ := -1.0, -1.0, -1.0
	// A media range repeated across (or within) Accept headers keeps its
	// most preferred weight, per RFC 9110's "most preferred" semantics —
	// overwriting with the last occurrence would let a trailing ;q=0.1
	// mask an earlier explicit preference.
	keep := func(dst *float64, q float64) {
		if q > *dst {
			*dst = q
		}
	}
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mt, params, _ := strings.Cut(part, ";")
			q := acceptQ(params)
			switch strings.ToLower(strings.TrimSpace(mt)) {
			case domain.ContentTypeFrame:
				keep(&frameQ, q)
			case domain.ContentTypeNDJSON:
				keep(&ndjsonQ, q)
			case "*/*", "application/*":
				keep(&wildQ, q)
			}
		}
	}
	if frameQ <= 0 {
		return false // unmentioned or explicitly refused
	}
	effNDJSON := ndjsonQ
	if effNDJSON < 0 {
		effNDJSON = wildQ // NDJSON reachable through a wildcard only
	}
	return frameQ >= effNDJSON
}

// acceptQ extracts a media range's q-value from its parameter list
// (1.0 when absent or unparsable, per RFC 9110's default weight).
func acceptQ(params string) float64 {
	for _, param := range strings.Split(params, ";") {
		k, v, ok := strings.Cut(param, "=")
		if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			return q
		}
	}
	return 1
}

func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("query %s=%q is not an integer", key, v)
	}
	return n, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
