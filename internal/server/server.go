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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/domain"
	"repro/internal/ledger"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/wire"
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
	// ServeCacheBytes is the serving cache's byte budget
	// (-serve-cache-mb): one LRU over shards encoded for either wire —
	// per-record JSON fragments or verified frame sidecar images — which
	// both wires slice batches from with no per-request tensor
	// marshalling. A load that would evict is admitted only if its
	// shard has been read at least as often as the LRU victim (see
	// cache.go); nothing about that is configurable. <=0 retains
	// nothing: each stream loads every shard it reads (concurrent loads
	// of one shard still coalesce).
	ServeCacheBytes int64
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
	// published root; job records count like every other). <=0 uses the
	// ledger default (64).
	LedgerBatch int

	// DataDir is the server's durable root: job shard sets go to
	// DataDir/jobs/<id> (FSSink), and every job record is appended to the
	// audit ledger DataDir/audit.log (audit-<node>.log in a fleet), which
	// New replays so a restarted server re-serves completed jobs from
	// disk; master.key lives beside them. A DataDir holding a jobs*.log
	// (the job log of earlier versions) is refused. Empty runs the same
	// server on a private draid-* temp dir, logged at Info and removed by
	// Close.
	DataDir string
	// JobTTL evicts completed (done or failed) jobs idle longer than
	// this — their shard directories are deleted and the eviction is
	// logged. <=0 disables TTL eviction.
	JobTTL time.Duration
	// MaxJobs bounds retained completed jobs; beyond it the least
	// recently served are evicted. <=0 means unbounded.
	MaxJobs int

	// NewStore overrides per-job shard storage (the benchmark wraps
	// FSSink in a traced store with it; tests inject faulting stores).
	// Its stores must have FSSink's durable methods (see jobStore;
	// embedding *shard.FSSink gives them all): a job whose store falls
	// short fails, naming its type. Nil picks FSSink under DataDir.
	NewStore func(jobID string) (shard.Store, error)

	// Cluster makes this server a fleet member: job-addressed requests
	// are routed to their consistent-hash owner, /v1/cluster reports
	// membership, and jobs stranded by dead members are adopted from
	// the shared DataDir (which every member must point at the same
	// parallel filesystem). The server takes over the cluster's
	// lifecycle: New starts its probing, Close stops it. It needs a
	// DataDir: a private temp dir is shared with no one.
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
	handler http.Handler // mux wrapped in the telemetry middleware
	cache   *ShardCache  // shards encoded for either wire (cache.go)
	opts    Options

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order for listing
	seq    int
	closed bool
	// admitting holds the IDs between admit's checks and their queue
	// send: each holds a queue slot, and a new one its ID (see admit).
	admitting map[string]bool
	// evicted holds every job ID this member knows was evicted: from the
	// ledgers at startup and at each adoption scan, and its own evictions.
	// admit refuses them, since eviction is forever and IDs are never
	// reused (a client may re-send an old pre-assigned ID).
	evicted map[string]bool

	queue chan *Job
	stop  chan struct{}
	wg    sync.WaitGroup

	// Durability. nodeLock is nil outside a fleet; privateDir is the
	// temp DataDir New made (empty when the caller gave one), which
	// Close removes.
	master     []byte
	nodeLock   *shard.NodeLock
	privateDir string
	// ledger is the append-only audit log, job records included;
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

	// adoptMu serializes adoption scans (probe callbacks and
	// request-path misses can race into adoptOrphans) and guards what
	// they extend: fold, of every member's ledger, and per ledger file
	// the Tail that knows how far fold has read it (nil outside a fleet).
	adoptMu sync.Mutex
	fold    *jobFold
	tails   map[string]*ledger.Tail

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

// New starts a server's worker pool and registers its routes. It
// replays the ledger in Options.DataDir, so completed jobs from
// previous runs are immediately servable.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	s := &Server{
		mux:         http.NewServeMux(),
		cache:       NewShardCache(opts.ServeCacheBytes),
		opts:        opts,
		jobs:        make(map[string]*Job),
		admitting:   make(map[string]bool),
		evicted:     make(map[string]bool),
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
	if err := s.openDurable(); err != nil {
		s.release()
		return nil, err
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
	if opts.JobTTL > 0 || opts.MaxJobs > 0 || len(s.quotaOverage()) > 0 {
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

// jobStore is the storage behind one job: a shard.Store plus the
// durable methods the server calls on it — range reads for sidecars,
// the commit barrier and manifest, and removal at eviction or requeue. Every job store has all of them, so
// no call site asks which it has.
type jobStore interface {
	shard.Store
	shard.RangeOpener
	shard.Syncer
	WriteManifest(*shard.Manifest) error
	LoadManifest() (*shard.Manifest, error)
	Destroy() error
}

var _ jobStore = (*shard.FSSink)(nil)

// newStore allocates the shard storage backing one job: an FSSink under
// DataDir, or the Options.NewStore override's store, checked here once
// for the methods of jobStore.
func (s *Server) newStore(jobID string) (jobStore, error) {
	if s.opts.NewStore == nil {
		sink, err := shard.NewFSSink(filepath.Join(s.opts.DataDir, "jobs", jobID))
		if err != nil {
			return nil, err
		}
		return sink, nil
	}
	st, err := s.opts.NewStore(jobID)
	if err != nil {
		return nil, err
	}
	js, ok := st.(jobStore)
	if !ok {
		return nil, fmt.Errorf("job store %T lacks the durable methods the server calls (Sync, OpenRange, WriteManifest, LoadManifest, Destroy)", st)
	}
	return js, nil
}

// openDurable prepares the data directory — a private temp dir when
// Options.DataDir is empty — and rebuilds the job table from the
// ledger, folding its job records in as Open verifies the chain. In
// cluster mode the data dir is shared by the fleet: this node registers
// a heartbeating lock file, appends to its own ledger (so members never
// interleave writes into one file), folds in every other member's
// ledger too, and keeps only the jobs the ring assigns to it.
func (s *Server) openDurable() error {
	if s.opts.DataDir == "" {
		if s.opts.Cluster != nil {
			return errors.New("server: a fleet member needs a DataDir shared by the fleet")
		}
		dir, err := os.MkdirTemp("", "draid-")
		if err != nil {
			return fmt.Errorf("server: create private data dir: %w", err)
		}
		s.opts.DataDir, s.privateDir = dir, dir
		s.logger.Info("private data dir, removed at Close", "dir", dir)
	}
	// Job logs of earlier versions are not read: replaying them would be
	// a second replay path kept forever.
	if old, _ := filepath.Glob(filepath.Join(s.opts.DataDir, "jobs*.log")); len(old) > 0 {
		return fmt.Errorf("server: %s is a job log of an earlier draid, which this version does not read; start on a new data dir", old[0])
	}
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
	selfID, ledgerName := "", "audit.log"
	if c := s.opts.Cluster; c != nil {
		c.SetPeerAuth(s.peerAuth)
		selfID = c.Self().ID
		ledgerName = "audit-" + selfID + ".log"
		lock, err := shard.AcquireNodeLock(filepath.Join(s.opts.DataDir, "nodes"), selfID, c.Self().URL, nodeLockStale)
		if err != nil {
			return err
		}
		s.nodeLock = lock
	}
	ledgerPath := filepath.Join(s.opts.DataDir, ledgerName)
	created := !fileExists(ledgerPath)
	fold := newJobFold(selfID)
	led, err := ledger.Open(ledger.Config{
		Path:      ledgerPath,
		Node:      selfID,
		BatchSize: s.opts.LedgerBatch,
		Replay:    fold.add,
	})
	if err != nil {
		return err
	}
	s.ledger = led
	if created {
		// Every append fsyncs the ledger's bytes, never its name: until the
		// data dir itself is synced a power cut can take the whole ledger —
		// and every done record in it — while the shard sets those records
		// committed survive. The same sync covers jobs/ and master.key.
		if err := syncDir(s.opts.DataDir); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	if s.opts.Cluster != nil {
		s.fold, s.tails = fold, map[string]*ledger.Tail{ledgerPath: led.Tail()}
		s.scanFleet()
		fold = s.fold
	}
	s.seq = fold.maxSeq
	// Eviction logs its record before it destroys the job's files, so a
	// crash between the two leaves a dir that no replay names. Eviction
	// is forever, so those dirs go now; one that cannot be removed is
	// retried at the next start. A dir with no record stays: it may hold
	// another member's job in flight.
	s.mu.Lock()
	maps.Copy(s.evicted, fold.evicted)
	s.mu.Unlock()
	for id := range fold.evicted {
		if _, _, ok := parseJobID(id); ok {
			_ = os.RemoveAll(filepath.Join(s.opts.DataDir, "jobs", id))
		}
	}
	return s.restore(fold.states(""), false, nil)
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
// and are reported as such. A private data dir (see Options.DataDir)
// is removed, and with it every job.
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
	s.release()
}

// release gives back what openDurable took, as far as it got: the
// ledger, the node lock and a private data dir.
func (s *Server) release() {
	if s.ledger != nil {
		_ = s.ledger.Close()
	}
	if s.nodeLock != nil {
		_ = s.nodeLock.Release()
	}
	_ = os.RemoveAll(s.privateDir) // "" removes nothing
}

// handleHealthz answers 503, naming the audit ledger, once the ledger
// has a sticky commit failure: the node would drop every later record,
// so the fleet's probes must route around it.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.ledger.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("audit ledger: %w", s.ledger.Err()))
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
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
		out[i] = TemplateInfo{Domain: string(p.Domain), Description: p.Description,
			Kind: p.Codec.Kind(), Wires: wire.Wires(), Servable: true}
	}
	writeJSON(w, http.StatusOK, out)
}

// maxSpecBytes caps a submission body. A spec is a few hundred bytes;
// without the cap one request carrying a huge JSON string would be
// buffered whole.
const maxSpecBytes = 1 << 20

// handleSubmit reads and validates a spec and fixes the job's ID: the
// next in this node's sequence or, in a fleet, one pre-assigned by
// ?job_id=. The ID is pinned on the request as ?job_id= and the body
// re-armed from its bytes, so the submission reaches the ID's owner
// through the same routing loop as every other job-addressed request —
// a 307 and each proxy attempt carry both.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("read job spec: %w", err))
		return
	}
	var spec JobSpec
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
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
	r = r.Clone(r.Context()) // the middleware reads r after this returns
	q := r.URL.Query()
	id := q.Get("job_id")
	if !s.clusterMode() || id == "" {
		s.mu.Lock()
		s.seq++
		id = s.jobID(s.seq)
		s.mu.Unlock()
	} else if node, _, ok := parseJobID(id); !ok || node == "" {
		// The ID names a shard directory on the shared dir.
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid pre-assigned job id %q", id))
		return
	}
	q.Set("job_id", id)
	r.URL.RawQuery = q.Encode()
	r.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	if s.routedElsewhere(w, r, id) {
		return
	}
	s.submitLocal(r.Context(), w, spec, id)
}

// submitLocal admits a job under id on this node. ctx is the submitting
// request's: its trace ID is recorded on the job and in its submitted
// record so the whole lifecycle correlates back to the request, and its
// authenticated tenant ("" with auth off) owns the job for scoping, is
// charged for it under quotas, and heads each of its records, so
// ownership survives replay and adoption and tenants prove their own.
func (s *Server) submitLocal(ctx context.Context, w http.ResponseWriter, spec JobSpec, id string) {
	if spec.Name == "" {
		spec.Name = id
	}
	sub := jobRecord{
		Record:  ledger.Record{Type: ledger.TypeSubmitted, Job: id, Time: time.Now(), Node: s.nodeID(), Tenant: tenant.FromContext(ctx).ID},
		jobBody: jobBody{Spec: &spec, Trace: telemetry.TraceFrom(ctx)},
	}
	job := newJob(sub)
	if code, err := s.admit(ctx, job, &sub); err != nil {
		writeError(w, code, err)
		return
	}
	s.logger.Info("job submitted", "job", job.id, "domain", string(spec.Domain), "trace", job.trace)
	writeJSON(w, http.StatusAccepted, s.decorate(job.Status()))
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
	if !ok && s.clusterMode() {
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
	if s.routedElsewhere(w, r, r.PathValue("id")) {
		return
	}
	if job := s.job(w, r); job != nil {
		writeJSON(w, http.StatusOK, s.decorate(job.Status()))
	}
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	if s.routedElsewhere(w, r, r.PathValue("id")) {
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

// queryCount parses an integer query parameter that must be at least
// min: 0 where 0 means "none" or "unlimited", 1 for a size. An absent
// parameter is def.
func queryCount(r *http.Request, key string, def, min int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < min {
		return 0, fmt.Errorf("query %s=%q must be an integer >= %d", key, v, min)
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
