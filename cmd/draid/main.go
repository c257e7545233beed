// Command draid serves dataset readiness as a facility service: domain
// templates from the registry, asynchronous pipeline jobs on a bounded
// worker pool, trained-side batch streaming from completed jobs' shard
// sets, and Prometheus-style metrics.
//
// Usage:
//
//	draid                          # listen on :8080 with 4 workers, private temp data dir
//	draid -addr :9000 -workers 8 -serve-cache-mb 512
//	draid -data-dir /var/lib/draid -job-ttl 24h -max-jobs 100
//	draid -data-dir /mnt/pfs/draid -node-id n1 -advertise http://host1:8080 \
//	      -peers n1=http://host1:8080,n2=http://host2:8080,n3=http://host3:8080
//
// Completed jobs' shard sets are written to <data-dir>/jobs/<id>, each
// shard stored once as its frame sidecar, with an atomic MANIFEST.json
// describing those sidecars, and every job transition replay needs is
// appended to the node's one log, its audit ledger; a restarted draid
// replays the ledger and re-serves completed jobs from disk. A data dir
// holding a jobs*.log from an earlier version is refused. Without -data-dir, draid runs the same durable server on a
// private temp data dir, removed at exit. -job-ttl and -max-jobs
// evict idle completed jobs (deleting their shard directories) so
// retained state stays bounded. -requeue resubmits jobs interrupted by
// a crash instead of marking them failed.
//
// With -peers, draid joins a static fleet: jobs are routed to their
// consistent-hash owner (submissions and all /v1/jobs/{id}/* requests
// are transparently proxied, or 307-redirected when the client sends
// "X-Draid-Route: redirect"), every member must point -data-dir at the
// same shared/parallel filesystem, and a dead member's jobs are adopted
// by the survivors, which replay its ledger from that shared dir.
//
// Every domain streams: each template registers a wire codec
// (internal/domain), so climate/bio loader samples, fusion windowed
// TFRecord Examples, and materials BP graph records all serve as NDJSON
// batches tagged with their payload "kind". /v1/templates reports each
// domain's kind so clients pick a decoder up front.
//
// API:
//
//	GET  /v1/templates               list domain templates (+ wire kind, servable)
//	POST /v1/jobs                    submit {"domain":"climate", ...}
//	GET  /v1/jobs                    list jobs (fleet-merged; ?scope=local for this node)
//	GET  /v1/jobs/{id}               job state + readiness trajectory + wire kind
//	GET  /v1/jobs/{id}/provenance    lineage report (JSON)
//	GET  /v1/jobs/{id}/events        lifecycle timeline (submitted → queued → running → ...)
//	GET  /v1/jobs/{id}/batches       stream NDJSON training batches
//	     ?batch_size=&max_batches=&cursor=<shard>:<record>  (resume point)
//	     &max_kbps=<KiB/s>           (token-bucket pacing, capped by -serve-max-kbps)
//	GET  /v1/cluster                 fleet membership + ownership (?job=<id>)
//	GET  /v1/traces                  this node's recent + tail-sampled traces
//	     ?min_ms=&error=true&limit=  (slow/error filters)
//	GET  /v1/traces/{id}             fleet-assembled span tree for one trace
//	GET  /v1/audit/roots             this node's published Merkle audit roots
//	GET  /v1/audit/proof?seq=N       inclusion proof for one audit record
//	GET  /metrics                    serving + pipeline + cluster metrics (with exemplars)
//	GET  /healthz                    liveness, 503 once the ledger failed (also the fleet probe target)
//
// With -tenants, every request (bar /healthz and /metrics) must carry a
// registered tenant's bearer token; jobs, traces, and audit records are
// scoped to the owning tenant (admin tenants see everything), per-tenant
// job/byte quotas apply, and -serve-budget-kbps splits a global bandwidth
// budget across active tenants by weight. Every job record (submission,
// end, eviction), stream open and auth failure is appended to the
// hash-chained audit ledger, whose Merkle batch roots are published on
// /v1/audit/roots for offline verification.
//
// Every request carries an X-Draid-Trace ID (inherited from the client
// or generated) that is echoed in the response, logged, and propagated
// across fleet hops — plus a span tree recording where its time went
// (queue wait, synthesis, pipeline stages, commit, sidecar fills,
// per-batch encodes, pacing stalls, proxy
// hops), browsable via /v1/traces. Traces slower than -trace-slow or
// ending in error are tail-sampled into a notable ring and logged at
// Info. -debug additionally mounts /debug/pprof, exports runtime
// gauges on /metrics, and logs per-request debug lines.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/tenant"
)

// Connection time bounds. A client that sends no request head within
// readHeaderTimeout, or leaves a keep-alive connection idle between
// requests for idleTimeout, is disconnected. There is deliberately no
// write timeout: it would cut long batch streams.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "concurrent pipeline executions")
	queueDepth := flag.Int("queue", 64, "max queued jobs before submissions get 429")
	serveCacheMB := flag.Int64("serve-cache-mb", 256, "serving-cache budget in MiB: one LRU over shards encoded for either wire, NDJSON line fragments or frame sidecar images, admitting a load that would evict only if its shard was read at least as often as the LRU victim (0 retains nothing)")
	serveMaxKBps := flag.Int("serve-max-kbps", 0, "per-stream batch throughput ceiling in KiB/s (0 = unpaced; clients can lower theirs with ?max_kbps=)")
	serveBudgetKBps := flag.Int("serve-budget-kbps", 0, "global weighted-fair bandwidth budget in KiB/s shared by all batch streams: split across active tenants by weight, then evenly across each tenant's streams (0 = per-stream pacing only)")
	tenantsFile := flag.String("tenants", "", "tenant config file (JSON: id, token, weight, admin, quotas); enables bearer-token auth and per-tenant scoping — the file must be chmod 0600")
	ledgerBatch := flag.Int("ledger-batch", 0, "audit ledger Merkle batch size in records per published root, job records included (0 = default 64)")
	dataDir := flag.String("data-dir", "", "durable root for shard sets and the audit ledger, which holds the job records (empty = a private temp data dir, removed at exit)")
	jobTTL := flag.Duration("job-ttl", 0, "evict completed jobs idle this long, deleting their shards (0 disables)")
	maxJobs := flag.Int("max-jobs", 0, "max retained completed jobs; least recently served evicted first (0 = unbounded)")
	requeue := flag.Bool("requeue", false, "resubmit jobs interrupted by a crash instead of marking them failed")
	nodeID := flag.String("node-id", "", "fleet member ID (requires -peers)")
	advertise := flag.String("advertise", "", "base URL peers reach this node at, e.g. http://host1:8080")
	peers := flag.String("peers", "", "static fleet membership as id=url,id=url,... (includes or implies self)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per fleet member on the hash ring")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "fleet liveness probe spacing")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	traceSlow := flag.Duration("trace-slow", 250*time.Millisecond, "tail-sampling threshold: requests at least this slow (or erroring) keep their trace in the notable ring and log at Info")
	traceSpans := flag.Int("trace-spans", 4096, "completed spans retained in the recent ring")
	traceNotable := flag.Int("trace-notable", 32, "tail-sampled slow/error traces retained")
	debug := flag.Bool("debug", false, "mount /debug/pprof, export runtime gauges, log per-request debug lines")
	flag.Parse()
	log.SetFlags(0)

	serveCacheBytes, err := resolveCacheBudget(*serveCacheMB)
	if err != nil {
		log.Fatalf("draid: %v", err)
	}

	logLevel := slog.LevelInfo
	if *debug {
		logLevel = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel}))

	var reg *tenant.Registry
	if *tenantsFile != "" {
		var err error
		reg, err = tenant.Load(*tenantsFile)
		if err != nil {
			log.Fatalf("draid: %v", err)
		}
	}

	var cl *cluster.Cluster
	if *peers != "" {
		var err error
		cl, err = buildCluster(*peers, *nodeID, *advertise, *vnodes, *probeInterval)
		if err != nil {
			log.Fatalf("draid: %v", err)
		}
	} else if *nodeID != "" {
		log.Fatalf("draid: -node-id is meaningless without -peers")
	}

	s, err := server.New(server.Options{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		ServeCacheBytes: serveCacheBytes,
		ServeMaxKBps:    *serveMaxKBps,
		ServeBudgetKBps: *serveBudgetKBps,
		Tenants:         reg,
		LedgerBatch:     *ledgerBatch,
		DataDir:         *dataDir,
		JobTTL:          *jobTTL,
		MaxJobs:         *maxJobs,
		Requeue:         *requeue,
		Cluster:         cl,
		TraceSlow:       *traceSlow,
		TraceSpans:      *traceSpans,
		TraceNotable:    *traceNotable,
		Debug:           *debug,
		Logger:          logger,
	})
	if err != nil {
		log.Fatalf("draid: %v", err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	durability := "private temp data dir, removed at exit"
	if *dataDir != "" {
		durability = "data dir " + *dataDir
	}
	if cl != nil {
		durability += fmt.Sprintf(", fleet member %s of %d", cl.Self().ID, len(cl.Nodes()))
	}
	log.Printf("draid: listening on %s (%d workers, %d MiB serve cache, %s)", *addr, *workers, serveCacheBytes>>20, durability)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Close first: it flushes the logs and removes a private
			// data dir, which Fatalf's exit would skip.
			s.Close()
			log.Fatalf("draid: %v", err)
		}
	case got := <-sig:
		log.Printf("draid: %v — draining (up to %s)", got, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("draid: shutdown: %v", err)
		}
		s.Close()
		log.Printf("draid: stopped")
	}
}

// resolveCacheBudget converts -serve-cache-mb to the server's serving
// cache budget in bytes. Values the shift cannot carry are rejected up
// front: a negative MiB count would become a huge positive budget, and
// one above math.MaxInt64>>20 would overflow to zero or below and
// silently disable the cache.
func resolveCacheBudget(serveMB int64) (int64, error) {
	if serveMB < 0 || serveMB > math.MaxInt64>>20 {
		return 0, fmt.Errorf("-serve-cache-mb must be in [0, %d] (MiB), got %d", int64(math.MaxInt64>>20), serveMB)
	}
	return serveMB << 20, nil
}

// buildCluster parses "-peers id=url,..." into a fleet view. Self is
// taken from -node-id and must either appear in the list or be added
// implicitly from -advertise.
func buildCluster(peers, nodeID, advertise string, vnodes int, probe time.Duration) (*cluster.Cluster, error) {
	if nodeID == "" {
		return nil, errors.New("-peers requires -node-id")
	}
	var nodes []cluster.Node
	selfListed := false
	for _, part := range strings.Split(peers, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-peers entry %q: want id=url", part)
		}
		nodes = append(nodes, cluster.Node{ID: strings.TrimSpace(id), URL: strings.TrimSpace(url)})
		if strings.TrimSpace(id) == nodeID {
			selfListed = true
		}
	}
	if !selfListed {
		if advertise == "" {
			return nil, fmt.Errorf("-node-id %s is not in -peers; add it there or set -advertise", nodeID)
		}
		nodes = append(nodes, cluster.Node{ID: nodeID, URL: advertise})
	}
	return cluster.New(cluster.Config{
		Self:          nodeID,
		Nodes:         nodes,
		VNodes:        vnodes,
		ProbeInterval: probe,
	})
}
