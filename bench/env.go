package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/domain"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/tenant"
	"repro/pkg/client"
)

// corpusJob is one completed job the read traffic targets, with the
// reference the verify phase compares against.
type corpusJob struct {
	id      string
	domain  int // index into benchDomains
	records int // streamable records (the manifest's total)
	shards  int
	// statusRecords is JobStatus.Records: the dataset's records before
	// the train/test split, which is what "prepared" counts.
	statusRecords int64
	frameBytes    int64    // wire bytes of the set-up frame scan
	storedBytes   int64    // bytes under DataDir/jobs/<id>: shards, sidecars, manifest
	digests       []uint64 // per streamed record, from the set-up frame scan
	// cursors[i] is the position after (i+1)*seekBatch records.
	cursors []string
}

// seekStarts is how many grid positions a seek can start from: position
// p starts at record p*seekBatch, which must exist.
func (j *corpusJob) seekStarts() int { return len(j.cursors) }

// seekPlan resolves a request's pick to a start cursor and what a
// correct server returns from there.
func (j *corpusJob) seekPlan(pick uint64) (cursor string, wantRecords int, wantCursor string) {
	p := int(pick % uint64(j.seekStarts()))
	if p > 0 {
		cursor = j.cursors[p-1]
	}
	wantRecords = min(seekBatch*seekMax, j.records-p*seekBatch)
	wantCursor = j.cursors[min(p+seekMax-1, len(j.cursors)-1)]
	return cursor, wantRecords, wantCursor
}

// env is one running production-configuration server plus its clients.
type env struct {
	w     workload
	dir   string
	rec   *recorder
	reg   *tenant.Registry
	token string

	srv *server.Server
	hs  *http.Server
	url string
	cs  [clients]*client.Client
	tr  [clients]*http.Transport

	newMs float64 // how long the last server.New took (replay included)

	corpus []*corpusJob
}

func newTenants() (*tenant.Registry, string, error) {
	ts := make([]*tenant.Tenant, tenantN)
	for i := range ts {
		ts[i] = &tenant.Tenant{ID: fmt.Sprintf("lab%d", i), Token: fmt.Sprintf("bench-token-lab%d", i)}
	}
	reg, err := tenant.NewRegistry(ts)
	return reg, ts[0].Token, err
}

// start opens the server on e.dir (replaying whatever is there) behind
// a fresh loopback socket. Both clients are trainers of tenant lab0;
// the other seven tenants are registered and idle.
func (e *env) start() error {
	opts := server.Options{
		Workers:         2,
		DataDir:         e.dir,
		Tenants:         e.reg,
		ServeCacheBytes: e.w.cacheBytes,
		MaxJobs:         e.w.maxJobs,
	}
	if e.rec != nil {
		opts.NewStore = func(jobID string) (shard.Store, error) {
			fsink, err := shard.NewFSSink(filepath.Join(e.dir, "jobs", jobID))
			if err != nil {
				return nil, err
			}
			return &tracedStore{FSSink: fsink, rec: e.rec}, nil
		}
	}
	begin := time.Now()
	srv, err := server.New(opts)
	e.newMs = msSince(begin)
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if e.rec != nil {
		h = e.rec.middleware(h)
	}
	e.srv = srv
	e.hs = &http.Server{Handler: h}
	e.url = "http://" + ln.Addr().String()
	go e.hs.Serve(ln) // returns ErrServerClosed at stop; nothing to report
	for i := range e.cs {
		e.tr[i] = &http.Transport{MaxIdleConnsPerHost: 1}
		e.cs[i] = client.New(e.url,
			client.WithHTTPClient(&http.Client{Transport: e.tr[i]}),
			client.WithToken(e.token),
			client.WithPollInterval(2*time.Millisecond))
	}
	return nil
}

// stop closes the listener, every connection and the server (which
// waits for its workers and fsyncs its logs).
func (e *env) stop() {
	if e.hs == nil {
		return
	}
	for _, t := range e.tr {
		t.CloseIdleConnections()
	}
	e.hs.Close()
	e.srv.Close()
	e.hs, e.srv = nil, nil
}

// destroy stops the server and removes its data directory.
func (e *env) destroy() {
	e.stop()
	os.RemoveAll(e.dir)
}

// shareJobs deals jobs 0..n-1 round-robin to the clients, each client
// working through its share one job at a time, and returns the first
// error (a client stops at its own first error).
func shareJobs(n int, fn func(c, i int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < n && errs[c] == nil; i += clients {
				errs[c] = fn(c, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupSample is what one set-up repetition measured.
type setupSample struct {
	seconds       float64   // server start + corpus built + caches pre-filled
	buildSeconds  float64   // the corpus-build part
	turnaroundMs  []float64 // SubmitJob call → WaitDone return, per corpus job
	statusRecords int64
}

// setUp starts a server on a fresh directory, has the two clients build
// the corpus closed-loop (each submits its share one job at a time) and
// scan it once over the frame wire — which pre-fills the caches and
// records the per-record reference digests and the cursor grid.
func setUp(ctx context.Context, w workload, specs []domain.Spec, dir string, rec *recorder) (*env, setupSample, error) {
	var sample setupSample
	reg, token, err := newTenants()
	if err != nil {
		return nil, sample, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, sample, err
	}
	e := &env{w: w, dir: dir, rec: rec, reg: reg, token: token}
	begin := time.Now()
	if err := e.start(); err != nil {
		os.RemoveAll(dir)
		return nil, sample, err
	}
	e.corpus = make([]*corpusJob, len(specs))
	turnaround := make([]float64, len(specs))
	err = shareJobs(len(specs), func(c, i int) error {
		t0 := time.Now()
		st, err := e.cs[c].SubmitJob(ctx, specs[i])
		if err != nil {
			return fmt.Errorf("set-up submit %s: %w", specs[i].Domain, err)
		}
		fin, err := e.cs[c].WaitDone(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("set-up job %s: %w", st.ID, err)
		}
		turnaround[i] = msSince(t0)
		e.corpus[i] = &corpusJob{id: fin.ID, domain: i % len(benchDomains), shards: fin.Shards, statusRecords: fin.Records}
		return nil
	})
	sample.buildSeconds = time.Since(begin).Seconds()
	if err == nil {
		err = shareJobs(len(specs), func(c, i int) error { return e.referenceScan(ctx, c, e.corpus[i]) })
	}
	sample.seconds = time.Since(begin).Seconds()
	if err != nil {
		e.destroy()
		return nil, sample, err
	}
	sample.turnaroundMs = turnaround
	for _, j := range e.corpus {
		sample.statusRecords += j.statusRecords
		if j.storedBytes, err = dirBytes(filepath.Join(dir, "jobs", j.id)); err != nil {
			e.destroy()
			return nil, sample, err
		}
	}
	return e, sample, nil
}

// referenceScan streams the whole job once at the seek grid's batch
// size, keeping every record's digest and every batch's cursor, and
// checks the scan against the on-disk manifest.
func (e *env) referenceScan(ctx context.Context, c int, j *corpusJob) error {
	st, err := runStream(ctx, e.cs[c], j.id, client.StreamOptions{BatchSize: seekBatch, Wire: client.WireFrame},
		func(w *client.BatchWire, _ time.Time) {
			j.digests = appendDigests(j.digests, w)
			j.cursors = append(j.cursors, w.Cursor)
		})
	if err != nil {
		return fmt.Errorf("reference scan of %s: %w", j.id, err)
	}
	j.records, j.frameBytes = st.records, st.bytes
	b, err := os.ReadFile(filepath.Join(e.dir, "jobs", j.id, shard.ManifestFile))
	if err != nil {
		return fmt.Errorf("reference scan of %s: %w", j.id, err)
	}
	m, err := shard.DecodeManifest(b)
	if err != nil {
		return fmt.Errorf("reference scan of %s: %w", j.id, err)
	}
	if m.TotalRecords() != j.records || len(m.Shards) != j.shards || j.records == 0 {
		return fmt.Errorf("reference scan of %s: streamed %d records, manifest holds %d in %d shards (status says %d shards)",
			j.id, j.records, m.TotalRecords(), len(m.Shards), j.shards)
	}
	if want := endCursor(j.shards); st.cursor != want {
		return fmt.Errorf("reference scan of %s: final cursor %q, want %q", j.id, st.cursor, want)
	}
	return nil
}

func endCursor(shards int) string { return fmt.Sprintf("%d:0", shards) }

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// streamStats is what one drained stream observed.
type streamStats struct {
	records int
	bytes   int64
	cursor  string // after the last batch
	trace   string
	begin   time.Time // just before StreamBatches
	opened  time.Time // StreamBatches returned
	first   time.Time // first Next returned (zero when no batch arrived)
	end     time.Time
}

// runStream opens a stream and drains it with full decode and
// validation (Next does both), calling each per batch with the time
// Next returned.
func runStream(ctx context.Context, c *client.Client, jobID string, o client.StreamOptions, each func(*client.BatchWire, time.Time)) (streamStats, error) {
	st := streamStats{begin: time.Now()}
	s, err := c.StreamBatches(ctx, jobID, o)
	st.opened = time.Now()
	if err != nil {
		st.end = st.opened
		return st, err
	}
	st.trace = s.TraceID()
	for {
		w, err := s.Next()
		now := time.Now()
		if err == io.EOF {
			st.end = now
			st.bytes = s.Bytes()
			return st, nil
		}
		if err != nil {
			st.end = now
			return st, err
		}
		if st.first.IsZero() {
			st.first = now
		}
		st.records += w.Count()
		st.cursor = w.Cursor
		each(w, now)
	}
}

// appendDigests appends one digest per record of the batch. Both wires
// decode into the same BatchWire, so a record's digest is the same
// whichever wire delivered it.
func appendDigests(out []uint64, w *client.BatchWire) []uint64 {
	for i := 0; i < w.Count(); i++ {
		h := newDigest()
		switch w.Kind {
		case domain.KindSamples:
			h.f32s(w.Features[i])
			h.u64(uint64(w.Labels[i]))
		case domain.KindFusionWindows:
			h.f32s(w.Signals[i])
			h.u64(uint64(w.Labels[i]))
			h.u64(uint64(w.Shots[i]))
			h.u64(uint64(w.Starts[i]))
			h.u64(uint64(math.Float32bits(w.Horizons[i])))
		case domain.KindMaterialsGraphs:
			g := &w.Graphs[i]
			h.u64(uint64(g.Nodes))
			h.u64(uint64(g.FeatureDim))
			h.f64s(g.NodeFeatures)
			for _, e := range g.Edges {
				h.u64(uint64(e))
			}
			h.f64s(g.EdgeLengths)
			h.u64(math.Float64bits(g.Energy))
			h.u64(uint64(g.ClassID))
		}
		out = append(out, uint64(h))
	}
	return out
}

// digest is FNV-1a over 64-bit words: enough to tell two records apart,
// cheap enough not to compete with the server for the two cores.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) u64(v uint64) { *d = (*d ^ digest(v)) * 1099511628211 }

func (d *digest) f32s(vs []float32) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.u64(uint64(math.Float32bits(v)))
	}
}

func (d *digest) f64s(vs []float64) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}
