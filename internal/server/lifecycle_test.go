// Tests for the job lifecycle in jobs.go: one retention walk, one
// restore path (startup and adoption charge tenants alike), and the
// durable-before-visible order of the terminal transition, eviction
// and stream opens.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/shard"
	"repro/internal/tenant"
	"repro/pkg/client"
)

// retentionJob is one completed job in a retention table row.
type retentionJob struct {
	name    string
	tenant  string
	age     time.Duration // now - lastAccess
	bytes   int64         // stored bytes its manifest pins
	foreign bool          // another member owns it
}

// retentionRows are the retention cases, each with the victims and the
// released jobs that the old three-pass maybeEvict chose for the same
// table. Ties in lastAccess sit only where the outcome does not depend
// on how they break.
var retentionRows = []struct {
	name      string
	ttl       time.Duration
	maxJobs   int
	caps      map[string]int64 // tenant -> MaxShardBytes
	usage     map[string]int64 // tenant -> retained bytes
	jobs      []retentionJob
	victims   []string
	released  []string
	usageLeft map[string]int64 // retained bytes after eviction
}{
	{
		name: "ttl only",
		ttl:  time.Hour,
		jobs: []retentionJob{
			{name: "a", age: 2 * time.Hour, bytes: 10},
			{name: "b", age: 90 * time.Minute, bytes: 10},
			{name: "c", age: 30 * time.Minute, bytes: 10},
			{name: "d", bytes: 10},
		},
		victims: []string{"a", "b"},
	},
	{
		name:    "max jobs only",
		maxJobs: 2,
		jobs: []retentionJob{
			{name: "a", age: 4 * time.Minute},
			{name: "b", age: 3 * time.Minute},
			{name: "c", age: 2 * time.Minute},
			{name: "d", age: time.Minute},
		},
		victims: []string{"a", "b"},
	},
	{
		name:  "byte cap only",
		caps:  map[string]int64{"alice": 100},
		usage: map[string]int64{"alice": 230, "bob": 100},
		jobs: []retentionJob{
			{name: "a", tenant: "alice", age: 4 * time.Minute, bytes: 100},
			{name: "b", tenant: "bob", age: 3 * time.Minute, bytes: 100},
			{name: "c", tenant: "alice", age: 2 * time.Minute, bytes: 40},
			{name: "d", tenant: "alice", age: time.Minute, bytes: 90},
		},
		victims:   []string{"a", "c"},
		usageLeft: map[string]int64{"alice": 90, "bob": 100},
	},
	{
		name:    "all three, equal lastAccess",
		ttl:     time.Hour,
		maxJobs: 3,
		caps:    map[string]int64{"alice": 200},
		usage:   map[string]int64{"alice": 580, "bob": 200},
		jobs: []retentionJob{
			{name: "x1", tenant: "alice", age: 2 * time.Hour, bytes: 100},
			{name: "x2", tenant: "bob", age: 2 * time.Hour, bytes: 100},
			{name: "y1", tenant: "alice", age: 10 * time.Minute, bytes: 100},
			{name: "y2", tenant: "bob", age: 10 * time.Minute, bytes: 50},
			{name: "z1", tenant: "alice", age: 5 * time.Minute, bytes: 200},
			{name: "z2", tenant: "bob", age: 5 * time.Minute, bytes: 50},
			{name: "z3", tenant: "alice", age: time.Minute, bytes: 80},
		},
		victims:   []string{"x1", "x2", "y1", "y2", "z1"},
		usageLeft: map[string]int64{"alice": 180, "bob": 50},
	},
	{
		name:    "non-owned jobs are released, never victims",
		ttl:     time.Hour,
		maxJobs: 1,
		jobs: []retentionJob{
			{name: "p", age: 3 * time.Hour, foreign: true},
			{name: "q", age: 3 * time.Hour},
			{name: "r", age: 10 * time.Minute},
			{name: "s", age: 5 * time.Minute},
			{name: "p2", age: time.Minute, foreign: true},
		},
		victims:  []string{"q", "r"},
		released: []string{"p", "p2"},
	},
	{
		name:  "zero-byte jobs skipped by the byte cap",
		caps:  map[string]int64{"alice": 10},
		usage: map[string]int64{"alice": 100},
		jobs: []retentionJob{
			{name: "a", tenant: "alice", age: 3 * time.Minute},
			{name: "b", tenant: "alice", age: 2 * time.Minute},
			{name: "c", tenant: "alice", age: time.Minute, bytes: 50},
		},
		victims:   []string{"c"},
		usageLeft: map[string]int64{"alice": 50},
	},
}

// TestRetentionVictims checks every row twice: against the pure
// selection, and through maybeEvict on a server whose table holds the
// row's jobs (victims destroyed, released jobs only dropped, each
// job's bytes returned to its tenant).
func TestRetentionVictims(t *testing.T) {
	for _, row := range retentionRows {
		t.Run(row.name, func(t *testing.T) {
			now := time.Now()
			var in []retained
			for _, rj := range row.jobs {
				in = append(in, retained{job: &Job{id: rj.name, tenant: rj.tenant},
					last: now.Add(-rj.age), bytes: rj.bytes, owned: !rj.foreign})
			}
			var over map[string]int64
			if row.caps != nil {
				over = make(map[string]int64)
				for id, c := range row.caps {
					over[id] = row.usage[id] - c
				}
			}
			victims, released := retentionVictims(in, now, row.ttl, row.maxJobs, over)
			assertJobNames(t, "pure victims", victims, row.victims)
			assertJobNames(t, "pure released", released, row.released)

			s, ids, destroyed := retentionServer(t, row.ttl, row.maxJobs, row.caps, row.usage, row.jobs)
			s.maybeEvict()
			var gone []string
			for _, rj := range row.jobs {
				if s.jobs[ids[rj.name]] == nil {
					gone = append(gone, rj.name)
				}
			}
			wantGone := append(append([]string(nil), row.victims...), row.released...)
			assertNames(t, "left the table", gone, wantGone)
			assertNames(t, "destroyed", *destroyed, row.victims)
			for id, want := range row.usageLeft {
				if got := s.tenantRetained(id); got != want {
					t.Errorf("tenant %s retains %d bytes after eviction, want %d", id, got, want)
				}
			}
		})
	}
}

func assertJobNames(t *testing.T, what string, jobs []*Job, want []string) {
	t.Helper()
	var got []string
	for _, j := range jobs {
		got = append(got, j.id)
	}
	assertNames(t, what, got, want)
}

func assertNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	got, want = slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))
	if !slices.Equal(got, want) {
		t.Errorf("%s: %v, want %v", what, got, want)
	}
}

// destroyRecorder is a job store whose Destroy only records the job.
type destroyRecorder struct {
	*shard.FSSink
	name      string
	destroyed *[]string
}

func (d destroyRecorder) Destroy() error {
	*d.destroyed = append(*d.destroyed, d.name)
	return nil
}

// retentionServer builds a server (no workers, no eviction loop) whose
// table holds the row's jobs, done, with their lastAccess, tenant and
// stored bytes, over a ledger in a temp dir. A foreign job gets an ID the two-member ring assigns
// to the other member. ids maps each row name to its job ID.
func retentionServer(t *testing.T, ttl time.Duration, maxJobs int, caps, usage map[string]int64, jobs []retentionJob) (s *Server, ids map[string]string, destroyed *[]string) {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Self: "n1", Nodes: []cluster.Node{
		{ID: "n1", URL: "http://127.0.0.1:1"}, {ID: "n2", URL: "http://127.0.0.1:2"}}})
	if err != nil {
		t.Fatal(err)
	}
	var reg *tenant.Registry
	if caps != nil {
		var ts []*tenant.Tenant
		for id := range usage {
			ts = append(ts, &tenant.Tenant{ID: id, Token: id + "-secret-token", MaxShardBytes: caps[id]})
		}
		reg = testRegistry(t, ts...)
	}
	dir := t.TempDir()
	led, err := ledger.Open(ledger.Config{Path: filepath.Join(dir, "audit.log")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	s = &Server{
		cache:       NewShardCache(0),
		opts:        Options{JobTTL: ttl, MaxJobs: maxJobs, Cluster: cl},
		jobs:        make(map[string]*Job),
		evicted:     make(map[string]bool),
		metrics:     newServerMetrics(),
		logger:      slog.New(slog.DiscardHandler),
		ledger:      led,
		tenants:     reg,
		tenantJobs:  make(map[string]int),
		tenantBytes: make(map[string]int64),
	}
	for id, n := range usage {
		s.tenantBytes[id] = n
	}
	ids, destroyed = make(map[string]string), new([]string)
	now := time.Now()
	for _, rj := range jobs {
		id := ""
		for k := 0; id == ""; k++ {
			if c := fmt.Sprintf("job-%s-%06d", rj.name, k); cl.IsLocal(c) != rj.foreign {
				id = c
			}
		}
		ids[rj.name] = id
		sink, err := shard.NewFSSink(filepath.Join(dir, "jobs", id))
		if err != nil {
			t.Fatal(err)
		}
		j := &Job{id: id, tenant: rj.tenant, state: JobDone, lastAccess: now.Add(-rj.age),
			store: destroyRecorder{FSSink: sink, name: rj.name, destroyed: destroyed}}
		if rj.bytes > 0 {
			j.manifest = &shard.Manifest{Shards: []shard.Info{{Name: "s0", StoredBytes: rj.bytes}}}
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	return s, ids, destroyed
}

// TestTerminalSyncFailureFailsJob: a job is done only once its terminal
// record is durable. When that record's fsync fails the job ends
// failed, naming the audit ledger, and is never seen done on the way;
// the node reports the sticky ledger failure on /healthz.
func TestTerminalSyncFailureFailsJob(t *testing.T) {
	onLogSync(t, "audit.log", func(n int) error {
		if n >= 2 { // 1 is the submitted record, 2 the terminal one
			return errors.New("injected fsync failure")
		}
		return nil
	})
	_, ts := newTestServer(t, Options{Workers: 1, DataDir: t.TempDir()})
	st, code := postJob(t, ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for st.State != JobFailed {
		if st.State == JobDone {
			t.Fatal("job shown done although its terminal record never became durable")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
		if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &st); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	if !strings.Contains(st.Error, "audit ledger") || !strings.Contains(st.Error, "injected fsync failure") {
		t.Fatalf("failed job's error %q does not name the audit ledger failure", st.Error)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after a failed terminal sync: %d, want 503", code)
	}
}

// TestUnloggedEvictionKeepsFiles: eviction logs its intent before it
// deletes. When the evicted record cannot be made durable, the job
// still leaves the table but its shard directory stays, and a restart
// re-serves the job.
func TestUnloggedEvictionKeepsFiles(t *testing.T) {
	dataDir := t.TempDir()
	onLogSync(t, "audit.log", func(n int) error {
		if n == 4 { // 1 submitted, 2 done, 3 the stream below, 4 evicted
			return errors.New("injected fsync failure")
		}
		return nil
	})
	s, err := New(Options{Workers: 1, DataDir: dataDir, JobTTL: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := streamAll(t, ts.URL+"/v1/jobs/"+id+"/batches?batch_size=4")
	deadline := time.Now().Add(10 * time.Second)
	for getJSON(t, ts.URL+"/v1/jobs/"+id, nil) != http.StatusNotFound {
		if time.Now().After(deadline) {
			t.Fatal("job not evicted after TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The failed append is what turns /healthz to 503; by then the
	// eviction has decided the files' fate.
	for getJSON(t, ts.URL+"/healthz", nil) != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("the evicted record's fsync never failed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts.Close()
	s.Close()
	if _, err := os.Stat(filepath.Join(dataDir, "jobs", id)); err != nil {
		t.Fatalf("shard dir of an unlogged eviction: %v; want it kept", err)
	}

	_, ts2 := newTestServer(t, Options{Workers: 1, DataDir: dataDir})
	var st JobStatus
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+id, &st); code != http.StatusOK || st.State != JobDone {
		t.Fatalf("after restart: status %d, state %s; want the job re-served", code, st.State)
	}
	if got := streamAll(t, ts2.URL+"/v1/jobs/"+id+"/batches?batch_size=4"); string(got) != string(want) {
		t.Fatalf("re-served stream differs (%d vs %d bytes)", len(got), len(want))
	}
}

// TestUnauditedStreamRefused: a stream open whose audit record cannot
// commit gets 503 before any header or stream byte, on either wire.
func TestUnauditedStreamRefused(t *testing.T) {
	onLogSync(t, "audit.log", func(n int) error {
		if n >= 3 { // 1 submitted, 2 done, 3 the first stream open
			return errors.New("injected fsync failure")
		}
		return nil
	})
	_, ts := newTestServer(t, Options{Workers: 1, DataDir: t.TempDir()})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, accept := range []string{"", "application/x-draid-frame"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/batches?batch_size=4", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("X-Draid-Wire") != "" ||
			derr != nil || !strings.Contains(body["error"], "audit ledger") {
			t.Fatalf("unaudited stream (Accept %q): status %d, wire %q, body %v (%v); want a 503 error and no stream",
				accept, resp.StatusCode, resp.Header.Get("X-Draid-Wire"), body, derr)
		}
	}
}

// TestAdoptionChargesTenant: an adopted done job is charged to its
// tenant exactly like a job restored at startup, so releasing it to
// its returning owner later leaves the adopter's own jobs charged.
func TestAdoptionChargesTenant(t *testing.T) {
	const token = "alice-secret-token"
	fleet := startFleet(t, t.TempDir(), 2, func(_ int, o *Options) {
		o.Tenants = testRegistry(t,
			&tenant.Tenant{ID: "alice", Token: token, MaxShardBytes: 1 << 40})
	})
	// Submit until each member owns one of alice's jobs.
	owned := map[int]string{}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := client.New(fleet[0].ts.URL, client.WithToken(token), client.WithPollInterval(5*time.Millisecond))
	for i := 0; len(owned) < 2; i++ {
		if i == 32 {
			t.Fatalf("32 jobs all hashed to one member: %v", owned)
		}
		st, err := c.SubmitJob(ctx, tinyClimate)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitDone(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		for k, f := range fleet {
			if _, dup := owned[k]; !dup && f.s.opts.Cluster.IsLocal(st.ID) {
				owned[k] = st.ID
			}
		}
	}
	adopter := fleet[1].s
	stored := func(s *Server, id string) int64 {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			t.Fatalf("%s not in the table", id)
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		return manifestStoredBytes(j.manifest)
	}
	local := stored(adopter, owned[1])
	if got := adopter.tenantRetained("alice"); got != local {
		t.Fatalf("before adoption alice retains %d bytes, want %d", got, local)
	}
	foreign := owned[0]
	if adopter.adoptJob(foreign) == nil {
		t.Fatalf("targeted adoption of %s failed", foreign)
	}
	adopted := stored(adopter, foreign)
	if got := adopter.tenantRetained("alice"); got != local+adopted {
		t.Fatalf("after adoption alice retains %d bytes, want %d (local %d + adopted %d)", got, local+adopted, local, adopted)
	}
	// The owner is alive, so the adopter's retention releases its copy.
	adopter.maybeEvict()
	deadline := time.Now().Add(10 * time.Second)
	for adopter.tenantRetained("alice") != local {
		if time.Now().After(deadline) {
			t.Fatalf("after release alice retains %d bytes, want only the local job's %d", adopter.tenantRetained("alice"), local)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
