package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/shard"
	"repro/pkg/client"
)

// streamAll fetches the full batch stream body, byte for byte.
func streamAll(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCrashRecovery is the acceptance path for durability: run jobs to
// completion against a data dir, kill the server, recreate it from the
// same dir, and require the job list, manifests, and streamed batches
// to be byte-identical — including a bio job whose shards rest sealed
// and whose key round-trips sealed through the ledger.
func TestCrashRecovery(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := New(Options{Workers: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	climateID, err := SubmitAndWait(ts1.URL, JobSpec{Domain: core.Climate, Name: "c", Seed: 3, Months: 24, Lat: 16, Lon: 32}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bioID, err := SubmitAndWait(ts1.URL, JobSpec{Domain: core.BioHealth, Name: "b", Seed: 3, Subjects: 12}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	var listBefore []JobStatus
	if code := getJSON(t, ts1.URL+"/v1/jobs", &listBefore); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	climateStream := streamAll(t, ts1.URL+"/v1/jobs/"+climateID+"/batches?batch_size=4")
	bioStream := streamAll(t, ts1.URL+"/v1/jobs/"+bioID+"/batches?batch_size=4")

	// Kill: no graceful manifest handoff beyond what is already on disk.
	ts1.Close()
	s1.Close()

	s2, err := New(Options{Workers: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(s2.Close)

	var listAfter []JobStatus
	if code := getJSON(t, ts2.URL+"/v1/jobs", &listAfter); code != http.StatusOK {
		t.Fatalf("restart list status %d", code)
	}
	if len(listAfter) != len(listBefore) {
		t.Fatalf("restart lists %d jobs, want %d", len(listAfter), len(listBefore))
	}
	for i := range listBefore {
		b, a := listBefore[i], listAfter[i]
		if a.ID != b.ID || a.State != b.State || a.Records != b.Records ||
			a.Shards != b.Shards || a.Servable != b.Servable || a.Spec != b.Spec {
			t.Fatalf("job %d changed across restart:\nbefore %+v\nafter  %+v", i, b, a)
		}
		if len(a.Trajectory) != len(b.Trajectory) {
			t.Fatalf("job %s trajectory %d points after restart, want %d", a.ID, len(a.Trajectory), len(b.Trajectory))
		}
	}

	for _, tc := range []struct {
		id   string
		want []byte
	}{{climateID, climateStream}, {bioID, bioStream}} {
		got := streamAll(t, ts2.URL+"/v1/jobs/"+tc.id+"/batches?batch_size=4")
		if string(got) != string(tc.want) {
			t.Fatalf("job %s stream differs across restart (%d vs %d bytes)", tc.id, len(got), len(tc.want))
		}
	}

	// Resume an interrupted stream across the restart: take the cursor
	// after the first batch served by s1 and continue on s2.
	var first client.BatchWire
	firstLine := climateStream[:indexByte(climateStream, '\n')]
	if err := json.Unmarshal(firstLine, &first); err != nil {
		t.Fatal(err)
	}
	rest := streamAll(t, ts2.URL+"/v1/jobs/"+climateID+"/batches?batch_size=4&cursor="+first.Cursor)
	if string(firstLine)+"\n"+restAdjusted(rest) != string(climateStream) {
		t.Fatalf("resumed stream does not complete the original")
	}

	// New submissions on the restarted server must not collide with
	// replayed job IDs.
	newID, err := SubmitAndWait(ts2.URL, JobSpec{Domain: core.Materials, Structures: 6}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if newID == climateID || newID == bioID {
		t.Fatalf("restarted server reused job ID %s", newID)
	}
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return len(b)
}

// restAdjusted renumbers a resumed stream's batch indices to continue
// the original count, so concatenation can be compared byte-for-byte.
func restAdjusted(rest []byte) string {
	out := ""
	idx := 1
	for len(rest) > 0 {
		i := indexByte(rest, '\n')
		var wire client.BatchWire
		if err := json.Unmarshal(rest[:i], &wire); err != nil {
			return "unparsable: " + err.Error()
		}
		wire.Batch = idx
		idx++
		b, _ := json.Marshal(&wire)
		out += string(b) + "\n"
		rest = rest[i+1:]
	}
	return out
}

// pinnedStore returns a NewStore hook that deterministically pins the
// single worker: the first store allocation blocks until release
// closes, then fails, so the job occupying the worker can never finish
// before shutdown and every later submission provably stays queued.
// Subsequent allocations use the normal durable FSSink.
func pinnedStore(dataDir string, release <-chan struct{}) func(string) (shard.Store, error) {
	var mu sync.Mutex
	pinned := false
	return func(id string) (shard.Store, error) {
		mu.Lock()
		first := !pinned
		pinned = true
		mu.Unlock()
		if first {
			<-release
			return nil, fmt.Errorf("store released after shutdown began")
		}
		return shard.NewFSSink(filepath.Join(dataDir, "jobs", id))
	}
}

// TestRestartMarksInterruptedJobs: a job still queued when the process
// dies cannot be resurrected (its output was never committed), so the
// restarted server must report it failed rather than lose it.
func TestRestartMarksInterruptedJobs(t *testing.T) {
	dataDir := t.TempDir()
	release := make(chan struct{})
	s1, err := New(Options{Workers: 1, DataDir: dataDir, QueueDepth: 8,
		NewStore: pinnedStore(dataDir, release)})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	// The first job pins the single worker (its store allocation blocks
	// until shutdown); the next submission provably stays queued.
	if _, code := postJob(t, ts1.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	queued, code := postJob(t, ts1.URL, JobSpec{Domain: core.Materials, Structures: 6})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	go func() { <-s1.stop; close(release) }()
	ts1.Close()
	s1.Close()

	s2, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(s2.Close)
	var st JobStatus
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+queued.ID, &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.State != JobFailed {
		t.Fatalf("interrupted job state %q, want failed", st.State)
	}
}

// TestJobEviction: completed jobs past the TTL are dropped, their
// shard directories deleted, and a restart does not resurrect them.
// maybeEvict's order is checked as its contract: 404 first, then the
// directory goes.
func TestJobEviction(t *testing.T) {
	dataDir := t.TempDir()
	s, err := New(Options{Workers: 1, DataDir: dataDir, JobTTL: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dataDir, "jobs", id)
	if _, err := os.Stat(shardDir); err != nil {
		t.Fatalf("shard dir missing while job live: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, nil); code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job not evicted after TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for {
		_, err := os.Stat(shardDir)
		if os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("evicted job's shard dir still present: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts.Close()
	s.Close()

	// Replay must honor the eviction record.
	s2, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(s2.Close)
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("evicted job resurrected with status %d", code)
	}
}

// TestEvictionReclaimsRestoredJobDirs: a job restored without an
// attached store (non-servable domains keep no read handle) still owns
// a shard directory on disk; evicting it must reclaim that space.
func TestEvictionReclaimsRestoredJobDirs(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	id, err := SubmitAndWait(ts1.URL, JobSpec{Domain: core.Fusion, Shots: 4}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()
	shardDir := filepath.Join(dataDir, "jobs", id)
	if _, err := os.Stat(shardDir); err != nil {
		t.Fatalf("fusion job left no shard dir: %v", err)
	}

	s2, err := New(Options{Workers: 1, DataDir: dataDir, JobTTL: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(s2.Close)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, ts2.URL+"/v1/jobs/"+id, nil); code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restored job never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The 404 becomes visible when the job leaves the table; the shard
	// directory is deleted just after, outside the server lock — poll
	// briefly instead of racing that window.
	for {
		if _, err := os.Stat(shardDir); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted restored job's shard dir still on disk")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobEvictionLRUBound: MaxJobs retains only the most recently
// served completed jobs.
func TestJobEvictionLRUBound(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1})
	first, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Materials, Structures: 6}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	second, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Materials, Structures: 6}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The second completion triggers eviction of the least recently
	// accessed completed job (the first).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+first, nil); code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("LRU eviction never happened")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+second, nil); code != http.StatusOK {
		t.Fatalf("most recent job evicted (status %d)", code)
	}
}

// TestJobLogTornTail: a crash mid-append leaves a partial final line;
// replay must drop it and keep every complete record.
func TestJobLogTornTail(t *testing.T) {
	dataDir := t.TempDir()
	s, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	s.Close()

	logPath := filepath.Join(dataDir, "audit.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"time":"2026-07-01T00:00:00Z","type":"submitted","job":"job-9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(s2.Close)
	var st JobStatus
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+id, &st); code != http.StatusOK || st.State != JobDone {
		t.Fatalf("job lost behind torn tail: code=%d state=%s", code, st.State)
	}
}

// TestMasterKeyRoundTrip pins the sealed-key envelope: a key sealed
// for one job must not open for another.
func TestMasterKeyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	master, err := loadOrCreateMasterKey(dir)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loadOrCreateMasterKey(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(master) != string(again) {
		t.Fatal("master key not stable across loads")
	}
	jobKey := make([]byte, 32)
	for i := range jobKey {
		jobKey[i] = byte(i)
	}
	sealed, err := sealJobKey(master, jobKey, "job-000007")
	if err != nil {
		t.Fatal(err)
	}
	got, err := unsealJobKey(master, sealed, "job-000007")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(jobKey) {
		t.Fatal("job key corrupted by seal round trip")
	}
	if _, err := unsealJobKey(master, sealed, "job-000008"); err == nil {
		t.Fatal("sealed key opened under the wrong job ID")
	}
}

// TestOrphanShardDirsSwept: eviction logs its record before it deletes
// the job's files, so a crash between the two leaves a shard dir that
// no replay names. Startup removes the dir of every evicted ID — and
// only those: a dir with no record may be a peer's job in flight.
func TestOrphanShardDirsSwept(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	id, err := SubmitAndWait(ts1.URL, JobSpec{Domain: core.Climate, Months: 2, Lat: 4, Lon: 8}, 60*time.Second)
	ts1.Close()
	s1.Close()
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dataDir, "jobs", id)
	unlogged := filepath.Join(dataDir, "jobs", "job-000099")
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("done job has no shard dir: %v", err)
	}
	if err := os.MkdirAll(unlogged, 0o755); err != nil {
		t.Fatal(err)
	}
	writeRecords(t, filepath.Join(dataDir, "audit.log"), "", jobRec(ledger.TypeEvicted, id, jobBody{}))

	_, ts2 := newTestServer(t, Options{Workers: 1, DataDir: dataDir})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("evicted job's shard dir survived the restart: %v", err)
	}
	if _, err := os.Stat(unlogged); err != nil {
		t.Fatalf("a dir no record names was swept: %v", err)
	}
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("evicted job: status %d, want 404", code)
	}
}

// TestPrivateDataDir: a server started without DataDir is the durable
// server on a private draid-* temp dir, logged once at Info. It runs a
// job with the audit ledger behind it, shares nothing with
// another such server, and Close removes its dir. A New that fails
// after the choice — a fleet member needs a shared dir — leaves none.
func TestPrivateDataDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	logs := &lockedBuf{}
	a, tsA := newTestServer(t, Options{Workers: 1, Logger: slog.New(slog.NewTextHandler(logs, nil))})
	b, tsB := newTestServer(t, Options{Workers: 1})
	for _, s := range []*Server{a, b} {
		if filepath.Dir(s.opts.DataDir) != tmp || !strings.HasPrefix(filepath.Base(s.opts.DataDir), "draid-") {
			t.Fatalf("private data dir %q, want a draid-* dir under %s", s.opts.DataDir, tmp)
		}
	}
	if a.opts.DataDir == b.opts.DataDir {
		t.Fatalf("two servers share the data dir %s", a.opts.DataDir)
	}
	if n := strings.Count(logs.String(), "dir="+a.opts.DataDir); n != 1 {
		t.Fatalf("private data dir logged %d times, want once:\n%s", n, logs.String())
	}

	id, err := SubmitAndWait(tsA.URL, JobSpec{Domain: core.Climate, Seed: 1, Months: 12, Lat: 8, Lon: 16}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !fileExists(filepath.Join(a.opts.DataDir, "jobs", id, shard.ManifestFile)) {
		t.Fatalf("job %s has no committed manifest in the private dir", id)
	}
	var roots client.AuditRoots
	if code := getJSON(t, tsA.URL+"/v1/audit/roots", &roots); code != http.StatusOK || roots.Records == 0 || len(roots.Roots) == 0 {
		t.Fatalf("audit roots: status %d, %+v", code, roots)
	}
	var proof client.AuditProof
	if code := getJSON(t, tsA.URL+"/v1/audit/proof?seq=1", &proof); code != http.StatusOK {
		t.Fatalf("audit proof: status %d", code)
	}
	if proof.Record.Type != ledger.TypeSubmitted || proof.Record.Job != id {
		t.Fatalf("first audit record %+v, want the submitted record of %s", proof.Record, id)
	}
	if err := proof.Verify(); err != nil {
		t.Fatal(err)
	}

	// The other server saw none of it.
	var jobs []JobStatus
	if getJSON(t, tsB.URL+"/v1/jobs", &jobs); len(jobs) != 0 {
		t.Fatalf("second server lists %d jobs", len(jobs))
	}
	if getJSON(t, tsB.URL+"/v1/audit/roots", &roots); roots.Records != 0 {
		t.Fatalf("second server's ledger holds %d records", roots.Records)
	}
	if bytes.Equal(a.master, b.master) {
		t.Fatal("two servers share a master key")
	}

	a.Close()
	b.Close()
	cl, err := cluster.New(cluster.Config{Self: "n1", Nodes: []cluster.Node{{ID: "n1", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := New(Options{Cluster: cl}); err == nil {
		s.Close()
		t.Fatal("fleet member started without a shared DataDir")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("%d entries left in the temp dir after Close and a failed New: %v", len(left), left)
	}
}

// TestOneLogPerNode: a node keeps one log. After a submission, a stream
// and an eviction the data dir holds audit.log and no other log, and
// the job's submitted and evicted records — its audit records too — are
// each in it exactly once.
func TestOneLogPerNode(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir, JobTTL: 150 * time.Millisecond})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, ts.URL+"/v1/jobs/"+id+"/batches?batch_size=4")
	// The shard dir goes only once the evicted record is durable.
	for deadline := time.Now().Add(10 * time.Second); fileExists(filepath.Join(dataDir, "jobs", id)); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job not evicted after its TTL")
		}
	}
	logs, err := filepath.Glob(filepath.Join(dataDir, "*.log"))
	if err != nil || len(logs) != 1 || filepath.Base(logs[0]) != "audit.log" {
		t.Fatalf("logs in the data dir: %v %v; want audit.log alone", logs, err)
	}
	count := map[string]int{}
	for _, rec := range readRecords(t, logs[0]) {
		if rec.Job == id {
			count[rec.Type]++
		}
	}
	if count[ledger.TypeSubmitted] != 1 || count[ledger.TypeEvicted] != 1 || count[ledger.TypeDone] != 1 || count[ledger.TypeStream] != 1 {
		t.Fatalf("ledger records of %s: %v; want one each of submitted, done, stream and evicted", id, count)
	}
}

// TestOldJobLogRefused: a data dir written before the ledger held the
// job records has a jobs*.log this version does not read. New refuses
// it, naming the file, rather than starting without those jobs.
func TestOldJobLogRefused(t *testing.T) {
	dataDir := t.TempDir()
	old := filepath.Join(dataDir, "jobs-n2.log")
	if err := os.WriteFile(old, []byte(`{"type":"submitted","id":"job-n2-000001"}`+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Workers: 1, DataDir: dataDir}); err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("New over an old job log: %v; want an error naming %s", err, old)
	}
}

// TestFailedNewReleasesNodeLock: a New that fails after taking the
// fleet node lock gives it back (and closes what it opened), so a New
// with the same node ID in the same process succeeds once the cause is
// gone.
func TestFailedNewReleasesNodeLock(t *testing.T) {
	dataDir := t.TempDir()
	member := func() *cluster.Cluster {
		cl, err := cluster.New(cluster.Config{Self: "n1", Nodes: []cluster.Node{{ID: "n1", URL: "http://127.0.0.1:1"}}})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	blocker := filepath.Join(dataDir, "audit-n1.log")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if s, err := New(Options{Workers: 1, DataDir: dataDir, Cluster: member()}); err == nil {
		s.Close()
		t.Fatal("New opened a ledger that is a directory")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Workers: 1, DataDir: dataDir, Cluster: member()})
	if err != nil {
		t.Fatalf("New after the failed one: %v", err)
	}
	s.Close()
}
