// Crash-consistency tests for the job commit: shard.FSSink no longer
// fsyncs at Close, so "done" is only as good as the barrier runJob
// takes before publishing the manifest and the terminal record. These
// tests stand an injected store in for a failing or slow disk and a
// copied data directory in for a power cut.
package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// barrierStore is an FSSink whose Sync the test controls: it announces
// that a job's commit reached the barrier, holds it there until
// released, and can fail it.
type barrierStore struct {
	*shard.FSSink
	reached chan struct{}
	release chan struct{}
	err     error
	reach   sync.Once
	unblock sync.Once
}

// open lets the barrier (current or future) through.
func (b *barrierStore) open() { b.unblock.Do(func() { close(b.release) }) }

func (b *barrierStore) Sync() error {
	b.reach.Do(func() { close(b.reached) })
	<-b.release
	if b.err != nil {
		return b.err
	}
	return b.FSSink.Sync()
}

// newBarrierServer starts a durable single-worker server whose first
// job store is the returned barrierStore; later jobs get plain FSSinks.
func newBarrierServer(t *testing.T, dataDir string, syncErr error) (*barrierStore, *httptest.Server) {
	t.Helper()
	bs := &barrierStore{reached: make(chan struct{}), release: make(chan struct{}), err: syncErr}
	_, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir,
		NewStore: func(id string) (shard.Store, error) {
			fsink, err := shard.NewFSSink(filepath.Join(dataDir, "jobs", id))
			if err != nil || bs.FSSink != nil {
				return fsink, err
			}
			bs.FSSink = fsink
			return bs, nil
		}})
	// Registered after the server's own cleanup, so it runs first: a test
	// that fails mid-barrier must not leave Close waiting on the worker.
	t.Cleanup(bs.open)
	return bs, ts
}

func awaitBarrier(t *testing.T, bs *barrierStore) {
	t.Helper()
	select {
	case <-bs.reached:
	case <-time.After(60 * time.Second):
		t.Fatal("job never reached the commit barrier")
	}
}

func awaitState(t *testing.T, baseURL, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		if code := getJSON(t, baseURL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("job status %d", code)
		}
		if st.State == want {
			return st
		}
		if st.State == JobDone || st.State == JobFailed || time.Now().After(deadline) {
			t.Fatalf("job is %s (%s), want %s", st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// terminalRecords returns the done/failed records the job log holds for id.
func terminalRecords(t *testing.T, dataDir, id string) []logRecord {
	t.Helper()
	recs, err := readJobLog(filepath.Join(dataDir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	var out []logRecord
	for _, r := range recs {
		if r.ID == id && (r.Type == recDone || r.Type == recFailed) {
			out = append(out, r)
		}
	}
	return out
}

func manifestOnDisk(dataDir, id string) bool {
	return fileExists(filepath.Join(dataDir, "jobs", id, shard.ManifestFile))
}

var barrierSpec = JobSpec{Domain: core.Climate, Months: 24, Lat: 16, Lon: 32, Seed: 11}

// TestFailedBarrierFailsJob: when the shard set cannot be made durable
// nothing may claim it was — no manifest, no done record, a failed job.
func TestFailedBarrierFailsJob(t *testing.T) {
	dataDir := t.TempDir()
	bs, ts := newBarrierServer(t, dataDir, errors.New("injected fsync failure"))
	bs.open()
	st, code := postJob(t, ts.URL, barrierSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	failed := awaitState(t, ts.URL, st.ID, JobFailed)
	if !strings.Contains(failed.Error, "injected fsync failure") {
		t.Fatalf("job error %q does not name the barrier failure", failed.Error)
	}
	if manifestOnDisk(dataDir, st.ID) {
		t.Fatal("manifest published over a shard set that failed its barrier")
	}
	term := terminalRecords(t, dataDir, st.ID)
	if len(term) != 1 || term[0].Type != recFailed {
		t.Fatalf("terminal records %+v, want exactly one failed", term)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/batches", nil); code != http.StatusConflict {
		t.Fatalf("batches of a job that failed its barrier: status %d", code)
	}
}

// TestBlockedBarrierHoldsDone: however long the disk takes, the job is
// not done, not served and not logged until the barrier returns.
func TestBlockedBarrierHoldsDone(t *testing.T) {
	dataDir := t.TempDir()
	bs, ts := newBarrierServer(t, dataDir, nil)
	st, code := postJob(t, ts.URL, barrierSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	awaitBarrier(t, bs)
	for i := 0; i < 20; i++ {
		if got := awaitState(t, ts.URL, st.ID, JobRunning); got.Servable {
			t.Fatal("job servable while its barrier is blocked")
		}
		if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/batches", nil); code != http.StatusConflict {
			t.Fatalf("batches served (status %d) while the barrier is blocked", code)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if manifestOnDisk(dataDir, st.ID) {
		t.Fatal("manifest published before the barrier returned")
	}
	if term := terminalRecords(t, dataDir, st.ID); len(term) != 0 {
		t.Fatalf("terminal record logged before the barrier returned: %+v", term)
	}
	bs.open()
	awaitState(t, ts.URL, st.ID, JobDone)
	if !manifestOnDisk(dataDir, st.ID) {
		t.Fatal("done job has no manifest on disk")
	}
	if term := terminalRecords(t, dataDir, st.ID); len(term) != 1 || term[0].Type != recDone {
		t.Fatalf("terminal records %+v, want exactly one done", term)
	}
	if len(streamAll(t, ts.URL+"/v1/jobs/"+st.ID+"/batches?batch_size=4")) == 0 {
		t.Fatal("done job streamed nothing")
	}
}

// copyTree copies a data directory as it is right now.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, info.Mode().Perm())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPowerCutBeforeBarrier: a data directory frozen after the pipeline
// but before the barrier, with two shards cut to zero bytes the way an
// unsynced file comes back, must never be served. Reopened plainly the
// job is failed; reopened with Requeue it is rerun from a wiped
// directory and streams what a fresh run of the same spec streams.
func TestPowerCutBeforeBarrier(t *testing.T) {
	dataDir := t.TempDir()
	bs, ts := newBarrierServer(t, dataDir, nil)
	st, code := postJob(t, ts.URL, barrierSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	awaitBarrier(t, bs)
	snapshots := [2]string{filepath.Join(t.TempDir(), "plain"), filepath.Join(t.TempDir(), "requeue")}
	for _, snap := range snapshots {
		copyTree(t, dataDir, snap)
	}
	bs.open()
	awaitState(t, ts.URL, st.ID, JobDone)
	want := streamAll(t, ts.URL+"/v1/jobs/"+st.ID+"/batches?batch_size=4")

	var cut []string
	for _, snap := range snapshots {
		jobDir := filepath.Join(snap, "jobs", st.ID)
		if fileExists(filepath.Join(jobDir, shard.ManifestFile)) {
			t.Fatal("snapshot taken before the barrier already holds a manifest")
		}
		entries, err := os.ReadDir(jobDir)
		if err != nil {
			t.Fatal(err)
		}
		cut = cut[:0]
		for _, e := range entries {
			if len(cut) < 2 && !strings.HasSuffix(e.Name(), ".fpay") {
				if err := os.Truncate(filepath.Join(jobDir, e.Name()), 0); err != nil {
					t.Fatal(err)
				}
				cut = append(cut, e.Name())
			}
		}
		if len(cut) != 2 {
			t.Fatalf("snapshot holds %d shards to cut, want 2", len(cut))
		}
	}

	_, plain := newTestServer(t, Options{Workers: 1, DataDir: snapshots[0]})
	lost := awaitState(t, plain.URL, st.ID, JobFailed)
	if lost.Servable {
		t.Fatal("interrupted job reported servable")
	}
	if code := getJSON(t, plain.URL+"/v1/jobs/"+st.ID+"/batches", nil); code != http.StatusConflict {
		t.Fatalf("batches of an uncommitted job: status %d", code)
	}

	_, rerun := newTestServer(t, Options{Workers: 1, DataDir: snapshots[1], Requeue: true})
	awaitState(t, rerun.URL, st.ID, JobDone)
	if got := streamAll(t, rerun.URL+"/v1/jobs/"+st.ID+"/batches?batch_size=4"); !bytes.Equal(got, want) {
		t.Fatalf("rerun streams %d bytes, the uninterrupted job %d", len(got), len(want))
	}
	for _, name := range cut {
		fi, err := os.Stat(filepath.Join(snapshots[1], "jobs", st.ID, name))
		if err != nil || fi.Size() == 0 {
			t.Fatalf("shard %s not rebuilt by the rerun (err %v)", name, err)
		}
	}
}

// TestLogCreationSyncsDataDir: the first start creates jobs.log,
// audit.log and master.key; their names are durable only once the data
// dir is fsynced. A restart that creates nothing syncs nothing.
func TestLogCreationSyncsDataDir(t *testing.T) {
	var synced []string
	orig := syncDir
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return orig(dir)
	}
	t.Cleanup(func() { syncDir = orig })

	dataDir := t.TempDir()
	s1, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if len(synced) != 1 || synced[0] != dataDir {
		t.Fatalf("first start synced %v, want the data dir once", synced)
	}
	for _, name := range []string{"jobs.log", "audit.log", masterKeyFile} {
		if !fileExists(filepath.Join(dataDir, name)) {
			t.Fatalf("%s not created", name)
		}
	}
	s2, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if len(synced) != 1 {
		t.Fatalf("restart over existing logs synced again: %v", synced)
	}
}
