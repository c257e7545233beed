// Tests for the server's two durable logs, the job log and the audit
// ledger, as they sit on internal/wal: torn tails, read-only replay of
// peers' logs, file modes, status polls during a held fsync, and
// /healthz after a failed one.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// onLogSync runs fn before every fsync of the log file called name,
// passing the sync's 1-based count for that file; an error from fn
// fails the sync. Call it before starting the server, so the real seam
// comes back only after the server has closed.
func onLogSync(t *testing.T, name string, fn func(n int) error) {
	t.Helper()
	orig := wal.Fsync
	var calls atomic.Int32
	wal.Fsync = func(f *os.File) error {
		if filepath.Base(f.Name()) == name {
			if err := fn(int(calls.Add(1))); err != nil {
				return err
			}
		}
		return orig(f)
	}
	t.Cleanup(func() { wal.Fsync = orig })
}

// TestJobLogCompleteTornTailDropped: a final job-log line that is a
// well-formed record but lacks its '\n' never committed (line and '\n'
// are one write), so a restart must not replay it and must cut it off.
func TestJobLogCompleteTornTailDropped(t *testing.T) {
	dataDir := t.TempDir()
	s, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	logPath := filepath.Join(dataDir, "jobs.log")
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(logRecord{Type: recSubmitted, ID: "job-000042", Time: time.Now(),
		Spec: &JobSpec{Domain: core.Climate}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, append(before, rec...), 0o600); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir})
	if code := getJSON(t, ts.URL+"/v1/jobs/job-000042", nil); code != http.StatusNotFound {
		t.Fatalf("job from an uncommitted tail record: status %d, want 404", code)
	}
	if after, _ := os.ReadFile(logPath); !bytes.Equal(after, before) {
		t.Fatalf("job log holds %q after reopen, want the torn tail cut off (%q)", after, before)
	}
}

// TestPeerLogTailLeftInPlace: startup replays every member's log on the
// shared dir, but a peer's log is live — its partial last line may be
// an append in flight — so replay reads it without modifying it.
func TestPeerLogTailLeftInPlace(t *testing.T) {
	dataDir := t.TempDir()
	peer := filepath.Join(dataDir, "jobs-n2.log")
	body := append(logLines(t, logRecord{Type: recSubmitted, ID: "job-n2-000001", Time: time.Now(),
		Spec: &JobSpec{Domain: core.Climate}, Node: "n2"}), `{"type":"submitted","id":"job-n2-0000`...)
	if err := os.WriteFile(peer, body, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := readAllJobLogs(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "job-n2-000001" {
		t.Fatalf("replayed %+v, want the one complete record", recs)
	}
	_, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir})
	if code := getJSON(t, ts.URL+"/v1/jobs/job-n2-000001", nil); code != http.StatusOK {
		t.Fatalf("peer's complete record not replayed: status %d", code)
	}
	if after, _ := os.ReadFile(peer); !bytes.Equal(after, body) {
		t.Fatalf("replay modified the peer's log: %q", after)
	}
}

// TestNewLogsAreOwnerOnly: jobs.log carries sealed job keys and tenant
// IDs, so both logs are created 0600, like master.key.
func TestNewLogsAreOwnerOnly(t *testing.T) {
	dataDir := t.TempDir()
	newTestServer(t, Options{Workers: 1, DataDir: dataDir})
	for _, name := range []string{"jobs.log", "audit.log"} {
		fi, err := os.Stat(filepath.Join(dataDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if mode := fi.Mode().Perm(); mode != 0o600 {
			t.Errorf("%s created with mode %04o, want 0600", name, mode)
		}
	}
}

// TestStatusDoesNotWaitOnTerminalSync: the terminal record is appended
// outside job.mu, so a status poll (what WaitDone does) answers while
// that record's fsync is still in flight — and answers running: a job
// turns done only once its terminal record is durable.
func TestStatusDoesNotWaitOnTerminalSync(t *testing.T) {
	entered, held := make(chan struct{}), make(chan struct{})
	onLogSync(t, "jobs.log", func(n int) error {
		if n == 2 { // 1 is the submitted record, 2 the terminal one
			close(entered)
			<-held
		}
		return nil
	})
	_, ts := newTestServer(t, Options{Workers: 1, DataDir: t.TempDir()})
	release := sync.OnceFunc(func() { close(held) })
	t.Cleanup(release) // before the server's Close, which waits on the worker
	st, code := postJob(t, ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	select {
	case <-entered:
	case <-time.After(60 * time.Second):
		t.Fatal("the terminal record never reached its fsync")
	}
	poll := &http.Client{Timeout: time.Second}
	resp, err := poll.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatalf("status poll blocked behind the terminal record's fsync: %v", err)
	}
	defer resp.Body.Close()
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || got.State != JobRunning {
		t.Fatalf("status during the held sync: %+v, %v; want running", got, err)
	}
	release()
}

// TestHealthzFailsWithLog: once either log has a sticky commit failure
// the node drops every later record, so /healthz answers 503 naming the
// log (and the fleet's probes route around it); /metrics still answers.
func TestHealthzFailsWithLog(t *testing.T) {
	for name, want := range map[string]string{"jobs.log": "job log", "audit.log": "audit ledger"} {
		t.Run(name, func(t *testing.T) {
			onLogSync(t, name, func(n int) error {
				if n == 1 {
					return errors.New("injected fsync failure")
				}
				return nil
			})
			_, ts := newTestServer(t, Options{Workers: 1, DataDir: t.TempDir()})
			if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
				t.Fatalf("healthz before any failure: %d", code)
			}
			// The failed job-log fsync is the submitted record's, so that
			// submission is refused (TestSubmitFailsClosed); an unaudited
			// submission still runs.
			wantSubmit := http.StatusAccepted
			if name == "jobs.log" {
				wantSubmit = http.StatusServiceUnavailable
			}
			if _, code := postJob(t, ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}); code != wantSubmit {
				t.Fatalf("submit status %d, want %d", code, wantSubmit)
			}
			var body map[string]string
			if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusServiceUnavailable ||
				!strings.Contains(body["error"], want) || !strings.Contains(body["error"], "injected fsync failure") {
				t.Fatalf("healthz after a failed %s fsync: %d %v", name, code, body)
			}
			if code := getJSON(t, ts.URL+"/metrics", nil); code != http.StatusOK {
				t.Fatalf("metrics status %d", code)
			}
		})
	}
}

// TestSubmitFailsClosed: a submission is accepted only once its
// submitted record is durable. When that fsync fails the client gets a
// 503 naming the job log and nothing of the job remains: no table
// entry, no shard dir, no quota charge — and /healthz reports the log.
func TestSubmitFailsClosed(t *testing.T) {
	onLogSync(t, "jobs.log", func(n int) error {
		if n == 1 {
			return errors.New("injected fsync failure")
		}
		return nil
	})
	reg := testRegistry(t, &tenant.Tenant{ID: "alice", Token: "alice-secret-token", MaxJobs: 1})
	dataDir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir, Tenants: reg})

	resp := authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", "alice-secret-token",
		`{"domain":"climate","months":2,"lat":4,"lon":8}`, nil)
	var body map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body["error"], "job log") {
		t.Fatalf("submit with a failed record fsync: %d %v; want 503 naming the job log", resp.StatusCode, body)
	}
	var jobs []JobStatus
	if code := authedJSON(t, ts.URL+"/v1/jobs", "alice-secret-token", &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("job list after a refused submission: %d %+v; want empty", code, jobs)
	}
	if dirs, err := os.ReadDir(filepath.Join(dataDir, "jobs")); err != nil || len(dirs) != 0 {
		t.Fatalf("shard dirs after a refused submission: %v %v; want none", dirs, err)
	}
	s.tenantMu.Lock()
	active := s.tenantJobs["alice"]
	s.tenantMu.Unlock()
	if active != 0 {
		t.Fatalf("alice holds %d active jobs after a refused submission, want 0", active)
	}
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusServiceUnavailable || !strings.Contains(body["error"], "job log") {
		t.Fatalf("healthz after the failed fsync: %d %v", code, body)
	}
}
