// Tests for the server's one durable log, the audit ledger that holds
// its job records, as it sits on internal/wal: torn tails, read-only
// replay of peers' ledgers, file modes, status polls during a held
// fsync, and /healthz and submissions after a failed one.
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
	"repro/internal/ledger"
	"repro/internal/tenant"
	"repro/internal/wal"
	"repro/pkg/client"
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

// TestJobLogCompleteTornTailDropped: a final ledger line that is a
// well-formed job record but lacks its '\n' never committed (line and
// '\n' are one write), so a restart must not replay it and must cut it
// off.
func TestJobLogCompleteTornTailDropped(t *testing.T) {
	dataDir := t.TempDir()
	s, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	logPath := filepath.Join(dataDir, "audit.log")
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// The record the ledger would append next, written without its '\n'.
	next := filepath.Join(t.TempDir(), "audit.log")
	if err := os.WriteFile(next, before, 0o600); err != nil {
		t.Fatal(err)
	}
	writeRecords(t, next, "", jobRec(ledger.TypeSubmitted, "job-000042", jobBody{Spec: &JobSpec{Domain: core.Climate}}))
	rec, err := os.ReadFile(next)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, bytes.TrimSuffix(rec, []byte("\n")), 0o600); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir})
	if code := getJSON(t, ts.URL+"/v1/jobs/job-000042", nil); code != http.StatusNotFound {
		t.Fatalf("job from an uncommitted tail record: status %d, want 404", code)
	}
	if after, _ := os.ReadFile(logPath); !bytes.Equal(after, before) {
		t.Fatalf("ledger holds %q after reopen, want the torn tail cut off (%q)", after, before)
	}
}

// TestPeerLogTailLeftInPlace: a fleet member's startup folds every
// member's ledger on the shared dir, but a peer's ledger is live — its
// partial last line may be an append in flight — so it is read without
// being modified.
func TestPeerLogTailLeftInPlace(t *testing.T) {
	dataDir := t.TempDir()
	peer := filepath.Join(dataDir, "audit-n2.log")
	writeRecords(t, peer, "n2", jobRec(ledger.TypeSubmitted, "job-n2-000001", jobBody{Spec: &JobSpec{Domain: core.Climate}}))
	f, err := os.OpenFile(peer, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"time":"2026-07-01T00:00:00Z","type":"submitted","job":"job-n2-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	body, err := os.ReadFile(peer)
	if err != nil {
		t.Fatal(err)
	}
	fleet := startFleet(t, dataDir, 1, nil)
	if code := getJSON(t, fleet[0].ts.URL+"/v1/jobs/job-n2-000001", nil); code != http.StatusOK {
		t.Fatalf("peer's complete record not replayed: status %d", code)
	}
	if after, _ := os.ReadFile(peer); !bytes.Equal(after, body) {
		t.Fatalf("replay modified the peer's ledger: %q", after)
	}
}

// TestNewLogsAreOwnerOnly: the ledger carries sealed job keys and
// tenant IDs, so it is created 0600, like master.key.
func TestNewLogsAreOwnerOnly(t *testing.T) {
	dataDir := t.TempDir()
	newTestServer(t, Options{Workers: 1, DataDir: dataDir})
	fi, err := os.Stat(filepath.Join(dataDir, "audit.log"))
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o600 {
		t.Errorf("audit.log created with mode %04o, want 0600", mode)
	}
}

// TestStatusDoesNotWaitOnTerminalSync: the terminal record is appended
// outside job.mu, so a status poll (what WaitDone does) answers while
// that record's fsync is still in flight — and answers running: a job
// turns done only once its terminal record is durable.
func TestStatusDoesNotWaitOnTerminalSync(t *testing.T) {
	entered, held := make(chan struct{}), make(chan struct{})
	onLogSync(t, "audit.log", func(n int) error {
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

// TestHealthzFailsWithLog: once the ledger has a sticky commit failure
// the node drops every later record, so /healthz answers 503 naming the
// audit ledger (and the fleet's probes route around it); /metrics still
// answers.
func TestHealthzFailsWithLog(t *testing.T) {
	t.Run("audit.log", func(t *testing.T) {
		onLogSync(t, "audit.log", func(n int) error {
			if n == 1 {
				return errors.New("injected fsync failure")
			}
			return nil
		})
		_, ts := newTestServer(t, Options{Workers: 1, DataDir: t.TempDir()})
		if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
			t.Fatalf("healthz before any failure: %d", code)
		}
		// The failed fsync is the submitted record's, so that submission
		// is refused (TestSubmitFailsClosed).
		if _, code := postJob(t, ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}); code != http.StatusServiceUnavailable {
			t.Fatalf("submit status %d, want 503", code)
		}
		var body map[string]string
		if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusServiceUnavailable ||
			!strings.Contains(body["error"], "audit ledger") || !strings.Contains(body["error"], "injected fsync failure") {
			t.Fatalf("healthz after a failed ledger fsync: %d %v", code, body)
		}
		if code := getJSON(t, ts.URL+"/metrics", nil); code != http.StatusOK {
			t.Fatalf("metrics status %d", code)
		}
	})
}

// TestSubmitFailsClosed: a submission is accepted only once its
// submitted record — its audit record too — is durable. When that fsync
// fails the client gets a 503 naming the audit ledger and nothing of the
// job remains: no table entry, nothing queued, no shard dir, no quota
// charge, no ledger record — and /healthz reports the ledger.
func TestSubmitFailsClosed(t *testing.T) {
	onLogSync(t, "audit.log", func(n int) error {
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
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body["error"], "audit ledger") {
		t.Fatalf("submit with a failed record fsync: %d %v; want 503 naming the audit ledger", resp.StatusCode, body)
	}
	var jobs []JobStatus
	if code := authedJSON(t, ts.URL+"/v1/jobs", "alice-secret-token", &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("job list after a refused submission: %d %+v; want empty", code, jobs)
	}
	if n := len(s.queue); n != 0 {
		t.Fatalf("%d jobs queued after a refused submission, want 0", n)
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
	var roots client.AuditRoots
	if code := authedJSON(t, ts.URL+"/v1/audit/roots", "alice-secret-token", &roots); code != http.StatusOK || roots.Records != 0 {
		t.Fatalf("audit roots after a refused submission: %d, %d records; want 0", code, roots.Records)
	}
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusServiceUnavailable || !strings.Contains(body["error"], "audit ledger") {
		t.Fatalf("healthz after the failed fsync: %d %v", code, body)
	}
}
