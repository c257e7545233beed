// Multi-tenancy acceptance tests: the auth gate (401s, open paths,
// header spoofing), tenant scoping of jobs/listings/traces, quota
// enforcement, byte-quota eviction pressure, the audit trail with
// verifiable inclusion proofs, and the weighted-fair bandwidth split.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/tenant"
	"repro/pkg/client"
)

func testRegistry(t *testing.T, tenants ...*tenant.Tenant) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(tenants)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// threeTenants is the standard cast: two plain tenants and an admin.
func threeTenants(t *testing.T) *tenant.Registry {
	t.Helper()
	return testRegistry(t,
		&tenant.Tenant{ID: "alice", Token: "alice-secret-token"},
		&tenant.Tenant{ID: "bob", Token: "bob-secret-token"},
		&tenant.Tenant{ID: "root", Token: "root-secret-token", Admin: true},
	)
}

// authedDo performs one request with a bearer token (empty sends none)
// and optional extra headers.
func authedDo(t *testing.T, method, url, token string, body string, hdr map[string]string) *http.Response {
	t.Helper()
	var rdr *strings.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	} else {
		rdr = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// authedJSON GETs a URL with a token and decodes the answer.
func authedJSON(t *testing.T, url, token string, out any) int {
	t.Helper()
	resp := authedDo(t, http.MethodGet, url, token, "", nil)
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// authedSubmit posts a job as the given tenant, returning the accepted
// status and HTTP code.
func authedSubmit(t *testing.T, baseURL, token string, spec JobSpec) (client.JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp := authedDo(t, http.MethodPost, baseURL+"/v1/jobs", token, string(body),
		map[string]string{"Content-Type": "application/json"})
	defer resp.Body.Close()
	var st client.JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	st.Trace = resp.Header.Get(client.TraceHeader)
	return st, resp.StatusCode
}

// waitDoneAuthed polls a job as its tenant until it reaches the done
// state.
func waitDoneAuthed(t *testing.T, baseURL, token, id string, timeout time.Duration) client.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var st client.JobStatus
		if code := authedJSON(t, baseURL+"/v1/jobs/"+id, token, &st); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		switch st.State {
		case client.JobDone:
			return st
		case client.JobFailed:
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s not done after %s", id, timeout)
	return client.JobStatus{}
}

var tinyClimate = JobSpec{Domain: core.Climate, Seed: 7, Months: 2, Lat: 4, Lon: 8}

func TestAuthGateAndOpenPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Tenants: threeTenants(t)})

	// No credential and a wrong credential both die with 401 and a
	// WWW-Authenticate challenge.
	for _, token := range []string{"", "not-a-real-token"} {
		resp := authedDo(t, http.MethodGet, ts.URL+"/v1/jobs", token, "", nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("token %q: status %d, want 401", token, resp.StatusCode)
		}
		if !strings.Contains(resp.Header.Get("WWW-Authenticate"), "Bearer") {
			t.Fatalf("token %q: missing WWW-Authenticate challenge", token)
		}
	}
	// Submissions are gated too.
	if _, code := authedSubmit(t, ts.URL, "", tinyClimate); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated submit: status %d, want 401", code)
	}

	// The liveness probe and the metrics scrape stay open: orchestrators
	// and scrapers operate pre-credential.
	for _, path := range []string{"/healthz", "/metrics"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusOK {
			t.Fatalf("%s behind auth: status %d", path, code)
		}
	}

	// A registered token passes, via header or (for clients that cannot
	// set headers) the access_token query parameter.
	if code := authedJSON(t, ts.URL+"/v1/jobs", "alice-secret-token", nil); code != http.StatusOK {
		t.Fatalf("authenticated list: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?access_token=alice-secret-token", nil); code != http.StatusOK {
		t.Fatalf("query-token list: status %d", code)
	}

	// The failures were counted.
	if n := metricValue(t, ts.URL, "draid_tenant_auth_failures_total"); n < 3 {
		t.Fatalf("draid_tenant_auth_failures_total = %d, want >= 3", n)
	}
}

func TestTenantIsolation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Tenants: threeTenants(t)})

	st, code := authedSubmit(t, ts.URL, "alice-secret-token", tinyClimate)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitDoneAuthed(t, ts.URL, "alice-secret-token", st.ID, 60*time.Second)
	if done.Tenant != "alice" {
		t.Fatalf("job tenant %q, want alice", done.Tenant)
	}

	// Bob can locate nothing of alice's: status, events, provenance, and
	// batches are all 403 — not 404, the sequential ID namespace is no
	// secret, the contents are.
	for _, path := range []string{"", "/events", "/provenance", "/batches"} {
		if code := authedJSON(t, ts.URL+"/v1/jobs/"+st.ID+path, "bob-secret-token", nil); code != http.StatusForbidden {
			t.Fatalf("bob on %s: status %d, want 403", path, code)
		}
	}
	// Spoofing the fleet tenant header buys bob nothing: without the
	// peer secret the middleware overwrites it with his authenticated
	// identity.
	resp := authedDo(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, "bob-secret-token", "",
		map[string]string{tenant.HeaderTenant: "alice"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("spoofed tenant header: status %d, want 403", resp.StatusCode)
	}

	// Listings are scoped: bob sees nothing, alice and the admin see the
	// job.
	var jobs []client.JobStatus
	if code := authedJSON(t, ts.URL+"/v1/jobs", "bob-secret-token", &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("bob list: status %d, %d jobs, want 0", code, len(jobs))
	}
	for _, token := range []string{"alice-secret-token", "root-secret-token"} {
		jobs = nil
		if code := authedJSON(t, ts.URL+"/v1/jobs", token, &jobs); code != http.StatusOK || len(jobs) != 1 {
			t.Fatalf("%s list: status %d, %d jobs, want 1", token, code, len(jobs))
		}
	}
	// The admin streams any tenant's batches; the owner does too.
	for _, token := range []string{"alice-secret-token", "root-secret-token"} {
		resp := authedDo(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/batches?max_batches=1", token, "", nil)
		sc := bufio.NewScanner(resp.Body)
		if !sc.Scan() {
			t.Fatalf("%s: empty batch stream", token)
		}
		resp.Body.Close()
	}
}

func TestTraceTenantScoping(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Tenants: threeTenants(t)})

	st, code := authedSubmit(t, ts.URL, "alice-secret-token", tinyClimate)
	if code != http.StatusAccepted || st.Trace == "" {
		t.Fatalf("submit: status %d trace %q", code, st.Trace)
	}
	waitDoneAuthed(t, ts.URL, "alice-secret-token", st.ID, 60*time.Second)

	// The submission's trace belongs to alice: bob gets a 403 on the
	// span tree, alice and the admin read it.
	if code := authedJSON(t, ts.URL+"/v1/traces/"+st.Trace, "bob-secret-token", nil); code != http.StatusForbidden {
		t.Fatalf("bob on alice's trace: status %d, want 403", code)
	}
	for _, token := range []string{"alice-secret-token", "root-secret-token"} {
		var view client.TraceView
		if code := authedJSON(t, ts.URL+"/v1/traces/"+st.Trace, token, &view); code != http.StatusOK || len(view.Spans) == 0 {
			t.Fatalf("%s on alice's trace: status %d, %d spans", token, code, len(view.Spans))
		}
	}
	// The listing hides it from bob too.
	var sums []client.TraceSummary
	if code := authedJSON(t, ts.URL+"/v1/traces?limit=0", "bob-secret-token", &sums); code != http.StatusOK {
		t.Fatalf("bob trace list: status %d", code)
	}
	for _, sum := range sums {
		if sum.TraceID == st.Trace {
			t.Fatalf("bob's trace listing leaks alice's trace %s", st.Trace)
		}
	}
}

func TestTenantQuotaEnforcement(t *testing.T) {
	reg := testRegistry(t,
		&tenant.Tenant{ID: "alice", Token: "alice-secret-token", MaxJobs: 2, MaxShardBytes: 1 << 30},
	)
	s, ts := newTestServer(t, Options{Workers: 1, Tenants: reg})

	// Active-job quota: with both slots occupied the next submission is
	// refused. The slots are preloaded through the bookkeeping seam so
	// the test does not race job completion.
	s.quotaActivate("alice")
	s.quotaActivate("alice")
	if _, code := authedSubmit(t, ts.URL, "alice-secret-token", tinyClimate); code != http.StatusTooManyRequests {
		t.Fatalf("submit over MaxJobs: status %d, want 429", code)
	}
	s.quotaDeactivate("alice")
	s.quotaDeactivate("alice")

	// Retained-byte quota: a tenant at its cap cannot submit until bytes
	// are released (by eviction or expiry).
	s.quotaRetain("alice", 1<<30)
	if _, code := authedSubmit(t, ts.URL, "alice-secret-token", tinyClimate); code != http.StatusTooManyRequests {
		t.Fatalf("submit over MaxShardBytes: status %d, want 429", code)
	}
	s.quotaRelease("alice", 1<<30)
	if n := metricValue(t, ts.URL, "draid_tenant_quota_rejections_total"); n != 2 {
		t.Fatalf("draid_tenant_quota_rejections_total = %d, want 2", n)
	}

	// Under quota, submissions flow again and the job is charged and
	// discharged across its lifecycle.
	st, code := authedSubmit(t, ts.URL, "alice-secret-token", tinyClimate)
	if code != http.StatusAccepted {
		t.Fatalf("submit under quota: status %d", code)
	}
	waitDoneAuthed(t, ts.URL, "alice-secret-token", st.ID, 60*time.Second)
	if got := s.tenantRetained("alice"); got <= 0 {
		t.Fatalf("done job retained %d bytes for alice, want > 0", got)
	}
	s.tenantMu.Lock()
	active := s.tenantJobs["alice"]
	s.tenantMu.Unlock()
	if active != 0 {
		t.Fatalf("done job still counted active (%d)", active)
	}
}

func TestByteQuotaEvictionPressure(t *testing.T) {
	// A 1-byte cap means any completed job is instantly over quota: the
	// pressure pass must evict it (turning hoarding into LRU turnover)
	// even though neither TTL nor MaxJobs retention is configured.
	reg := testRegistry(t,
		&tenant.Tenant{ID: "alice", Token: "alice-secret-token", MaxShardBytes: 1},
		&tenant.Tenant{ID: "root", Token: "root-secret-token", Admin: true},
	)
	_, ts := newTestServer(t, Options{Workers: 1, Tenants: reg, DataDir: t.TempDir()})

	st, code := authedSubmit(t, ts.URL, "alice-secret-token", tinyClimate)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	evicted := false
	for time.Now().Before(deadline) {
		code := authedJSON(t, ts.URL+"/v1/jobs/"+st.ID, "alice-secret-token", nil)
		if code == http.StatusNotFound {
			evicted = true
			break
		}
		if code != http.StatusOK {
			t.Fatalf("poll: status %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !evicted {
		t.Fatalf("over-quota job %s never evicted", st.ID)
	}

	// The eviction is in the audit ledger with a verifiable proof. The
	// 404 above races the durable append by a moment, so poll briefly.
	var rec ledger.Record
	found := false
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		if r, ok := lookupAuditRecord(t, ts.URL, "root-secret-token", ledger.TypeEvicted, st.ID); ok {
			rec, found = r, true
			break
		}
	}
	if !found {
		t.Fatalf("no evicted record for job %s", st.ID)
	}
	if rec.Tenant != "alice" {
		t.Fatalf("evicted record tenant %q, want alice", rec.Tenant)
	}
}

// lookupAuditRecord scans the audit ledger over the HTTP API for the
// first record of the given type and job, verifying every record's
// inclusion proof against the published roots on the way. Reports
// whether the record was found; proof failures are fatal.
func lookupAuditRecord(t *testing.T, baseURL, token, typ, job string) (ledger.Record, bool) {
	t.Helper()
	var roots client.AuditRoots
	if code := authedJSON(t, baseURL+"/v1/audit/roots", token, &roots); code != http.StatusOK {
		t.Fatalf("audit roots: status %d", code)
	}
	byBatch := make(map[int]client.AuditBatchRoot, len(roots.Roots))
	for _, r := range roots.Roots {
		byBatch[r.Batch] = r
	}
	for seq := uint64(1); seq <= roots.Records; seq++ {
		var proof client.AuditProof
		if code := authedJSON(t, fmt.Sprintf("%s/v1/audit/proof?seq=%d", baseURL, seq), token, &proof); code != http.StatusOK {
			t.Fatalf("audit proof seq %d: status %d", seq, code)
		}
		if err := proof.Verify(); err != nil {
			t.Fatalf("audit proof seq %d: %v", seq, err)
		}
		root, ok := byBatch[proof.Batch]
		if !ok || root.Root != proof.Root {
			t.Fatalf("audit proof seq %d: root %s not among published roots", seq, proof.Root)
		}
		if proof.Record.Type == typ && proof.Record.Job == job {
			return proof.Record, true
		}
	}
	return ledger.Record{}, false
}

// findAuditRecord is lookupAuditRecord that fails the test when the
// record is absent.
func findAuditRecord(t *testing.T, baseURL, token, typ, job string) ledger.Record {
	t.Helper()
	rec, ok := lookupAuditRecord(t, baseURL, token, typ, job)
	if !ok {
		t.Fatalf("no %s audit record for job %q", typ, job)
	}
	return rec
}

func TestAuditTrailEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Tenants: threeTenants(t), DataDir: t.TempDir()})

	// One auth failure, one submission, one stream open — each must land
	// in the ledger.
	resp := authedDo(t, http.MethodGet, ts.URL+"/v1/jobs", "wrong-token", "", nil)
	resp.Body.Close()

	st, code := authedSubmit(t, ts.URL, "alice-secret-token", tinyClimate)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitDoneAuthed(t, ts.URL, "alice-secret-token", st.ID, 60*time.Second)
	stream := authedDo(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/batches?max_batches=1", "alice-secret-token", "", nil)
	sc := bufio.NewScanner(stream.Body)
	if !sc.Scan() {
		t.Fatal("empty batch stream")
	}
	stream.Body.Close()

	sub := findAuditRecord(t, ts.URL, "root-secret-token", ledger.TypeSubmitted, st.ID)
	if sub.Tenant != "alice" {
		t.Fatalf("submitted record tenant %q, want alice", sub.Tenant)
	}
	str := findAuditRecord(t, ts.URL, "root-secret-token", ledger.TypeStream, st.ID)
	if str.Tenant != "alice" {
		t.Fatalf("stream record tenant %q, want alice", str.Tenant)
	}
	fail := findAuditRecord(t, ts.URL, "root-secret-token", ledger.TypeAuthFailure, "")
	if !strings.Contains(fail.Detail, "/v1/jobs") {
		t.Fatalf("auth-failure record detail %q lacks the path", fail.Detail)
	}

	// Tenant scoping holds on the audit API too: alice reads her own
	// records' proofs, bob cannot prove alice's submission. Tenant-less
	// records (the auth failure) belong to no one, so any authenticated
	// tenant may prove them — they contain no other tenant's data.
	if code := authedJSON(t, fmt.Sprintf("%s/v1/audit/proof?seq=%d", ts.URL, sub.Seq), "alice-secret-token", nil); code != http.StatusOK {
		t.Fatalf("alice proving her own record: status %d", code)
	}
	if code := authedJSON(t, fmt.Sprintf("%s/v1/audit/proof?seq=%d", ts.URL, sub.Seq), "bob-secret-token", nil); code != http.StatusForbidden {
		t.Fatalf("bob proving alice's record: status %d, want 403", code)
	}
	if code := authedJSON(t, fmt.Sprintf("%s/v1/audit/proof?seq=%d", ts.URL, fail.Seq), "alice-secret-token", nil); code != http.StatusOK {
		t.Fatalf("alice proving the unowned auth-failure record: status %d", code)
	}
}

func TestWeightedFairSplit(t *testing.T) {
	// alice (weight 3) and bob (weight 1) stream concurrently under a
	// shared 64 KiB/s budget: alice must sustain roughly 3x bob's
	// throughput. Tolerance is generous — token-bucket bursts and
	// scheduler noise are real — but a broken split (equal shares, or a
	// starved tenant) lands far outside it.
	reg := testRegistry(t,
		&tenant.Tenant{ID: "alice", Token: "alice-secret-token", Weight: 3},
		&tenant.Tenant{ID: "bob", Token: "bob-secret-token", Weight: 1},
	)
	_, ts := newTestServer(t, Options{Workers: 2, Tenants: reg, ServeBudgetKBps: 64})

	spec := JobSpec{Domain: core.Climate, Seed: 2, Months: 120, Lat: 32, Lon: 64}
	ids := map[string]string{}
	for _, token := range []string{"alice-secret-token", "bob-secret-token"} {
		st, code := authedSubmit(t, ts.URL, token, spec)
		if code != http.StatusAccepted {
			t.Fatalf("%s submit: status %d", token, code)
		}
		ids[token] = st.ID
	}
	for token, id := range ids {
		waitDoneAuthed(t, ts.URL, token, id, 120*time.Second)
	}

	const window = 2 * time.Second
	measure := func(token, id string, bytes *int64, finished *bool) func() {
		return func() {
			ctx, cancel := context.WithTimeout(context.Background(), window)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet,
				ts.URL+"/v1/jobs/"+id+"/batches?batch_size=1", nil)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Authorization", "Bearer "+token)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			buf := make([]byte, 4096)
			for {
				n, err := resp.Body.Read(buf)
				*bytes += int64(n)
				if err != nil {
					*finished = ctx.Err() == nil // EOF before the window closed
					return
				}
			}
		}
	}
	var aliceBytes, bobBytes int64
	var aliceDone, bobDone bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		measure("alice-secret-token", ids["alice-secret-token"], &aliceBytes, &aliceDone)()
	}()
	go func() { defer wg.Done(); measure("bob-secret-token", ids["bob-secret-token"], &bobBytes, &bobDone)() }()
	wg.Wait()

	if aliceDone || bobDone {
		t.Fatalf("stream drained before the measurement window (alice=%t bob=%t) — job too small for the budget", aliceDone, bobDone)
	}
	if bobBytes == 0 {
		t.Fatal("bob starved: zero bytes in the window")
	}
	ratio := float64(aliceBytes) / float64(bobBytes)
	if ratio < 1.8 || ratio > 5.0 {
		t.Fatalf("weighted-fair split off: alice %d bytes, bob %d bytes, ratio %.2f (want ~3)", aliceBytes, bobBytes, ratio)
	}
	// And the shared budget was respected overall (bursts allowed for).
	budgetBytes := int64(64<<10) * int64(window/time.Second)
	if total := aliceBytes + bobBytes; total > budgetBytes*2 {
		t.Fatalf("streams drew %d bytes in %s, far above the %d-byte budget", total, window, budgetBytes)
	}
}

func TestOpenServerIgnoresTenantMachinery(t *testing.T) {
	// Without a registry the server keeps its open behavior: no auth, no
	// ownership, and a spoofed tenant header neither sticks nor scopes.
	_, ts := newTestServer(t, Options{Workers: 1})
	resp := authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", "", mustJSON(t, tinyClimate),
		map[string]string{"Content-Type": "application/json", tenant.HeaderTenant: "mallory"})
	defer resp.Body.Close()
	var st client.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("open submit: status %d", resp.StatusCode)
	}
	if st.Tenant != "" {
		t.Fatalf("open server stamped tenant %q from a spoofed header", st.Tenant)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID, nil); code != http.StatusOK {
		t.Fatalf("open job read: status %d", code)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMasterKeyLooseModeRejected(t *testing.T) {
	// A pre-existing master key readable by group or world must fail
	// startup: it derives the peer-auth secret and seals per-job keys.
	dir := t.TempDir()
	path := filepath.Join(dir, "master.key")
	if err := os.WriteFile(path, []byte(strings.Repeat("ab", 32)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Workers: 1, DataDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "group/world-readable") {
		t.Fatalf("loose master.key accepted (err=%v)", err)
	}
	// Tightened to 0600 the same key is accepted.
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("0600 master.key rejected: %v", err)
	}
	s.Close()
}

func TestDebugLogsRedactTokens(t *testing.T) {
	// The satellite security contract: bearer credentials never reach
	// logs. Drive an access_token request through a debug-logging server
	// and grep the log output.
	buf := &lockedBuf{}
	logger := slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Options{Workers: 1, Tenants: threeTenants(t), Debug: true, Logger: logger})

	if code := getJSON(t, ts.URL+"/v1/jobs?access_token=alice-secret-token", nil); code != http.StatusOK {
		t.Fatalf("query-token list: status %d", code)
	}
	resp := authedDo(t, http.MethodGet, ts.URL+"/v1/jobs?access_token=wrong-token-value", "", "", nil)
	resp.Body.Close()

	out := buf.String()
	if strings.Contains(out, "alice-secret-token") || strings.Contains(out, "wrong-token-value") {
		t.Fatalf("server logs leak bearer tokens:\n%s", out)
	}
	if !strings.Contains(out, "access_token=REDACTED") {
		t.Fatalf("expected redacted access_token in logs:\n%s", out)
	}
}

// TestJobRecordProofHidesBody: a job record's proof certifies its
// header — type, job, tenant and the body's digest — and not its body.
// The proof of a bio job's done record verifies against the published
// roots, carries the body_hash of the line in the ledger, and holds none
// of the job's spec, provenance or sealed key.
func TestJobRecordProofHidesBody(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.BioHealth, Name: "b", Seed: 3, Subjects: 12}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var done jobRecord
	for _, rec := range readRecords(t, filepath.Join(dataDir, "audit.log")) {
		if rec.Type == ledger.TypeDone && rec.Job == id {
			done = rec
		}
	}
	if done.SealedKey == "" || len(done.Provenance) == 0 || done.BodyHash == "" {
		t.Fatalf("done record of a bio job without sealed key, provenance or body hash: %+v", done.Record)
	}
	rec := findAuditRecord(t, ts.URL, "", ledger.TypeDone, id) // verifies against the roots
	if rec.BodyHash != done.BodyHash {
		t.Fatalf("proved body_hash %q, want the ledger line's %q", rec.BodyHash, done.BodyHash)
	}
	resp := authedDo(t, http.MethodGet, fmt.Sprintf("%s/v1/audit/proof?seq=%d", ts.URL, rec.Seq), "", "", nil)
	proof, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(proof, []byte(`"body_hash": "`+done.BodyHash)) {
		t.Fatalf("proof lacks the body_hash:\n%s", proof)
	}
	for _, secret := range []string{done.SealedKey, "sealed_key", "provenance", `"spec"`, "subjects", string(done.Provenance[:min(len(done.Provenance), 32)])} {
		if bytes.Contains(proof, []byte(secret)) {
			t.Fatalf("proof reveals %q:\n%s", secret, proof)
		}
	}
}
