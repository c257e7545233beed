package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
)

// writeRecords appends job records to the ledger at path, as member
// node (their Time is the ledger's: append order).
func writeRecords(t *testing.T, path, node string, recs ...jobRecord) {
	t.Helper()
	l, err := ledger.Open(ledger.Config{Path: path, Node: node})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, rec := range recs {
		var body []byte
		if rec.Type != ledger.TypeEvicted {
			if body, err = json.Marshal(rec.jobBody); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.AppendBody(rec.Type, rec.Tenant, rec.Job, rec.Detail, body); err != nil {
			t.Fatal(err)
		}
	}
}

// jobRec builds a job record for writeRecords.
func jobRec(typ, id string, body jobBody) jobRecord {
	return jobRecord{Record: ledger.Record{Type: typ, Job: id}, jobBody: body}
}

// readRecords returns every job record of the ledger at path, in file
// order.
func readRecords(t *testing.T, path string) []jobRecord {
	t.Helper()
	var out []jobRecord
	err := ledger.NewTail(path).Next(func(hdr ledger.Record, body []byte) error {
		rec := jobRecord{Record: hdr}
		if len(body) > 0 {
			if err := json.Unmarshal(body, &rec.jobBody); err != nil {
				return err
			}
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplayOrderingInterleaved drives replay through a ledger where
// evicted, provenance-bearing, and torn-tail records interleave: the
// evicted job must stay gone even though its done record carries
// provenance, a terminal record arriving after eviction must not
// resurrect the job (its submitted record was consumed by the
// eviction), the last terminal record must win when duplicates appear,
// stream records are passed over, and the torn tail is dropped.
func TestReplayOrderingInterleaved(t *testing.T) {
	spec := &JobSpec{Domain: core.Climate}
	prov := json.RawMessage(`{"artifacts":{},"activities":[]}`)
	path := filepath.Join(t.TempDir(), "audit.log")
	writeRecords(t, path, "",
		jobRec(ledger.TypeSubmitted, "job-000001", jobBody{Spec: spec}),
		jobRec(ledger.TypeSubmitted, "job-000002", jobBody{Spec: spec}),
		jobRec(ledger.TypeStream, "job-000001", jobBody{}),
		jobRec(ledger.TypeDone, "job-000001", jobBody{Provenance: prov}),
		jobRec(ledger.TypeEvicted, "job-000001", jobBody{}),
		// Terminal for an evicted job (out-of-order writer): no
		// submitted record survives, so it must not resurrect.
		jobRec(ledger.TypeDone, "job-000001", jobBody{Provenance: prov}),
		// Duplicate terminals: the later record wins.
		jobRec(ledger.TypeFailed, "job-000002", jobBody{Error: "first"}),
		jobRec(ledger.TypeDone, "job-000002", jobBody{Provenance: prov}),
		jobRec(ledger.TypeSubmitted, "job-000007", jobBody{Spec: spec}),
	)
	// Trailing torn fragment (crash mid-append at EOF).
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":10,"time":"2026-07-01T00:00:00Z","type":"submitted","job":"job-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fold := newJobFold("")
	l, err := ledger.Open(ledger.Config{Path: path, Replay: fold.add})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if fold.maxSeq != 7 {
		t.Fatalf("maxSeq = %d, want 7", fold.maxSeq)
	}
	states := fold.states("")
	if len(states) != 2 {
		ids := make([]string, len(states))
		for i, st := range states {
			ids[i] = st.sub.Job
		}
		t.Fatalf("replay kept %v, want [job-000002 job-000007]", ids)
	}
	if states[0].sub.Job != "job-000002" || states[1].sub.Job != "job-000007" {
		t.Fatalf("replay order %s, %s", states[0].sub.Job, states[1].sub.Job)
	}
	if states[0].term == nil || states[0].term.Type != ledger.TypeDone {
		t.Fatalf("job-000002 terminal = %+v, want the later done record", states[0].term)
	}
	if len(states[0].term.Provenance) == 0 {
		t.Fatal("provenance lost through replay")
	}
	if states[1].term != nil {
		t.Fatal("job-000007 has no terminal record yet")
	}
	if !fold.evicted["job-000001"] || len(fold.evicted) != 1 {
		t.Fatalf("evicted %v, want job-000001", fold.evicted)
	}
}

// TestReplayMergesPerNodeLogs: records for one job spread across two
// members' ledgers on the shared dir (submitted by the owner, failed
// later by an adopter) must fold into one coherent history, whichever
// ledger is read first.
func TestReplayMergesPerNodeLogs(t *testing.T) {
	spec := &JobSpec{Domain: core.Climate}
	dir := t.TempDir()
	n1, n2 := filepath.Join(dir, "audit-n1.log"), filepath.Join(dir, "audit-n2.log")
	writeRecords(t, n2, "n2",
		jobRec(ledger.TypeSubmitted, "job-n2-000001", jobBody{Spec: spec}),
		jobRec(ledger.TypeSubmitted, "job-n2-000002", jobBody{Spec: spec}),
	)
	writeRecords(t, n1, "n1",
		jobRec(ledger.TypeFailed, "job-n2-000001", jobBody{Error: "adopted after n2 died"}),
	)
	for _, order := range [][]string{{n1, n2}, {n2, n1}} {
		folds := map[string]*jobFold{"n1": newJobFold("n1"), "n2": newJobFold("n2")}
		for _, fold := range folds {
			for _, p := range order {
				if err := ledger.NewTail(p).Next(fold.add); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := folds["n2"].maxSeq; got != 2 {
			t.Fatalf("n2 maxSeq = %d, want 2", got)
		}
		if got := folds["n1"].maxSeq; got != 0 {
			t.Fatalf("n1 maxSeq = %d; other members' sequences must not leak", got)
		}
		states := folds["n2"].states("")
		if len(states) != 2 {
			t.Fatalf("replay kept %d jobs, want 2", len(states))
		}
		if states[0].term == nil || states[0].term.Error != "adopted after n2 died" || states[0].sub.Node != "n2" {
			t.Fatalf("cross-ledger history not folded: %+v", states[0])
		}
	}
}

// TestProvenanceSurvivesRestart is the satellite acceptance: before
// this PR a replayed job had no tracker and /provenance answered 409;
// now the DAG rides the terminal log record and reimports byte-stable.
func TestProvenanceSurvivesRestart(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	id, err := SubmitAndWait(ts1.URL, JobSpec{Domain: core.Climate, Name: "p", Seed: 5}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	before := fetchProvenance(t, ts1.URL, id)
	ts1.Close()
	s1.Close()

	s2, err := New(Options{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(s2.Close)
	after := fetchProvenance(t, ts2.URL, id)
	if string(before) != string(after) {
		t.Fatalf("provenance changed across restart (%d vs %d bytes)", len(before), len(after))
	}
}

func fetchProvenance(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/provenance")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("provenance status %d: %s", resp.StatusCode, b)
	}
	return b
}

// TestRequeueInterruptedJobs: with Options.Requeue a job caught
// queued/running by the crash is resubmitted with its deterministic
// seed instead of being marked failed, and completes on the restarted
// server.
func TestRequeueInterruptedJobs(t *testing.T) {
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
	if _, code := postJob(t, ts1.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16, Seed: 2}); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	queued, code := postJob(t, ts1.URL, JobSpec{Domain: core.Climate, Name: "rq", Seed: 9})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	go func() { <-s1.stop; close(release) }()
	ts1.Close()
	s1.Close()

	s2, err := New(Options{Workers: 2, DataDir: dataDir, Requeue: true})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(s2.Close)

	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		if code := getJSON(t, ts2.URL+"/v1/jobs/"+queued.ID, &st); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if st.State == JobDone {
			if !st.Servable {
				t.Fatal("requeued job completed but is not servable")
			}
			break
		}
		if st.State == JobFailed {
			t.Fatalf("requeued job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("requeued job still %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The rerun is the same deterministic pipeline: its stream matches a
	// fresh run of the same spec on the same server.
	reference, err := SubmitAndWait(ts2.URL, JobSpec{Domain: core.Climate, Name: "rq-ref", Seed: 9}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := streamAll(t, ts2.URL+"/v1/jobs/"+queued.ID+"/batches?batch_size=4")
	want := streamAll(t, ts2.URL+"/v1/jobs/"+reference+"/batches?batch_size=4")
	if string(got) != string(want) {
		t.Fatalf("requeued job stream differs from deterministic rerun (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRequeueOverflowFails: more interrupted jobs than queue capacity
// cannot all requeue; the overflow must come back failed, not lost.
func TestRequeueOverflowFails(t *testing.T) {
	dataDir := t.TempDir()
	// Craft a ledger with three interrupted jobs, then restart with a
	// 1-deep queue: one requeues, two must fail visibly.
	var recs []jobRecord
	for i := 1; i <= 3; i++ {
		recs = append(recs, jobRec(ledger.TypeSubmitted, fmt.Sprintf("job-%06d", i),
			jobBody{Spec: &JobSpec{Domain: core.Climate, Seed: 3}}))
	}
	writeRecords(t, filepath.Join(dataDir, "audit.log"), "", recs...)
	s, err := New(Options{Workers: 1, QueueDepth: 1, DataDir: dataDir, Requeue: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	deadline := time.Now().Add(60 * time.Second)
	for {
		var jobs []JobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs", &jobs); code != http.StatusOK {
			t.Fatalf("list status %d", code)
		}
		if len(jobs) != 3 {
			t.Fatalf("replayed %d jobs, want 3", len(jobs))
		}
		done, failed, pending := 0, 0, 0
		for _, st := range jobs {
			switch st.State {
			case JobDone:
				done++
			case JobFailed:
				failed++
			default:
				pending++
			}
		}
		if pending == 0 {
			if done != 1 || failed != 2 {
				t.Fatalf("done=%d failed=%d, want 1 requeued success and 2 overflow failures", done, failed)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs still pending: done=%d failed=%d pending=%d", done, failed, pending)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMasterKeyCreationRace: a fleet cold-starting on one shared dir
// creates the sealing key concurrently; every member must end up with
// the same complete key, never a torn read (this was a real startup
// crash: "master.key is not a hex-encoded 32-byte key").
func TestMasterKeyCreationRace(t *testing.T) {
	dir := t.TempDir()
	const racers = 8
	keys := make([][]byte, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys[i], errs[i] = loadOrCreateMasterKey(dir)
		}(i)
	}
	wg.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if len(keys[i]) != 32 {
			t.Fatalf("racer %d got %d-byte key", i, len(keys[i]))
		}
		if string(keys[i]) != string(keys[0]) {
			t.Fatalf("racer %d got a different key than racer 0", i)
		}
	}
	// No staged temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, ".tmp-master-*"))
	if len(matches) != 0 {
		t.Fatalf("leftover temp key files: %v", matches)
	}
}
