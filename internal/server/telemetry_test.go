package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/telemetry"
	"repro/pkg/client"
)

// scrape fetches /metrics and strict-parses it, failing the test on any
// exposition-format violation.
func scrape(t *testing.T, baseURL string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series, err := telemetry.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("strict parse of /metrics failed: %v\n%s", err, body)
	}
	byKey := make(map[string]float64, len(series))
	for _, s := range series {
		byKey[s.Name+"{"+s.LabelString()+"}"] = s.Value
	}
	return byKey, string(body)
}

// TestMetricsStrictExposition validates the entire /metrics document
// with the strict parser after real traffic, and checks the serving
// histograms the acceptance criteria name.
func TestMetricsStrictExposition(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, ServeCacheBytes: 1 << 20})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := StreamBatches(ts.URL + "/v1/jobs/" + id + "/batches?batch_size=4&max_batches=2"); err != nil {
		t.Fatal(err)
	}
	byKey, text := scrape(t, ts.URL)

	for key, min := range map[string]float64{
		`draid_jobs_done_total{}`: 1,
		`draid_first_batch_seconds_count{domain="climate",wire="ndjson"}`:  1,
		`draid_batch_encode_seconds_count{domain="climate",wire="ndjson"}`: 1,
		`draid_frame_store_hits_total{}`:                                   1,
		`draid_stage_calls_total{stage="serve:batches"}`:                   1,
		`draid_stage_calls_total{stage="job:climate"}`:                     1,
	} {
		if v := byKey[key]; v < min {
			t.Errorf("%s = %v, want >= %v\n%s", key, v, min, text)
		}
	}
	// The request histogram is labeled by mux route pattern, never by
	// raw path (unbounded cardinality).
	var requests float64
	for key, v := range byKey {
		if strings.HasPrefix(key, "draid_request_seconds_count{") {
			if strings.Contains(key, id) {
				t.Errorf("request histogram labeled with a raw job ID: %s", key)
			}
			requests += v
		}
	}
	if requests == 0 {
		t.Errorf("no draid_request_seconds samples after real traffic\n%s", text)
	}
}

// TestMetricsScrapeDoesNotBlock pins the satellite fix: the old
// handleMetrics scanned the whole job table holding s.mu, so a slow
// scrape stalled every submission (and a stuck submission stalled the
// scrape). The registry path shares no lock with the job table — a
// scrape must complete while s.mu is held. The same goes for the audit
// ledger's mutex, which every appender takes: the ledger collectors
// read atomics, never that lock.
func TestMetricsScrapeDoesNotBlock(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, DataDir: t.TempDir()})
	s.mu.Lock()
	defer s.mu.Unlock()
	defer lockLedger(t, s.ledger)()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/metrics")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/metrics blocked on the server or ledger mutex")
	}
}

// lockLedger takes the ledger's private mutex, standing in for a
// queue of appenders, and returns its unlock. Reaching into another
// package's field is the price of pinning this from the scrape's side.
func lockLedger(t *testing.T, l *ledger.Ledger) (unlock func()) {
	t.Helper()
	f := reflect.ValueOf(l).Elem().FieldByName("mu")
	if !f.IsValid() || f.Type() != reflect.TypeOf(sync.Mutex{}) {
		t.Fatal("ledger.Ledger no longer guards its state with a sync.Mutex named mu")
	}
	mu := (*sync.Mutex)(unsafe.Pointer(f.UnsafeAddr()))
	mu.Lock()
	return mu.Unlock
}

// TestSubmissionsFlowDuringScrapeLoad hammers /metrics from several
// goroutines while submissions proceed; every submission must complete
// promptly. With the old mutex-holding scrape this serialized.
func TestSubmissionsFlowDuringScrapeLoad(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 256})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		start := time.Now()
		st, code := postJob(t, ts.URL, JobSpec{Domain: core.Climate, Name: fmt.Sprintf("s%d", i), Seed: int64(i + 1)})
		if code != http.StatusAccepted {
			close(stop)
			t.Fatalf("submission %d status %d (%+v)", i, code, st)
		}
		if d := time.Since(start); d > 2*time.Second {
			close(stop)
			t.Fatalf("submission %d took %v under scrape load", i, d)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkMetricsScrape prices one /metrics render with a populated
// job table — the cost an operator's scraper imposes per interval.
func BenchmarkMetricsScrape(b *testing.B) {
	s, err := New(Options{Workers: 1, QueueDepth: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Populate label children so the render is representative.
	for i := 0; i < 64; i++ {
		s.metrics.observeStage(fmt.Sprintf("stage-%d", i), 0.001, 1, 100)
		s.metrics.requestSeconds.With("GET /v1/jobs/{id}", "200").Observe(0.001)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		s.metrics.reg.WritePrometheus(&buf)
	}
}

// TestJobEventsTimeline checks the full lifecycle timeline — and that a
// restarted server replays it from the ledger, pre-restart transitions
// included.
func TestJobEventsTimeline(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, DataDir: dir})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := client.New(ts.URL, client.WithPollInterval(5*time.Millisecond), client.WithTrace("timeline-test-trace"))
	st, err := c.SubmitJob(ctx, JobSpec{Domain: core.Climate, Name: "ev", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace != "timeline-test-trace" {
		t.Fatalf("submission trace %q, want the pinned one", st.Trace)
	}
	if _, err := c.WaitDone(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	assertLifecycle := func(events []client.JobEvent, where string) {
		t.Helper()
		want := []string{client.EventSubmitted, client.EventQueued, client.EventRunning, client.EventDone}
		var got []string
		for _, ev := range events {
			got = append(got, ev.Event)
			if ev.Trace != "timeline-test-trace" {
				t.Errorf("%s: event %s has trace %q, want the submission trace", where, ev.Event, ev.Trace)
			}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: events %v, want %v", where, got, want)
		}
		for i := 1; i < len(events); i++ {
			if events[i].Time.Before(events[i-1].Time) {
				t.Fatalf("%s: events out of order: %+v", where, events)
			}
		}
	}
	events, err := c.Events(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertLifecycle(events, "live")

	// Restart: the timeline must survive via log replay.
	ts.Close()
	s.Close()
	_, ts2 := newTestServer(t, Options{Workers: 1, DataDir: dir})
	c2 := client.New(ts2.URL, client.WithPollInterval(5*time.Millisecond))
	events2, err := c2.Events(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertLifecycle(events2, "replayed")
}

// lockedBuf is a goroutine-safe log sink for fleet trace assertions.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTracePropagatesAcrossFleet is the satellite trace test: one trace
// ID observed at the proxying node, the owning node, and in the SDK's
// response surface — for both the transparent-proxy and the
// 307-redirect paths.
func TestTracePropagatesAcrossFleet(t *testing.T) {
	logs := make([]*lockedBuf, 3)
	fleet := startFleet(t, t.TempDir(), 3, func(i int, o *Options) {
		logs[i] = &lockedBuf{}
		o.Logger = slog.New(slog.NewTextHandler(logs[i], &slog.HandlerOptions{Level: slog.LevelDebug}))
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Submit through node 0 until a job lands on a different owner, so
	// the submission takes the proxy hop.
	const trace = "fleet-trace-e2e.1"
	c := client.New(fleet[0].ts.URL, client.WithPollInterval(5*time.Millisecond), client.WithTrace(trace))
	var jobID string
	var owner int
	for seed := 1; seed <= 20; seed++ {
		st, err := c.SubmitJob(ctx, JobSpec{Domain: core.Climate, Name: fmt.Sprintf("tr%d", seed), Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if st.Trace != trace {
			t.Fatalf("SDK surfaced trace %q, want %q", st.Trace, trace)
		}
		if o := ownerOf(t, fleet, 0, st.ID); o != 0 {
			jobID, owner = st.ID, o
			break
		}
	}
	if jobID == "" {
		t.Fatal("20 submissions all hashed to the entry node; cannot exercise the proxy hop")
	}
	if _, err := c.WaitDone(ctx, jobID); err != nil {
		t.Fatal(err)
	}

	// Proxy path: stream batches through the non-owner. The response
	// trace header and both nodes' logs must carry the client's ID.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fleet[0].ts.URL+"/v1/jobs/"+jobID+"/batches?batch_size=8&max_batches=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(telemetry.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Values(telemetry.TraceHeader); len(got) != 1 || got[0] != trace {
		t.Fatalf("proxied stream trace header %v, want exactly one %q", got, trace)
	}
	for _, idx := range []int{0, owner} {
		if !strings.Contains(logs[idx].String(), trace) {
			t.Fatalf("node %s log does not mention trace %q:\n%s", fleet[idx].id, trace, logs[idx].String())
		}
	}

	// Redirect path: a fresh trace via X-Draid-Route: redirect. Go's
	// client re-sends custom headers on the 307, so the owner must log
	// and echo the same ID.
	const rtrace = "fleet-trace-redirect.1"
	req2, err := http.NewRequestWithContext(ctx, http.MethodGet, fleet[0].ts.URL+"/v1/jobs/"+jobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set(telemetry.TraceHeader, rtrace)
	req2.Header.Set("X-Draid-Route", "redirect")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("redirected status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get(telemetry.TraceHeader); got != rtrace {
		t.Fatalf("redirected trace header %q, want %q", got, rtrace)
	}
	if !strings.Contains(logs[owner].String(), rtrace) {
		t.Fatalf("owner %s log does not mention redirect trace %q", fleet[owner].id, rtrace)
	}
}

// TestDebugEndpoints gates pprof and the runtime gauges on
// Options.Debug.
func TestDebugEndpoints(t *testing.T) {
	_, plain := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without Debug")
	}
	byKey, _ := scrape(t, plain.URL)
	if _, ok := byKey["draid_goroutines{}"]; ok {
		t.Fatal("runtime gauges exported without Debug")
	}

	_, dbg := newTestServer(t, Options{Workers: 1, Debug: true})
	resp, err = http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof under Debug: status %d", resp.StatusCode)
	}
	byKey, text := scrape(t, dbg.URL)
	if v := byKey["draid_goroutines{}"]; v <= 0 {
		t.Fatalf("draid_goroutines = %v under Debug\n%s", v, text)
	}
	if _, ok := byKey["draid_heap_alloc_bytes{}"]; !ok {
		t.Fatalf("draid_heap_alloc_bytes missing under Debug\n%s", text)
	}
}

// TestMetricsFamiliesDocumented is the hygiene gate: every draid_*
// family the server can emit — debug and cluster modes included — must
// be named in the README's Observability section. An undocumented
// series fails CI here.
func TestMetricsFamiliesDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	collect := func(baseURL string) {
		resp, err := http.Get(baseURL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 3 && fields[0] == "#" && fields[1] == "TYPE" {
				families[fields[2]] = true
			}
		}
	}
	_, dbg := newTestServer(t, Options{Workers: 1, Debug: true})
	collect(dbg.URL)
	fleet := startFleet(t, t.TempDir(), 2, nil)
	collect(fleet[0].ts.URL)

	if len(families) < 20 {
		t.Fatalf("only %d families collected — scrape broken?", len(families))
	}
	for name := range families {
		if !bytes.Contains(readme, []byte(name)) {
			t.Errorf("metric family %s is emitted but not documented in README.md", name)
		}
	}
}
