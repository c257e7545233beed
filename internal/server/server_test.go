package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/provenance"
	"repro/pkg/client"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJob(t *testing.T, baseURL string, spec JobSpec) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return st, resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
}

func TestTemplatesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	var tpls []TemplateInfo
	if code := getJSON(t, ts.URL+"/v1/templates", &tpls); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(tpls) != 4 {
		t.Fatalf("templates=%d, want 4", len(tpls))
	}
	seen := map[string]bool{}
	for _, tp := range tpls {
		if tp.Description == "" {
			t.Fatalf("template %s lacks description", tp.Domain)
		}
		// Discovery contract: every template names its wire kind and is
		// streamable, so clients choose decoders without probing 409s.
		if tp.Kind == "" || !tp.Servable {
			t.Fatalf("template %s lacks discovery fields: %+v", tp.Domain, tp)
		}
		seen[tp.Domain] = true
	}
	for _, d := range core.Domains() {
		if !seen[string(d)] {
			t.Fatalf("template for %s missing", d)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if _, code := postJob(t, ts.URL, JobSpec{Domain: "astro"}); code != http.StatusBadRequest {
		t.Fatalf("unknown domain: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", resp.StatusCode)
	}
	// Oversized scale knobs must be rejected at submission, not allowed
	// to allocate the worker to death.
	for _, spec := range []JobSpec{
		{Domain: core.Climate, Months: 1e6},
		{Domain: core.Climate, Lat: 100000, Lon: 100000},
		{Domain: core.Fusion, Shots: 1e6},
		{Domain: core.BioHealth, Subjects: 1e6},
		{Domain: core.Climate, Months: -3},
	} {
		if _, code := postJob(t, ts.URL, spec); code != http.StatusBadRequest {
			t.Fatalf("spec %+v: status %d, want 400", spec, code)
		}
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Fatalf("status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999999/batches", nil); code != http.StatusNotFound {
		t.Fatalf("batches status %d", code)
	}
}

// TestEndToEndClimateServe is the acceptance path: submit a
// registry-template job over HTTP, poll to completion, stream >=2
// batches, and verify decoded sample shapes.
func TestEndToEndClimateServe(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, ServeCacheBytes: 32 << 20})

	spec := JobSpec{Domain: core.Climate, Name: "e2e", Seed: 7, Months: 24, Lat: 16, Lon: 32}
	id, err := SubmitAndWait(ts.URL, spec, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.State != JobDone || !st.Servable || st.Shards == 0 {
		t.Fatalf("job status %+v", st)
	}
	// The trajectory walks the full pipeline and ends fully AI-ready.
	if len(st.Trajectory) == 0 {
		t.Fatal("no trajectory")
	}
	last := st.Trajectory[len(st.Trajectory)-1]
	if last.Level != int(core.AIReady) {
		t.Fatalf("final level %d (%s)", last.Level, last.LevelName)
	}

	// Stream batches; climate features are TargetLat*TargetLon floats
	// per variable (= Lat/2 * Lon/2 here), labels are seasons 0..3.
	wantFeatures := (spec.Lat / 2) * (spec.Lon / 2)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/batches?batch_size=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batches status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	batches, samples := 0, 0
	for sc.Scan() {
		var wire client.BatchWire
		if err := json.Unmarshal(sc.Bytes(), &wire); err != nil {
			t.Fatalf("line %d: %v", batches, err)
		}
		if len(wire.Features) == 0 || len(wire.Features) != len(wire.Labels) {
			t.Fatalf("batch %d: %d rows, %d labels", batches, len(wire.Features), len(wire.Labels))
		}
		for i, f := range wire.Features {
			if len(f) != wantFeatures {
				t.Fatalf("batch %d row %d: %d features, want %d", batches, i, len(f), wantFeatures)
			}
			if wire.Labels[i] < 0 || wire.Labels[i] > 3 {
				t.Fatalf("batch %d row %d: season label %d", batches, i, wire.Labels[i])
			}
		}
		batches++
		samples += len(wire.Labels)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if batches < 2 {
		t.Fatalf("streamed %d batches, want >= 2", batches)
	}
	if int64(samples) > st.Records {
		t.Fatalf("served %d samples from %d records", samples, st.Records)
	}
	if got := int64(s.metrics.bytesServed.Value()); got == 0 {
		t.Fatal("bytes served not accounted")
	}
}

// TestBioServeDecryptsSealedShards checks the secure path: the sink
// only holds AES-GCM sealed shards, yet the serving tier streams
// plaintext sample batches via the per-job key.
func TestBioServeDecryptsSealedShards(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, ServeCacheBytes: 32 << 20})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.BioHealth, Subjects: 16, SeqLen: 128}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	batches, samples, n, err := StreamBatches(ts.URL + "/v1/jobs/" + id + "/batches?batch_size=2")
	if err != nil {
		t.Fatal(err)
	}
	if batches == 0 || samples == 0 || n == 0 {
		t.Fatalf("batches=%d samples=%d bytes=%d", batches, samples, n)
	}
}

// TestFusionStreamsWindows: fusion shards hold tfrecord Examples; the
// fusion_windows codec streams them as windowed signal batches with
// disruption labels and horizons instead of the pre-plugin 409.
func TestFusionStreamsWindows(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, ServeCacheBytes: 32 << 20})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Fusion, Shots: 6}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !st.Servable || st.Kind != "fusion_windows" || st.Shards == 0 {
		t.Fatalf("fusion job not discoverable as streamable: %+v", st)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/batches?batch_size=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batches status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	windows, dim := 0, -1
	for sc.Scan() {
		var wire client.BatchWire
		if err := json.Unmarshal(sc.Bytes(), &wire); err != nil {
			t.Fatal(err)
		}
		if err := wire.Validate(); err != nil {
			t.Fatal(err)
		}
		if wire.Kind != "fusion_windows" {
			t.Fatalf("kind %q", wire.Kind)
		}
		if len(wire.Shots) != len(wire.Labels) || len(wire.Horizons) != len(wire.Labels) ||
			len(wire.Starts) != len(wire.Labels) {
			t.Fatalf("ragged fusion batch: %+v", wire)
		}
		for i, sig := range wire.Signals {
			if dim == -1 {
				dim = len(sig)
			}
			if len(sig) != dim || dim == 0 {
				t.Fatalf("signal row %d has %d floats, want %d", i, len(sig), dim)
			}
			if l := wire.Labels[i]; l != 0 && l != 1 {
				t.Fatalf("disruption label %d", l)
			}
			if wire.Horizons[i] <= 0 {
				t.Fatalf("horizon %v not positive", wire.Horizons[i])
			}
			windows++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The shard set holds the train split, so the stream covers at most
	// the job's total window count.
	if windows == 0 || int64(windows) > st.Records {
		t.Fatalf("streamed %d windows for %d records", windows, st.Records)
	}
}

// TestMaterialsStreamsGraphs: materials shards hold one BP process
// group per graph; the materials_graphs codec streams them as ragged
// node/edge tensors.
func TestMaterialsStreamsGraphs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, ServeCacheBytes: 32 << 20})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Materials, Structures: 12}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !st.Servable || st.Kind != "materials_graphs" {
		t.Fatalf("materials job not discoverable as streamable: %+v", st)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/batches?batch_size=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batches status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	graphs := 0
	for sc.Scan() {
		var wire client.BatchWire
		if err := json.Unmarshal(sc.Bytes(), &wire); err != nil {
			t.Fatal(err)
		}
		if err := wire.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, g := range wire.Graphs {
			if g.Nodes == 0 || g.FeatureDim == 0 || len(g.NodeFeatures) != g.Nodes*g.FeatureDim {
				t.Fatalf("graph tensor shape: %+v", g)
			}
			if len(g.Edges) != 2*len(g.EdgeLengths) {
				t.Fatalf("edge list %d vs %d lengths", len(g.Edges), len(g.EdgeLengths))
			}
			graphs++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if graphs == 0 || int64(graphs) != st.Records {
		t.Fatalf("streamed %d graphs for %d records", graphs, st.Records)
	}
}

func TestBatchesBeforeCompletionRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st, code := postJob(t, ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	// Immediately asking for batches races the worker, but whichever
	// state the job is in, a non-done job must yield 409.
	code = getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/batches", nil)
	if code != http.StatusConflict && code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
}

func TestProvenanceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/provenance")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var buf strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		buf.WriteString(sc.Text())
		buf.WriteByte('\n')
	}
	tracker, err := provenance.Import([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := tracker.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(tracker.Activities()) == 0 {
		t.Fatal("no activities in exported lineage")
	}
}

// TestConcurrentReadersShareCache streams the same job from many
// readers at once; the line cache must coalesce the shard loads.
func TestConcurrentReadersShareCache(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, ServeCacheBytes: 64 << 20})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Months: 24, Lat: 16, Lon: 32}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=8"
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := StreamBatches(url); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cs := s.cache.Stats(wireLines)
	if cs.Hits == 0 {
		t.Fatalf("no cache hits across 8 readers: %+v", cs)
	}
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// Every shard decodes at most once (singleflight): misses <= shards.
	if cs.Misses > int64(st.Shards) {
		t.Fatalf("%d misses for %d shards", cs.Misses, st.Shards)
	}
}

func TestShardCacheEviction(t *testing.T) {
	c := NewShardCache(100)
	for i := 0; i < 5; i++ {
		if _, err := c.Get(lineKey(fmt.Sprintf("k%d", i)), nil, sized(&loader.Sample{Features: []float32{1}, Label: 1}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	cs := c.Stats(wireLines)
	if cs.Bytes > 100 {
		t.Fatalf("cache over budget: %+v", cs)
	}
	if cs.Evictions == 0 {
		t.Fatalf("no evictions: %+v", cs)
	}
	// DropPrefix removals are invalidations, not evictions: the eviction
	// counter must not move, and every removed entry must be counted.
	evictionsBefore, entriesBefore := cs.Evictions, cs.Entries
	if entriesBefore == 0 {
		t.Fatalf("no entries resident: %+v", cs)
	}
	c.DropPrefix("k")
	cs = c.Stats(wireLines)
	if cs.Entries != 0 || cs.Bytes != 0 {
		t.Fatalf("DropPrefix left entries: %+v", cs)
	}
	if cs.Evictions != evictionsBefore {
		t.Fatalf("DropPrefix counted as evictions: %+v", cs)
	}
	if cs.Invalidations != int64(entriesBefore) {
		t.Fatalf("invalidations %d, want %d: %+v", cs.Invalidations, entriesBefore, cs)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, ServeCacheBytes: 1 << 20})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := StreamBatches(ts.URL + "/v1/jobs/" + id + "/batches?batch_size=4&max_batches=2"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text())
		body.WriteByte('\n')
	}
	text := body.String()
	for _, want := range []string{
		"draid_jobs_total 1",
		"draid_jobs_done_total 1",
		"draid_bytes_served_total",
		"draid_batches_served_total 2",
		"draid_shard_cache_misses_total",
		`draid_stage_seconds_total{stage="job:climate"}`,
		`draid_stage_seconds_total{stage="regrid"}`,
		`draid_stage_calls_total{stage="serve:batches"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestGracefulShutdownRejectsNewJobs(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	if _, code := postJob(t, ts.URL, JobSpec{Domain: core.Climate}); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	// Close is idempotent.
	s.Close()
}

// TestSubmitBodyCapped: a submission body is read under a fixed cap.
// One byte over it is a 413 and no job; a body at the cap is read and
// judged on its content.
func TestSubmitBodyCapped(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	post := func(domain string, size int) int {
		t.Helper()
		head, tail := `{"domain":"`+domain+`","name":"`, `"}`
		body := head + strings.Repeat("x", size-len(head)-len(tail)) + tail
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("climate", maxSpecBytes+1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the cap: status %d, want 413", code)
	}
	if code := post("no-such-domain", maxSpecBytes); code != http.StatusBadRequest {
		t.Fatalf("body at the cap naming an unknown domain: status %d, want 400", code)
	}
	var jobs []JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs", &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("job list after oversized submissions: %d %+v; want empty", code, jobs)
	}
}

func TestQueueBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	// A job large enough to hold the single worker for the duration of
	// the fast submissions below.
	busy := JobSpec{Domain: core.Climate, Months: 120, Lat: 48, Lon: 96}
	codes := make(map[int]int)
	for i := 0; i < 6; i++ {
		_, code := postJob(t, ts.URL, busy)
		codes[code]++
	}
	if codes[http.StatusAccepted] == 0 {
		t.Fatalf("no submissions accepted: %v", codes)
	}
	if codes[http.StatusTooManyRequests] == 0 {
		t.Fatalf("queue never pushed back: %v", codes)
	}
}

func TestJobListOrder(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	ids := make([]string, 3)
	for i := range ids {
		st, code := postJob(t, ts.URL, JobSpec{Domain: core.Materials, Structures: 6})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids[i] = st.ID
	}
	var list []JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(list) != 3 {
		t.Fatalf("listed %d jobs", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Fatalf("list[%d]=%s, want %s (submission order)", i, st.ID, ids[i])
		}
	}
}

// TestAllDomainsRunToCompletion submits one job per registered domain
// concurrently — the parallel-request pattern draid serves in practice.
func TestAllDomainsRunToCompletion(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, d := range core.Domains() {
		wg.Add(1)
		go func(d core.Domain) {
			defer wg.Done()
			if _, err := SubmitAndWait(ts.URL, JobSpec{Domain: d}, 120*time.Second); err != nil {
				errs <- fmt.Errorf("%s: %w", d, err)
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
