// Cross-domain serving tests: the plugin architecture's acceptance
// criteria — every registered domain streams batches, resumes cursors
// across a server restart, reports its wire kind, and the serving tier
// accounts failures and pacing.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/wire"
	"repro/pkg/client"
)

// metricValue scrapes one counter from /metrics.
func metricValue(t *testing.T, baseURL, name string) int64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// streamWire decodes a batch stream into comparable lines in either
// wire format: NDJSON is read raw off the HTTP body, frames go through
// the SDK decoder — both land in the kind-agnostic streamLine form so
// cross-format equality is a map comparison.
func streamWire(t *testing.T, url, cursor, wireName string) []streamLine {
	t.Helper()
	if wireName == wire.WireNDJSON {
		return streamFrom(t, url, cursor)
	}
	st, err := client.OpenStreamURL(context.Background(), nil, url, cursor, wireName, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var out []streamLine
	for {
		b, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		var payload map[string]any
		if err := json.Unmarshal(raw, &payload); err != nil {
			t.Fatal(err)
		}
		delete(payload, "batch")
		out = append(out, streamLine{cursor: b.Cursor, kind: b.Kind, payload: payload})
	}
}

// TestAllDomainsStreamAndResumeAcrossRestart is the acceptance path of
// the plugin refactor and the wire negotiation: POST /v1/jobs then
// GET /v1/jobs/{id}/batches succeeds for all four domains in both wire
// formats — same records, same cursors — and a cursor taken mid-stream
// resumes exactly, in either format, on a freshly restarted server
// over the same data dir.
func TestAllDomainsStreamAndResumeAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := New(Options{Workers: 4, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	specs := map[core.Domain]JobSpec{
		core.Climate:   {Domain: core.Climate, Seed: 3, Months: 24, Lat: 16, Lon: 32},
		core.Fusion:    {Domain: core.Fusion, Seed: 3, Shots: 8},
		core.BioHealth: {Domain: core.BioHealth, Seed: 3, Subjects: 16},
		core.Materials: {Domain: core.Materials, Seed: 3, Structures: 16},
	}
	type jobRef struct {
		id       string
		kind     string
		ref      []streamLine
		cursorAt int
	}
	jobs := map[core.Domain]*jobRef{}
	for d, spec := range specs {
		id, err := SubmitAndWait(ts1.URL, spec, 120*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		plug, err := domain.Lookup(d)
		if err != nil {
			t.Fatal(err)
		}
		url := ts1.URL + "/v1/jobs/" + id + "/batches?batch_size=2"
		ref := streamFrom(t, url, "")
		if len(ref) < 3 {
			t.Fatalf("%s: only %d batches", d, len(ref))
		}
		for i, line := range ref {
			if line.kind != plug.Codec.Kind() {
				t.Fatalf("%s line %d kind %q, want %q", d, i, line.kind, plug.Codec.Kind())
			}
		}
		// The binary frame stream must carry the same records with the
		// same cursors as the NDJSON reference.
		framed := streamWire(t, url, "", wire.WireFrame)
		assertSuffix(t, fmt.Sprintf("%s frame/ndjson equivalence", d), framed, ref)
		jobs[d] = &jobRef{id: id, kind: plug.Codec.Kind(), ref: ref, cursorAt: len(ref) / 2}
	}

	// Kill the server; restart over the same data dir.
	ts1.Close()
	s1.Close()
	s2, err := New(Options{Workers: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(s2.Close)

	for d, j := range jobs {
		var st JobStatus
		if code := getJSON(t, ts2.URL+"/v1/jobs/"+j.id, &st); code != http.StatusOK {
			t.Fatalf("%s: restart status %d", d, code)
		}
		if st.State != JobDone || !st.Servable || st.Kind != j.kind {
			t.Fatalf("%s: restart status %+v", d, st)
		}
		// Resume from a mid-stream cursor taken before the restart: the
		// suffix must reproduce the original stream exactly — in both
		// wire formats.
		url := ts2.URL + "/v1/jobs/" + j.id + "/batches?batch_size=2"
		for _, wireName := range wire.Wires() {
			got := streamWire(t, url, j.ref[j.cursorAt].cursor, wireName)
			assertSuffix(t, fmt.Sprintf("%s %s resume across restart", d, wireName), got, j.ref[j.cursorAt+1:])
		}
	}
}

// TestWireNegotiation pins the Accept-header contract: NDJSON is the
// default (wildcard accepts included), an explicit frame Accept flips
// the stream to frames, and both answers are labelled with
// Content-Type and X-Draid-Wire.
func TestWireNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, ServeCacheBytes: 32 << 20})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Seed: 2, Months: 12, Lat: 8, Lon: 16}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=4"
	for _, tc := range []struct {
		accept   string
		wantWire string
		wantCT   string
	}{
		{"", "ndjson", "application/x-ndjson"},
		{"*/*", "ndjson", "application/x-ndjson"},
		{"application/json, text/plain", "ndjson", "application/x-ndjson"},
		{"application/x-draid-frame", "frame", "application/x-draid-frame"},
		{"APPLICATION/X-DRAID-FRAME", "frame", "application/x-draid-frame"},
		{"application/x-draid-frame;q=1.0, application/x-ndjson;q=0.5", "frame", "application/x-draid-frame"},
		{"application/x-ndjson, application/x-draid-frame", "frame", "application/x-draid-frame"},
		// q=0 is an explicit refusal (RFC 9110): never serve frames.
		{"application/x-draid-frame;q=0", "ndjson", "application/x-ndjson"},
		{"application/x-ndjson, application/x-draid-frame;q=0.0", "ndjson", "application/x-ndjson"},
		// A client that prefers NDJSON but tolerates frames keeps NDJSON;
		// the reverse preference gets frames.
		{"application/x-ndjson, application/x-draid-frame;q=0.1", "ndjson", "application/x-ndjson"},
		{"application/x-draid-frame;q=0.5, application/x-ndjson;q=0.4", "frame", "application/x-draid-frame"},
		{"*/*, application/x-draid-frame;q=0.5", "ndjson", "application/x-ndjson"},
		// Repeated media ranges take the max q per RFC 9110, not the last
		// occurrence: a high frame q is not forgotten when a later low one
		// repeats the range, and vice versa.
		{"application/x-draid-frame;q=0.9, application/x-ndjson;q=0.5, application/x-draid-frame;q=0.2", "frame", "application/x-draid-frame"},
		{"application/x-draid-frame;q=0.2, application/x-ndjson;q=0.5, application/x-draid-frame;q=0.9", "frame", "application/x-draid-frame"},
		{"application/x-ndjson;q=0.3, application/x-draid-frame;q=0.5, application/x-ndjson;q=0.9", "ndjson", "application/x-ndjson"},
		{"*/*;q=0.8, application/x-draid-frame;q=0.5, */*;q=0.1", "ndjson", "application/x-ndjson"},
		// A repeated q=0 range regains service if any occurrence allows it.
		{"application/x-draid-frame;q=0, application/x-draid-frame;q=0.9", "frame", "application/x-draid-frame"},
	} {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: status %d", tc.accept, resp.StatusCode)
		}
		if got := resp.Header.Get(wire.HeaderWire); got != tc.wantWire {
			t.Fatalf("Accept %q: X-Draid-Wire %q, want %q", tc.accept, got, tc.wantWire)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.wantCT {
			t.Fatalf("Accept %q: Content-Type %q, want %q", tc.accept, got, tc.wantCT)
		}
		if len(body) == 0 {
			t.Fatalf("Accept %q: empty stream", tc.accept)
		}
		if tc.wantWire == "ndjson" && body[0] != '{' {
			t.Fatalf("Accept %q: NDJSON stream does not start with a JSON object", tc.accept)
		}
	}
}

// TestServeErrorMetric: a mid-stream shard-read failure emits the
// best-effort NDJSON error line and increments draid_serve_errors_total.
func TestServeErrorMetric(t *testing.T) {
	dataDir := t.TempDir()
	// Cold cache so the stream really reads the (sabotaged) store.
	s, err := New(Options{Workers: 1, DataDir: dataDir, ServeCacheBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Seed: 2, Months: 24, Lat: 16, Lon: 32}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK || st.Shards < 2 {
		t.Fatalf("need >=2 shards to fail mid-stream, have %+v (code %d)", st, code)
	}
	// Delete the last shard file and its sidecar so the stream starts
	// fine and dies partway through.
	entries, err := os.ReadDir(filepath.Join(dataDir, "jobs", id))
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, e := range entries {
		// Skip frame sidecars: a stream without one rebuilds it from the
		// shard. The victim is the shard; its sidecar goes with it below.
		if strings.Contains(e.Name(), "MANIFEST") || strings.HasSuffix(e.Name(), domain.SidecarSuffix) {
			continue
		}
		if e.Name() > victim {
			victim = e.Name()
		}
	}
	if victim == "" {
		t.Fatal("no shard file found")
	}
	for _, name := range []string{victim, domain.SidecarName(victim)} {
		if err := os.Remove(filepath.Join(dataDir, "jobs", id, name)); err != nil {
			t.Fatal(err)
		}
	}

	before := metricValue(t, ts.URL, "draid_serve_errors_total")
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/batches?batch_size=4")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<22)
	n := 0
	for {
		m, rerr := resp.Body.Read(body[n:])
		n += m
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), `"error"`) {
		t.Fatalf("stream of sabotaged job carried no error line:\n%s", body[:n])
	}
	if after := metricValue(t, ts.URL, "draid_serve_errors_total"); after != before+1 {
		t.Fatalf("draid_serve_errors_total %d -> %d, want +1", before, after)
	}
}

// assertPaced sizes url's payload with an unpaced stream in the given
// wire format, re-streams it paced at a rate making the nominal
// full-stream time ~1 second, and requires the identical payload, a
// real delay (at least half the nominal time beyond the pacer's
// burst — half, to stay robust under scheduler slop; there is no
// upper bound to check in the other direction), and a throttled-
// counter tick. Returns the KiB/s rate it paced at.
func assertPaced(t *testing.T, s *Server, url, wireName string) int {
	t.Helper()
	_, _, bytes, _, err := streamConsume(url, "", wireName)
	if err != nil {
		t.Fatal(err)
	}
	kbps := int(bytes / 1024)
	if kbps < 1 {
		kbps = 1
	}
	throttledBefore := int64(s.metrics.serveThrottled.Value())
	start := time.Now()
	_, _, paced, _, err := streamConsume(fmt.Sprintf("%s&max_kbps=%d", url, kbps), "", wireName)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if paced != bytes {
		t.Fatalf("paced %s stream served %d bytes, want %d", wireName, paced, bytes)
	}
	// Recompute the pacer's burst clamp to find the paced remainder.
	rate := float64(int64(kbps) << 10)
	burst := rate / 4
	if burst < 4<<10 {
		burst = 4 << 10
	}
	if burst > 256<<10 {
		burst = 256 << 10
	}
	rem := float64(bytes) - burst
	if rem <= 0 {
		t.Fatalf("%s stream too small (%d bytes) to exercise pacing beyond the %d-byte burst", wireName, bytes, int64(burst))
	}
	if minTime := time.Duration(rem / rate / 2 * float64(time.Second)); elapsed < minTime {
		t.Fatalf("paced %s stream of %d bytes at %d KiB/s finished in %s (< %s)", wireName, bytes, kbps, elapsed, minTime)
	}
	if int64(s.metrics.serveThrottled.Value()) == throttledBefore {
		t.Fatalf("paced %s stream not counted in draid_serve_throttled_total", wireName)
	}
	return kbps
}

// TestCappedStreamEndsUnpaced: the batch that reaches max_batches is
// not paced. A stream capped at one batch far over the pacer's 4 KiB
// burst ends at once — the SDK's Next reads the response's end well
// inside the batch's pacing deficit — its fair-share slot is free by
// then, and since it never slept it is not counted as throttled.
func TestCappedStreamEndsUnpaced(t *testing.T) {
	s, err := New(Options{Workers: 1, ServeCacheBytes: 32 << 20, ServeBudgetKBps: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Seed: 3, Months: 24, Lat: 32, Lon: 64}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=16&max_batches=1"
	for _, wireName := range wire.Wires() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		st, err := client.OpenStreamURL(ctx, nil, url, "", wireName, -1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(); err != nil {
			t.Fatal(err)
		}
		// 1 KiB/s against a batch of about 32 KiB: its deficit is ~28 s.
		deficit := time.Duration(float64(st.Bytes()-4<<10) / 1024 * float64(time.Second))
		if deficit < 20*time.Second {
			t.Fatalf("%s batch of %d bytes too small to show the pacing deficit", wireName, st.Bytes())
		}
		start := time.Now()
		if _, err := st.Next(); err != io.EOF {
			t.Fatalf("%s: Next at the cap: %v", wireName, err)
		}
		if d := time.Since(start); d > deficit/10 {
			t.Fatalf("%s: Next at the cap took %s; the last batch's deficit is %s", wireName, d, deficit)
		}
		if n := metricValue(t, ts.URL, "draid_tenant_active_streams"); n != 0 {
			t.Fatalf("%s: %d active streams after the capped stream ended", wireName, n)
		}
		cancel()
	}
	if n := metricValue(t, ts.URL, "draid_serve_throttled_total"); n != 0 {
		t.Fatalf("capped streams that never slept counted %d times as throttled", n)
	}
}

// TestUncappedStreamEndsUnpaced: a stream's last batch is not paced
// either when no cap ends it. One batch covers the whole job, far over
// the pacer's 4 KiB burst at an 8 KiB/s budget; the SDK's Next after it
// reads the response's end well inside that batch's pacing deficit,
// and the stream's fair-share slot is free by then.
func TestUncappedStreamEndsUnpaced(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, ServeCacheBytes: 32 << 20, ServeBudgetKBps: 8})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Seed: 3, Months: 24, Lat: 32, Lon: 64}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=100000"
	for _, wireName := range wire.Wires() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		st, err := client.OpenStreamURL(ctx, nil, url, "", wireName, -1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(); err != nil {
			t.Fatal(err)
		}
		deficit := time.Duration(float64(st.Bytes()-4<<10) / (8 << 10) * float64(time.Second))
		if deficit < 3*time.Second {
			t.Fatalf("%s batch of %d bytes too small to show the pacing deficit", wireName, st.Bytes())
		}
		start := time.Now()
		if _, err := st.Next(); err != io.EOF {
			t.Fatalf("%s: Next after the only batch: %v", wireName, err)
		}
		if d := time.Since(start); d > deficit/10 {
			t.Fatalf("%s: the stream took %s to end; its last batch's deficit is %s", wireName, d, deficit)
		}
		if n := metricValue(t, ts.URL, "draid_tenant_active_streams"); n != 0 {
			t.Fatalf("%s: %d active streams after the stream ended", wireName, n)
		}
		st.Close()
		cancel()
	}
}

// TestServeRateControl: ?max_kbps= paces the stream with a token bucket
// and the throttled-streams counter ticks — in both wire formats. The
// unpaced stream finishes the same payload far faster than the paced
// one.
func TestServeRateControl(t *testing.T) {
	s, err := New(Options{Workers: 1, ServeCacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Seed: 2, Months: 36, Lat: 16, Lon: 32}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=1"

	if _, _, _, err := StreamBatches(url); err != nil {
		t.Fatal(err)
	}
	if int64(s.metrics.serveThrottled.Value()) != 0 {
		t.Fatal("unpaced stream counted as throttled")
	}

	// Both wire formats are paced by the same token bucket over their
	// own encoded bytes.
	kbps := assertPaced(t, s, url, wire.WireNDJSON)
	assertPaced(t, s, url, wire.WireFrame)

	// The server-wide ceiling clamps client requests above it.
	s2, err := New(Options{Workers: 1, ServeMaxKBps: kbps})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(s2.Close)
	id2, err := SubmitAndWait(ts2.URL, JobSpec{Domain: core.Climate, Seed: 2, Months: 36, Lat: 16, Lon: 32}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Ask for 100x the ceiling; the server must still pace.
	if _, _, _, err := StreamBatches(fmt.Sprintf("%s/v1/jobs/%s/batches?batch_size=1&max_kbps=%d", ts2.URL, id2, kbps*100)); err != nil {
		t.Fatal(err)
	}
	if int64(s2.metrics.serveThrottled.Value()) == 0 {
		t.Fatal("server-wide ceiling did not pace a greedy client")
	}

	// Malformed pacing values are rejected.
	resp, err := http.Get(url + "&max_kbps=-3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative max_kbps accepted with %d", resp.StatusCode)
	}

	// An absurd rate must not overflow into a negative bucket: the
	// stream runs unpaced and the throttled counter stays put.
	throttledBefore := int64(s.metrics.serveThrottled.Value())
	if _, _, _, err := StreamBatches(url + "&max_kbps=9223372036854775807"); err != nil {
		t.Fatal(err)
	}
	if got := int64(s.metrics.serveThrottled.Value()); got != throttledBefore {
		t.Fatalf("overflow max_kbps ticked draid_serve_throttled_total (%d -> %d)", throttledBefore, got)
	}
}
