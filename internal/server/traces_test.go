package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/telemetry"
	"repro/pkg/client"
)

// fetchTrace polls the trace endpoint until the assembled view
// satisfies ok (spans are recorded in a middleware defer, so the
// client can observe the response before the spans land).
func fetchTrace(t *testing.T, c *client.Client, trace string, ok func(*client.TraceView) bool) *client.TraceView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	deadline := time.Now().Add(10 * time.Second)
	for {
		view, err := c.Trace(ctx, trace)
		if err == nil && ok(view) {
			return view
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("trace %s never satisfied condition: %v", trace, err)
			}
			t.Fatalf("trace %s never satisfied condition; last view:\n%s", trace, view.RenderTree())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// spanByName indexes a view's spans by name (first occurrence wins).
func spanByName(view *client.TraceView) map[string]client.Span {
	out := make(map[string]client.Span)
	for _, sp := range view.Spans {
		if _, seen := out[sp.Name]; !seen {
			out[sp.Name] = sp
		}
	}
	return out
}

// streamAuditParent returns the parent of the view's ledger.append span
// for a stream open, or nil while either is missing.
func streamAuditParent(view *client.TraceView) *client.Span {
	for _, sp := range view.Spans {
		if sp.Name != "ledger.append" || sp.Attrs["type"] != ledger.TypeStream {
			continue
		}
		for i := range view.Spans {
			if view.Spans[i].SpanID == sp.Parent {
				return &view.Spans[i]
			}
		}
	}
	return nil
}

// assertNested fails unless every span whose parent is present in the
// view lies entirely within its parent's interval — the tree-shape
// invariant the acceptance criteria name.
func assertNested(t *testing.T, view *client.TraceView) {
	t.Helper()
	byID := make(map[string]client.Span, len(view.Spans))
	for _, sp := range view.Spans {
		byID[sp.SpanID] = sp
	}
	for _, sp := range view.Spans {
		p, ok := byID[sp.Parent]
		if !ok {
			continue
		}
		if sp.Start.Before(p.Start) || sp.End.After(p.End) {
			t.Errorf("span %s [%v..%v] escapes parent %s [%v..%v]\n%s",
				sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End, view.RenderTree())
		}
	}
}

// TestTraceSpanTreeSingleNode drives a real job + stream under one
// pinned trace ID and checks the recorded span tree end to end: the
// hot-path span names, parent-child nesting, the stream open's durable
// audit wait under its own root, the trace listing and its filters,
// and the exemplar riding the request histogram.
func TestTraceSpanTreeSingleNode(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, ServeCacheBytes: 1 << 20, DataDir: t.TempDir()})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const trace = "span-tree-e2e.1"
	c := client.New(ts.URL, client.WithPollInterval(5*time.Millisecond), client.WithTrace(trace))
	st, err := c.SubmitJob(ctx, JobSpec{Domain: core.Climate, Name: "sp", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitDone(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/jobs/"+st.ID+"/batches?batch_size=4&max_batches=2", nil)
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}

	want := []string{"http.request", "job.wait", "job.run", "job.stage", "frame.fill", "batch.encode", "ledger.append"}
	view := fetchTrace(t, c, trace, func(v *client.TraceView) bool {
		got := spanByName(v)
		for _, name := range want {
			if _, ok := got[name]; !ok {
				return false
			}
		}
		return streamAuditParent(v) != nil
	})
	byName := spanByName(view)
	for _, sp := range view.Spans {
		if sp.TraceID != trace {
			t.Errorf("span %s carries trace %q, want %q", sp.Name, sp.TraceID, trace)
		}
	}
	if !byName["http.request"].Root {
		t.Errorf("http.request not marked root")
	}
	if byName["job.stage"].Parent != byName["job.run"].SpanID {
		t.Errorf("job.stage parent %q, want job.run %q", byName["job.stage"].Parent, byName["job.run"].SpanID)
	}
	assertNested(t, view)
	// The stream open waits for its audit record before the first byte;
	// that wait hangs under the stream's own root, not the submission's.
	if p := streamAuditParent(view); p.Name != "http.request" || !strings.Contains(p.Attrs["path"], "/batches") {
		t.Errorf("stream ledger.append parented under %s %v, want the /batches http.request\n%s",
			p.Name, p.Attrs, view.RenderTree())
	}

	// Every span name the store actually emitted is in the closed,
	// documented set.
	known := make(map[string]bool, len(serverSpanNames))
	for _, n := range serverSpanNames {
		known[n] = true
	}
	for _, n := range s.spans.Names() {
		if !known[n] {
			t.Errorf("span name %q emitted but missing from serverSpanNames", n)
		}
	}

	// The listing surfaces the trace; an absurd min_ms filters it out.
	sums, err := c.Traces(ctx, client.TraceQuery{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ts := range sums {
		found = found || ts.TraceID == trace
	}
	if !found {
		t.Errorf("trace %s absent from /v1/traces listing", trace)
	}
	sums, err = c.Traces(ctx, client.TraceQuery{MinMs: 1e12, ErrorsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 0 {
		t.Errorf("min_ms+error filters passed %d traces, want 0", len(sums))
	}

	// The scrape strict-parses with exemplars present, and the request
	// histogram carries the pinned trace as one.
	_, text := scrape(t, ts.URL)
	if !strings.Contains(text, `trace_id="`+trace+`"`) {
		t.Errorf("/metrics carries no exemplar for trace %s:\n%s", trace, text)
	}

	// RenderTree produces the human-readable dump, stage spans indented
	// under their job.run parent.
	if tree := view.RenderTree(); !strings.Contains(tree, "http.request") || !strings.Contains(tree, "\n  job.stage") {
		t.Errorf("RenderTree output unexpected:\n%s", tree)
	}
}

// TestJobSpansInOrder: a traced job's job.run children lie inside it,
// are disjoint and in order — job.synthesize first, then the pipeline
// stages, then job.commit — and every job.stage starts at or after
// job.synthesize ends, so the stages are not drawn a synthesis early.
func TestJobSpansInOrder(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, DataDir: t.TempDir()})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const trace = "job-spans-in-order.1"
	c := client.New(ts.URL, client.WithPollInterval(5*time.Millisecond), client.WithTrace(trace))
	st, err := c.SubmitJob(ctx, JobSpec{Domain: core.Climate, Seed: 3, Months: 37, Lat: 32, Lon: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitDone(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	view := fetchTrace(t, c, trace, func(v *client.TraceView) bool {
		got := spanByName(v)
		_, stage := got["job.stage"]
		_, commit := got["job.commit"]
		return stage && commit
	})
	assertNested(t, view)
	run := spanByName(view)["job.run"]
	var kids []client.Span
	for _, sp := range view.Spans {
		if sp.Parent == run.SpanID {
			kids = append(kids, sp)
		}
	}
	sort.SliceStable(kids, func(i, k int) bool { return kids[i].Start.Before(kids[k].Start) })
	if len(kids) < 3 || kids[0].Name != "job.synthesize" || kids[len(kids)-1].Name != "job.commit" {
		t.Fatalf("job.run children are not synthesize, stages, commit:\n%s", view.RenderTree())
	}
	for i, sp := range kids {
		if i > 0 && sp.Start.Before(kids[i-1].End) {
			t.Errorf("%s starts at %v, before %s ends at %v", sp.Name, sp.Start, kids[i-1].Name, kids[i-1].End)
		}
		if sp.End.Before(sp.Start) {
			t.Errorf("%s ends before it starts", sp.Name)
		}
		if i > 0 && i < len(kids)-1 && sp.Name != "job.stage" {
			t.Errorf("child %d of job.run is %s, want job.stage", i, sp.Name)
		}
		if sp.Name == "job.stage" && sp.Start.Before(kids[0].End) {
			t.Errorf("job.stage %s starts at %v, before job.synthesize ends at %v", sp.Attrs["stage"], sp.Start, kids[0].End)
		}
	}
}

// TestTraceEndpointErrors pins the endpoint's failure contract.
func TestTraceEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/traces/bad%20id")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid trace id: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/traces/never-seen-trace.1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/traces?min_ms=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min_ms: status %d, want 400", resp.StatusCode)
	}
}

// TestProbePathsRecordNoSpans keeps scrapes and probes out of the span
// ring: a fleet's per-second /healthz + /metrics chatter must not evict
// real traces.
func TestProbePathsRecordNoSpans(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for i := 0; i < 5; i++ {
		for _, path := range []string{"/healthz", "/metrics", "/v1/traces"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	if got := s.spans.Stats().Recorded; got != 0 {
		t.Fatalf("probe/scrape traffic recorded %d spans, want 0 (names: %v)", got, s.spans.Names())
	}
}

// TestFleetAssembledTraceView is the 3-node acceptance path: a stream
// proxied through a non-owner, fetched as one trace from a third node
// that served none of it, must come back as a single merged tree with
// spans from both involved nodes, the owner's server span parented
// under the proxy's client span, and every child nested inside its
// parent.
func TestFleetAssembledTraceView(t *testing.T) {
	fleet := startFleet(t, t.TempDir(), 3, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	c0 := client.New(fleet[0].ts.URL, client.WithPollInterval(5*time.Millisecond))
	var jobID string
	var owner int
	for seed := 1; seed <= 20; seed++ {
		st, err := c0.SubmitJob(ctx, JobSpec{Domain: core.Climate, Name: fmt.Sprintf("at%d", seed), Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if o := ownerOf(t, fleet, 0, st.ID); o != 0 {
			jobID, owner = st.ID, o
			break
		}
	}
	if jobID == "" {
		t.Fatal("20 submissions all hashed to the entry node; cannot exercise the proxy hop")
	}
	if _, err := c0.WaitDone(ctx, jobID); err != nil {
		t.Fatal(err)
	}

	const trace = "fleet-assembled-span.1"
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied stream status %d", resp.StatusCode)
	}

	// Ask the node that served none of the request: 3 nodes, one proxy,
	// one owner — the remaining one must assemble the view via fan-out.
	third := 3 - owner // indices {0, owner, third} cover {0,1,2}
	if third == owner || third == 0 {
		t.Fatalf("bad third-node pick: owner=%d third=%d", owner, third)
	}
	cT := client.New(fleet[third].ts.URL)
	view := fetchTrace(t, cT, trace, func(v *client.TraceView) bool {
		nodes := make(map[string]bool)
		for _, sp := range v.Spans {
			nodes[sp.Node] = true
		}
		return nodes[fleet[0].id] && nodes[fleet[owner].id]
	})

	perNode := make(map[string]int)
	for _, sp := range view.Spans {
		if sp.TraceID != trace {
			t.Errorf("span %s/%s carries trace %q, want %q", sp.Node, sp.Name, sp.TraceID, trace)
		}
		perNode[sp.Node]++
	}
	for _, idx := range []int{0, owner} {
		if perNode[fleet[idx].id] == 0 {
			t.Errorf("no spans from involved node %s:\n%s", fleet[idx].id, view.RenderTree())
		}
	}

	// The cross-node link: the owner's server root hangs off the
	// proxy's client span via the X-Draid-Span hop.
	var fwd, ownerRoot *client.Span
	for i := range view.Spans {
		sp := &view.Spans[i]
		if sp.Name == "proxy.forward" && sp.Node == fleet[0].id {
			fwd = sp
		}
		if sp.Name == "http.request" && sp.Node == fleet[owner].id {
			ownerRoot = sp
		}
	}
	if fwd == nil || ownerRoot == nil {
		t.Fatalf("missing proxy.forward or owner http.request:\n%s", view.RenderTree())
	}
	if ownerRoot.Parent != fwd.SpanID {
		t.Errorf("owner root parent %q, want proxy.forward %q\n%s", ownerRoot.Parent, fwd.SpanID, view.RenderTree())
	}
	assertNested(t, view)

	// Scope control: the third node holds nothing locally.
	var local client.TraceView
	if code := getJSON(t, fleet[third].ts.URL+"/v1/traces/"+trace+"?scope=local", &local); code != http.StatusNotFound {
		t.Errorf("scope=local on uninvolved node: status %d, want 404", code)
	}
}

// TestSubmitProxySpan: a submission proxied to its owner takes the same
// hop as any job-addressed request, so it records a proxy.forward span
// on the entry node, and the owner's POST root parents under it.
func TestSubmitProxySpan(t *testing.T) {
	fleet := startFleet(t, t.TempDir(), 3, nil)
	const trace = "submit-proxy-span.1"
	c0 := client.New(fleet[0].ts.URL, client.WithTrace(trace))
	var owner *fleetNode
	for seed := 1; owner == nil && seed <= 20; seed++ {
		st, err := c0.SubmitJob(context.Background(), JobSpec{Domain: core.Climate, Months: 2, Lat: 4, Lon: 8, Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if o := ownerOf(t, fleet, 0, st.ID); o != 0 {
			owner = fleet[o]
		}
	}
	if owner == nil {
		t.Fatal("20 submissions all hashed to the entry node; cannot exercise the proxy hop")
	}
	fetchTrace(t, c0, trace, func(v *client.TraceView) bool {
		for _, fwd := range v.Spans {
			if fwd.Name != "proxy.forward" || fwd.Node != fleet[0].id || fwd.Attrs["peer"] != owner.id {
				continue
			}
			for _, sp := range v.Spans {
				if sp.Name == "http.request" && sp.Node == owner.id && sp.Parent == fwd.SpanID &&
					sp.Attrs["route"] == "POST /v1/jobs" {
					return true
				}
			}
		}
		return false
	})
}

// TestSlowRequestLoggedAtInfo pins the satellite: a request crossing
// the tail-sampling threshold logs at Info — visible without -debug —
// while fast, clean traffic stays at Debug.
func TestSlowRequestLoggedAtInfo(t *testing.T) {
	get := func(ts string, trace string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts+"/v1/templates", nil)
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
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}

	slowLog := &lockedBuf{}
	_, slowTS := newTestServer(t, Options{Workers: 1, TraceSlow: time.Nanosecond,
		Logger: slog.New(slog.NewTextHandler(slowLog, &slog.HandlerOptions{Level: slog.LevelInfo}))})
	get(slowTS.URL, "slow-info-trace.1")
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(slowLog.String(), "slow-info-trace.1") {
		if time.Now().After(deadline) {
			t.Fatalf("slow request never logged at Info:\n%s", slowLog.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(slowLog.String(), "http request") {
		t.Fatalf("Info log line malformed:\n%s", slowLog.String())
	}

	fastLog := &lockedBuf{}
	_, fastTS := newTestServer(t, Options{Workers: 1,
		Logger: slog.New(slog.NewTextHandler(fastLog, &slog.HandlerOptions{Level: slog.LevelInfo}))})
	get(fastTS.URL, "fast-debug-trace.1")
	time.Sleep(50 * time.Millisecond)
	if strings.Contains(fastLog.String(), "fast-debug-trace.1") {
		t.Fatalf("fast clean request logged at Info:\n%s", fastLog.String())
	}
}

// TestSpanNamesDocumented is the docs-hygiene gate for spans: every
// name the server can emit must appear in the README's span table.
func TestSpanNamesDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range serverSpanNames {
		if !strings.Contains(string(readme), name) {
			t.Errorf("span name %s is emitted but not documented in README.md", name)
		}
	}
}
