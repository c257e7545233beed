package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

func TestParseCursor(t *testing.T) {
	good := map[string]Cursor{
		"0:0":     {0, 0},
		"3:128":   {3, 128},
		"10:1":    {10, 1},
		"0:7":     {0, 7},
		"123:456": {123, 456},
	}
	for in, want := range good {
		got, err := ParseCursor(in)
		if err != nil || got != want {
			t.Fatalf("ParseCursor(%q) = %+v, %v; want %+v", in, got, err, want)
		}
		if got.String() != in {
			t.Fatalf("round trip %q -> %q", in, got.String())
		}
	}
	bad := []string{
		"", ":", "1", "1:", ":1", "1:2:3", "-1:0", "0:-1", "+1:0",
		"a:b", "1:x", " 1:2", "1 :2", "1: 2", "1:2 ", "01:2", "1:02",
		"0x1:0", "1e3:0", "99999999999999999999:0", "0:99999999999999999999",
		"1:2\n", "∞:0",
	}
	for _, in := range bad {
		if c, err := ParseCursor(in); err == nil {
			t.Fatalf("ParseCursor(%q) accepted as %+v", in, c)
		}
	}
}

func TestCursorValidate(t *testing.T) {
	m := &shard.Manifest{Shards: []shard.Info{{Records: 10}, {Records: 5}}}
	for _, ok := range []Cursor{{0, 0}, {0, 10}, {1, 5}, {2, 0}, {1, 0}} {
		if err := ok.validate(m); err != nil {
			t.Fatalf("cursor %s rejected: %v", ok, err)
		}
	}
	for _, badc := range []Cursor{{3, 0}, {2, 1}, {0, 11}, {1, 6}, {-1, 0}, {0, -1}} {
		if err := badc.validate(m); err == nil {
			t.Fatalf("cursor %s accepted", badc)
		}
	}
}

// FuzzParseCursor hardens the parser against hostile query strings:
// it must never panic, and anything it accepts must be canonical
// (round-trips through String) and in-range for indexing.
func FuzzParseCursor(f *testing.F) {
	for _, seed := range []string{"0:0", "3:128", "-1:5", "01:2", "1:2:3", ":", "", "a:b",
		"99999999999999999999:1", "0x10:4", "7", "7:", ":7", "∞:∞"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCursor(s)
		if err != nil {
			return
		}
		if c.Shard < 0 || c.Record < 0 {
			t.Fatalf("ParseCursor(%q) accepted negative %+v", s, c)
		}
		if c.String() != s {
			t.Fatalf("accepted non-canonical %q (canonical %q)", s, c.String())
		}
	})
}

// streamLine is one decoded batch with its payload isolated from the
// batch counter, so suffixes can be compared across resumed streams.
// The payload is the raw decoded JSON object minus "batch", making the
// comparison kind-agnostic — it covers every domain codec's fields.
type streamLine struct {
	cursor  string
	kind    string
	payload map[string]any
}

// streamFrom decodes a batch stream into lines.
func streamFrom(t *testing.T, url, cursor string) []streamLine {
	t.Helper()
	if cursor != "" {
		url += "&cursor=" + cursor
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: status %d", url, resp.StatusCode)
	}
	var out []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var payload map[string]any
		if err := json.Unmarshal(sc.Bytes(), &payload); err != nil {
			t.Fatalf("bad line: %v", err)
		}
		if errMsg, ok := payload["error"]; ok {
			t.Fatalf("stream error line: %v", errMsg)
		}
		line := streamLine{payload: payload}
		line.cursor, _ = payload["cursor"].(string)
		line.kind, _ = payload["kind"].(string)
		if line.cursor == "" || line.kind == "" {
			t.Fatalf("line without cursor/kind: %s", sc.Text())
		}
		delete(payload, "batch")
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertSuffix requires got to equal want's payloads exactly.
func assertSuffix(t *testing.T, ctx string, got, want []streamLine) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].cursor != want[i].cursor ||
			!reflect.DeepEqual(got[i].payload, want[i].payload) {
			t.Fatalf("%s: line %d differs (cursor %s vs %s)", ctx, i, got[i].cursor, want[i].cursor)
		}
	}
}

// resumeExhaustive streams a job once per record (batch_size=1), then
// resumes at every shard boundary and at mid-shard offsets, requiring
// each resumed stream to reproduce the reference suffix exactly. It
// also chains single-batch connections — a client disconnecting after
// every batch — end to end.
func resumeExhaustive(t *testing.T, ts *httptest.Server, spec JobSpec, wantKind string) {
	t.Helper()
	id, err := SubmitAndWait(ts.URL, spec, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=1"
	ref := streamFrom(t, base, "")
	if len(ref) < 4 {
		t.Fatalf("reference stream too small (%d records) to exercise boundaries", len(ref))
	}
	for i, line := range ref {
		if line.kind != wantKind {
			t.Fatalf("line %d kind %q, want %q", i, line.kind, wantKind)
		}
	}

	// Pick resume points: after every record that ends a shard (cursor
	// "k:0"), plus first/middle records within each shard.
	resumeAt := map[int]bool{0: true, len(ref) - 1: true}
	shardStart := 0
	for i, line := range ref {
		if strings.HasSuffix(line.cursor, ":0") {
			resumeAt[i] = true // shard boundary: next stream starts a fresh shard
			mid := shardStart + (i-shardStart)/2
			resumeAt[mid] = true
			shardStart = i + 1
		}
	}
	boundaries := 0
	for i := range resumeAt {
		got := streamFrom(t, base, ref[i].cursor)
		assertSuffix(t, fmt.Sprintf("resume at %s", ref[i].cursor), got, ref[i+1:])
		if strings.HasSuffix(ref[i].cursor, ":0") {
			boundaries++
		}
	}
	if boundaries < 2 {
		t.Fatalf("only %d shard boundaries exercised; job too small", boundaries)
	}

	// Chained single-batch clients: disconnect after every batch.
	var chained []streamLine
	cursor := ""
	for {
		got := streamFrom(t, base+"&max_batches=1", cursor)
		if len(got) == 0 {
			break
		}
		chained = append(chained, got...)
		cursor = got[len(got)-1].cursor
	}
	assertSuffix(t, "chained single-batch resume", chained, ref)

	// The terminal cursor resumes to an empty, well-formed stream.
	if got := streamFrom(t, base, ref[len(ref)-1].cursor); len(got) != 0 {
		t.Fatalf("end-of-stream cursor yielded %d lines", len(got))
	}
}

// TestCursorResumeExhaustive runs the boundary/mid-shard/chained resume
// protocol against every wire codec: climate (samples), fusion
// (windowed Examples), and materials (ragged graphs) — multi-shard
// specs so real shard boundaries are crossed.
func TestCursorResumeExhaustive(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, ServeCacheBytes: 32 << 20})
	for _, tc := range []struct {
		name string
		spec JobSpec
		kind string
	}{
		{"climate", JobSpec{Domain: core.Climate, Seed: 5, Months: 48, Lat: 16, Lon: 32}, "samples"},
		{"fusion", JobSpec{Domain: core.Fusion, Seed: 5, Shots: 12}, "fusion_windows"},
		{"materials", JobSpec{Domain: core.Materials, Seed: 5, Structures: 30}, "materials_graphs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resumeExhaustive(t, ts, tc.spec, tc.kind)
		})
	}
}

// TestCursorResumeBio runs the resume protocol against sealed shards:
// the decrypting opener must hand back identical plaintext wherever
// the client reconnects.
func TestCursorResumeBio(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, ServeCacheBytes: 32 << 20})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.BioHealth, Seed: 5, Subjects: 32}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=2"
	ref := streamFrom(t, base, "")
	if len(ref) < 3 {
		t.Fatalf("bio stream too small (%d batches)", len(ref))
	}
	for i := 0; i < len(ref)-1; i++ {
		got := streamFrom(t, base, ref[i].cursor)
		assertSuffix(t, fmt.Sprintf("bio resume after batch %d", i), got, ref[i+1:])
	}
}

// TestCursorRejectsMalformed covers the HTTP surface: garbage and
// out-of-range cursors must 400, not stream or crash.
func TestCursorRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Months: 12, Lat: 8, Lon: 16}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, cur := range []string{"abc", "1", "1:2:3", "-1:0", "0:-1", "01:0", "999999:0", "0:999999", "%20:2"} {
		code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/batches?cursor="+cur, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("cursor %q: status %d, want 400", cur, code)
		}
	}
}
