// Acceptance tests for the encoded-frame shard cache: the cached path
// must be invisible on the wire — byte-identical frame streams, across
// every codec, any batch size, cursor resume boundaries, and pacing —
// while the frame cache actually takes the hits.
package server

import (
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// openRaw starts one batch stream in the given wire (wire.WireFrame
// or wire.WireNDJSON) and checks that the server answered 200 in it.
func openRaw(t *testing.T, url, wireName string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	accept := wire.ContentTypeNDJSON
	if wireName == wire.WireFrame {
		accept = wire.ContentTypeFrame
	}
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get(wire.HeaderWire) != wireName {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("%s: status %d, wire %q, want 200 and %q: %s", url, resp.StatusCode, resp.Header.Get(wire.HeaderWire), wireName, body)
	}
	return resp
}

// rawStream fetches url as a stream in the given wire and returns the
// raw response bytes, unparsed — the unit of comparison for
// byte-exactness.
func rawStream(t *testing.T, url, wireName string) []byte {
	t.Helper()
	resp := openRaw(t, url, wireName)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// rawFrameStream and rawNDJSONStream are rawStream for one wire.
func rawFrameStream(t *testing.T, url string) []byte {
	t.Helper()
	return rawStream(t, url, wire.WireFrame)
}

func rawNDJSONStream(t *testing.T, url string) []byte {
	t.Helper()
	return rawStream(t, url, wire.WireNDJSON)
}

// splitFrame cuts the first whole frame off a raw frame stream and
// returns its body and the rest of the stream.
func splitFrame(t *testing.T, stream []byte) (body, rest []byte) {
	t.Helper()
	ln, sz := binary.Uvarint(stream)
	if sz <= 0 || uint64(len(stream)-sz) < ln {
		t.Fatalf("frame stream cut inside a frame: % x", stream[:min(len(stream), 16)])
	}
	return stream[sz : sz+int(ln)], stream[sz+int(ln):]
}

// frameCursors parses a raw frame stream into its batch cursors.
func frameCursors(t *testing.T, stream []byte) []string {
	t.Helper()
	var cursors []string
	rest := stream
	for len(rest) > 0 {
		body, r := splitFrame(t, rest)
		h, _, _, err := wire.ParseFrameHeader(body)
		if err != nil {
			t.Fatal(err)
		}
		cursors = append(cursors, h.Cursor)
		rest = r
	}
	return cursors
}

// TestFrameCacheByteExact is the zero-copy acceptance proof: for every
// codec, the frame stream served by slicing the encoded-frame cache is
// byte-identical to the encode-per-request stream — cold (cache fill),
// warm (cache hit), at a different batch size, resumed from a
// mid-stream cursor, capped by max_batches, and under ?max_kbps=
// pacing — and so is every NDJSON line sliced out of the line cache,
// against Line+json.Marshal over the same records. The reference bytes
// come from a server with the serving cache off whose store has no frame
// sidecars; the cached server reads the same data dir after a restart.
func TestFrameCacheByteExact(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := New(Options{Workers: 4, DataDir: dataDir, ServeCacheBytes: 0, NewStore: noFrameStore(dataDir)})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	// One job per codec kind: climate (samples), fusion (windowed
	// TFRecord examples), materials (BP graphs).
	specs := []JobSpec{
		{Domain: core.Climate, Seed: 3, Months: 24, Lat: 16, Lon: 32},
		{Domain: core.Fusion, Seed: 3, Shots: 8},
		{Domain: core.Materials, Seed: 3, Structures: 16},
	}
	ids := make([]string, len(specs))
	cases := make([][]byteExactCase, len(specs))
	for i, spec := range specs {
		id, err := SubmitAndWait(ts1.URL, spec, 120*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", spec.Domain, err)
		}
		ids[i] = id
		cases[i] = referenceCases(t, ts1.URL+"/v1/jobs/"+id+"/batches?")
	}
	if hits := s1.cache.Stats(wireFrames).Hits; hits != 0 {
		t.Fatalf("disabled frame cache recorded %d hits", hits)
	}
	ts1.Close()
	s1.Close()

	s2, err := New(Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(s2.Close)

	for i, id := range ids {
		// The first row is cold: it fills the frame cache and must already
		// be byte-identical to the reference. Every row after it — the
		// first one again included — re-frames the cached payload slices.
		url := ts2.URL + "/v1/jobs/" + id + "/batches?"
		checkCase(t, url, cases[i][0])
		for _, c := range cases[i] {
			checkCase(t, url, c)
		}
	}

	fs := s2.cache.Stats(wireFrames)
	if fs.Hits == 0 {
		t.Fatalf("frame cache took no hits: %+v", fs)
	}
	if fs.Entries == 0 || fs.Bytes == 0 {
		t.Fatalf("frame cache holds nothing after serving: %+v", fs)
	}
	if ls := s2.cache.Stats(wireLines); ls.Hits == 0 || ls.Entries == 0 || ls.Bytes == 0 {
		t.Fatalf("line cache took no hits or holds nothing: %+v", ls)
	}

	// NDJSON streams never touch frame entries: same bytes, no new
	// frame-wire cache traffic.
	ndjsonURL := ts2.URL + "/v1/jobs/" + ids[0] + "/batches?batch_size=2"
	before := s2.cache.Stats(wireFrames)
	resp, err := http.Get(ndjsonURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) == 0 || body[0] != '{' {
		t.Fatalf("NDJSON stream looks wrong: %.60s", body)
	}
	after := s2.cache.Stats(wireFrames)
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("NDJSON stream moved frame-cache counters: %+v -> %+v", before, after)
	}
}

// TestNegativeMaxBatchesRejected: ?max_batches=-1 is a client error,
// not an unlimited stream — and so is every negative or non-integer
// count of /batches and /v1/traces, and a batch_size of 0.
func TestNegativeMaxBatchesRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	id, err := SubmitAndWait(ts.URL, JobSpec{Domain: core.Climate, Seed: 2, Months: 12, Lat: 8, Lon: 16}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	batches := ts.URL + "/v1/jobs/" + id + "/batches?"
	traces := ts.URL + "/v1/traces?"
	for _, url := range []string{
		batches + "batch_size=-1",
		batches + "batch_size=0",
		batches + "batch_size=two",
		batches + "batch_size=2&max_batches=-1",
		batches + "batch_size=2&max_batches=-9000",
		batches + "batch_size=2&max_batches=1.5",
		batches + "batch_size=2&max_kbps=-3",
		batches + "batch_size=2&max_kbps=fast",
		traces + "limit=-1",
		traces + "limit=ten",
	} {
		if got := status(url); got != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", url, got)
		}
	}
	// Zero and positive stay valid; zero means unlimited.
	for _, url := range []string{
		batches + "batch_size=2&max_batches=0",
		batches + "batch_size=2&max_batches=2",
		batches + "batch_size=2&max_batches=2&max_kbps=0",
		traces + "limit=0",
		traces + "limit=5",
	} {
		if got := status(url); got != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", url, got)
		}
	}
}
