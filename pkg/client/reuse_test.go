// Connection reuse: a stream read to its MaxBatches cap reads its
// response to the clean end, so net/http hands the keep-alive
// connection to the next stream instead of dialing a new one — and a
// stream that ends any other way drops it.
package client_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/pkg/client"
)

// reuseSpec is a climate job whose 16-record batches (2 KiB a record)
// are far larger than the SDK's first 4 KiB read, so a capped stream
// stops with the server's final chunk still unread.
var reuseSpec = client.JobSpec{Domain: core.Climate, Seed: 6, Months: 96, Lat: 32, Lon: 64}

const (
	reuseBatch = 16
	reuseCap   = 2
)

// connTracker opens streams through one http.Transport and records
// whether each stream's first connection was a reused one.
type connTracker struct {
	c *client.Client
}

func newConnTracker(url string) *connTracker {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return &connTracker{c: client.New(url, client.WithHTTPClient(&http.Client{Transport: tr}))}
}

// open opens a stream, reporting whether its connection was reused.
func (ct *connTracker) open(t *testing.T, jobID string, opts client.StreamOptions) (*client.Stream, bool) {
	t.Helper()
	reused, got := false, false
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !got {
				reused, got = info.Reused, true
			}
		},
	})
	st, err := ct.c.StreamBatches(ctx, jobID, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, reused
}

// readCapped reads a capped stream to its io.EOF, requiring exactly
// the cap.
func readCapped(t *testing.T, st *client.Stream) []client.BatchWire {
	t.Helper()
	got := drainAll(t, st)
	if len(got) != reuseCap {
		t.Fatalf("capped stream delivered %d batches, want %d", len(got), reuseCap)
	}
	return got
}

// cursors returns the cursor after every batch of the job's full
// stream, so capped reads can start all over the shard set.
func cursors(t *testing.T, url, jobID string) []string {
	t.Helper()
	st, err := client.New(url).StreamBatches(context.Background(), jobID, client.StreamOptions{BatchSize: reuseBatch})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, b := range drainAll(t, st) {
		out = append(out, b.Cursor)
	}
	if len(out) < 2*reuseCap+1 {
		t.Fatalf("job too small: %d batches", len(out))
	}
	return out[:len(out)-reuseCap]
}

// assertCappedReuse opens 50 capped streams one after another through
// one transport, from cursors all over the job: every stream after the
// first must reuse the connection.
func assertCappedReuse(t *testing.T, url, jobID string, starts []string) {
	t.Helper()
	for _, wire := range wire.Wires() {
		t.Run(wire, func(t *testing.T) {
			ct := newConnTracker(url)
			fresh := 0
			for i := range 50 {
				st, reused := ct.open(t, jobID, client.StreamOptions{
					BatchSize: reuseBatch, MaxBatches: reuseCap, Wire: wire, Cursor: starts[i%len(starts)],
				})
				readCapped(t, st)
				if i > 0 && !reused {
					fresh++
				}
			}
			if fresh > 0 {
				t.Fatalf("%d of 49 capped streams after the first dialed a new connection", fresh)
			}
		})
	}
}

// TestCappedStreamReusesConnection: 50 capped streams through one
// transport share one connection, on both wires; a stream closed
// before its cap drops it.
func TestCappedStreamReusesConnection(t *testing.T) {
	_, ts := newServer(t, server.Options{Workers: 2, ServeCacheBytes: 32 << 20})
	done := submitDone(t, client.New(ts.URL), reuseSpec)
	assertCappedReuse(t, ts.URL, done.ID, cursors(t, ts.URL, done.ID))

	t.Run("close before cap", func(t *testing.T) {
		for _, wire := range wire.Wires() {
			ct := newConnTracker(ts.URL)
			opts := client.StreamOptions{BatchSize: reuseBatch, MaxBatches: reuseCap, Wire: wire}
			st, _ := ct.open(t, done.ID, opts)
			readCapped(t, st)
			st, reused := ct.open(t, done.ID, opts)
			if !reused {
				t.Fatalf("%s: a stream after a capped one dialed a new connection", wire)
			}
			if _, err := st.Next(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, reused = ct.open(t, done.ID, opts)
			if reused {
				t.Fatalf("%s: the connection of a stream closed before its cap was reused", wire)
			}
			st.Close()
		}
	})
}

// TestCapIgnoredDropsConnection: behind a server that never sees
// max_batches, a capped stream still delivers exactly its cap and the
// same bytes, then io.EOF — and since the response does not end at the
// cap, its connection is dropped rather than handed back mid-stream.
func TestCapIgnoredDropsConnection(t *testing.T) {
	s, ts := newServer(t, server.Options{Workers: 2, ServeCacheBytes: 32 << 20})
	done := submitDone(t, client.New(ts.URL), reuseSpec)
	stripped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		q.Del("max_batches")
		r.URL.RawQuery = q.Encode()
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(stripped.Close)

	for _, wire := range wire.Wires() {
		t.Run(wire, func(t *testing.T) {
			opts := client.StreamOptions{BatchSize: reuseBatch, MaxBatches: reuseCap, Wire: wire}
			ref, _ := newConnTracker(ts.URL).open(t, done.ID, opts)
			want := readCapped(t, ref)

			ct := newConnTracker(stripped.URL)
			st, _ := ct.open(t, done.ID, opts)
			got := readCapped(t, st)
			for i := range got {
				if got[i].Cursor != want[i].Cursor || got[i].Count() != want[i].Count() {
					t.Fatalf("batch %d: %s/%d records, want %s/%d", i, got[i].Cursor, got[i].Count(), want[i].Cursor, want[i].Count())
				}
			}
			if st.Bytes() != ref.Bytes() {
				t.Fatalf("capped stream counted %d bytes, want %d: it counted bytes past the cap", st.Bytes(), ref.Bytes())
			}
			if _, err := st.Next(); err != io.EOF {
				t.Fatalf("Next after the cap: %v", err)
			}
			next, reused := ct.open(t, done.ID, opts)
			next.Close()
			if reused {
				t.Fatal("the connection of a response read only to the cap was reused")
			}
		})
	}
}

// TestCappedStreamReusesConnectionThroughRelay: capped streams read
// through a non-owner, which relays the owner's response, reuse the
// client's connection to the non-owner too.
func TestCappedStreamReusesConnectionThroughRelay(t *testing.T) {
	dir := t.TempDir()
	var ts [2]*httptest.Server
	nodes := make([]cluster.Node, len(ts))
	for i := range ts {
		ts[i] = httptest.NewUnstartedServer(nil)
		nodes[i] = cluster.Node{ID: []string{"n1", "n2"}[i], URL: "http://" + ts[i].Listener.Addr().String()}
	}
	var cls [2]*cluster.Cluster
	for i := range ts {
		cl, err := cluster.New(cluster.Config{Self: nodes[i].ID, Nodes: nodes, ProbeInterval: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(server.Options{Workers: 2, DataDir: dir, Cluster: cl, ServeCacheBytes: 32 << 20})
		if err != nil {
			t.Fatal(err)
		}
		cls[i] = cl
		ts[i].Config.Handler = s.Handler()
		ts[i].Start()
		t.Cleanup(s.Close)
		t.Cleanup(ts[i].Close)
	}
	done := submitDone(t, client.New(ts[0].URL), reuseSpec)
	relay := 0
	if cls[0].IsLocal(done.ID) {
		relay = 1
	}
	assertCappedReuse(t, ts[relay].URL, done.ID, cursors(t, ts[relay].URL, done.ID))
}
