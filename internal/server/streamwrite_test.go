// Stream write-path tests: a warm stream reaches the socket in large
// writes, nothing a stream has produced waits behind a shard load, and
// an in-band error arrives after every batch produced before it.
package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/shard"
	"repro/internal/wire"
	"repro/pkg/client"
)

// countingListener counts the Write calls on every connection it
// accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestWarmStreamWritesLargePieces: a warm full scan reaches the socket
// in large writes, not one small write per batch piece. A climate job
// and a materials job at the benchmark's specs are scanned once per
// wire to warm the cache, then again at batch_size=32 while the
// server's connection writes are counted; each scan must average at
// least 16 KiB of stream bytes per write.
func TestWarmStreamWritesLargePieces(t *testing.T) {
	s, err := New(Options{Workers: 2, ServeCacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	var writes atomic.Int64
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = countingListener{ts.Listener, &writes}
	ts.Start()
	t.Cleanup(ts.Close)

	const minPerWrite = 16 << 10
	for _, spec := range []JobSpec{
		{Domain: core.Climate, Seed: 1, Months: 600, Lat: 32, Lon: 64},
		{Domain: core.Materials, Seed: 1, Structures: 5000},
	} {
		id, err := SubmitAndWait(ts.URL, spec, 120*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", spec.Domain, err)
		}
		url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=32"
		for _, wireName := range wire.Wires() {
			if _, _, _, _, err := streamConsume(url, "", wireName); err != nil {
				t.Fatalf("%s %s warm-up: %v", spec.Domain, wireName, err)
			}
			before := writes.Load()
			st, err := client.OpenStreamURL(context.Background(), nil, url, "", wireName, -1)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := st.Drain(); err != nil {
				t.Fatalf("%s %s: %v", spec.Domain, wireName, err)
			}
			n := writes.Load() - before
			if n == 0 {
				t.Fatalf("%s %s: no connection writes counted", spec.Domain, wireName)
			}
			per := st.Bytes() / n
			t.Logf("%s %s: %d stream bytes in %d connection writes, %d B each", spec.Domain, wireName, st.Bytes(), n, per)
			if per < minPerWrite {
				t.Fatalf("%s %s: %d stream bytes in %d connection writes (%d B each), want at least %d B each",
					spec.Domain, wireName, st.Bytes(), n, per, minPerWrite)
			}
		}
	}
}

// rawBatch is one batch line or frame of a raw stream body, with its
// cursor; an in-band error has errMsg set instead.
type rawBatch struct {
	b      []byte
	cursor string
	errMsg string
}

// splitBatches cuts a raw stream body into its NDJSON lines or frames.
func splitBatches(t *testing.T, wireName string, body []byte) []rawBatch {
	t.Helper()
	var out []rawBatch
	for len(body) > 0 {
		var rb rawBatch
		if wireName == wire.WireNDJSON {
			end := bytes.IndexByte(body, '\n')
			if end < 0 {
				t.Fatalf("stream ends in a partial line %q", body)
			}
			rb.b = body[:end+1]
			var line struct {
				Cursor string `json:"cursor"`
				Error  string `json:"error"`
			}
			if err := json.Unmarshal(rb.b, &line); err != nil {
				t.Fatalf("line %d: %v", len(out), err)
			}
			rb.cursor, rb.errMsg = line.Cursor, line.Error
		} else {
			ln, sz := binary.Uvarint(body)
			if sz <= 0 || uint64(len(body)-sz) < ln {
				t.Fatalf("stream ends in a partial frame after %d frames", len(out))
			}
			rb.b = body[:sz+int(ln)]
			h, _, _, err := wire.ParseFrameHeader(body[sz : sz+int(ln)])
			var se *wire.StreamError
			switch {
			case errors.As(err, &se):
				rb.errMsg = se.Msg
			case err != nil:
				t.Fatalf("frame %d: %v", len(out), err)
			}
			rb.cursor = h.Cursor
		}
		out = append(out, rb)
		body = body[len(rb.b):]
	}
	return out
}

// jobShards returns a resident job's shard list.
func jobShards(t *testing.T, s *Server, id string) []shard.Info {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		t.Fatalf("%s not in the table", id)
	}
	p, err := j.plan()
	if err != nil {
		t.Fatal(err)
	}
	return p.manifest.Shards
}

// heldStore is an FSSink whose reads of one object wait until release
// is closed; entered is closed once the first of them has begun.
type heldStore struct {
	*shard.FSSink
	name     string
	once     sync.Once
	entered  chan struct{}
	released chan struct{}
}

func (s *heldStore) hold(name string) {
	if name != s.name {
		return
	}
	s.once.Do(func() { close(s.entered) })
	<-s.released
}

func (s *heldStore) Open(name string) (io.ReadCloser, error) {
	s.hold(name)
	return s.FSSink.Open(name)
}

func (s *heldStore) OpenRange(name string) (shard.ReaderAtCloser, int64, error) {
	s.hold(name)
	return s.FSSink.OpenRange(name)
}

// TestNoBatchWaitsBehindMiss: a cold stream sends what it has produced
// before it loads a shard. The read of the third shard's sidecar, which
// both wires fill from, is held; while it is, the client must already
// hold every batch from shards 0 and 1. After the
// release the stream is byte-exact to an unheld one.
func TestNoBatchWaitsBehindMiss(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, []JobSpec{{Domain: core.Fusion, Seed: 7, Shots: 16}})[0]
	const path = "/batches?batch_size=1"
	// The references come from an unheld server, closed before a held
	// one opens the same data dir.
	refSrv, err := New(Options{Workers: 1, DataDir: dataDir, ServeCacheBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(refSrv.Handler())
	shards := jobShards(t, refSrv, id)
	refs := map[string][]byte{}
	for _, wireName := range wire.Wires() {
		refs[wireName] = rawStream(t, refTS.URL+"/v1/jobs/"+id+path, wireName)
	}
	refTS.Close()
	refSrv.Close()
	if len(shards) < 4 {
		t.Fatalf("job has %d shards; the test needs at least 4", len(shards))
	}
	for _, wireName := range wire.Wires() {
		t.Run(wireName, func(t *testing.T) {
			ref := refs[wireName]
			// Shards 0-1 end with the batch of shard 1's last record, whose
			// cursor is "2:0".
			prefix, found := 0, false
			for _, b := range splitBatches(t, wireName, ref) {
				prefix += len(b.b)
				if found = b.cursor == "2:0"; found {
					break
				}
			}
			if !found {
				t.Fatal(`reference stream has no batch with cursor "2:0"`)
			}
			wantPrefix := ref[:prefix]

			held := &heldStore{name: domain.SidecarName(shards[2].Name), entered: make(chan struct{}), released: make(chan struct{})}
			released := false
			release := func() {
				if !released {
					released = true
					close(held.released)
				}
			}
			defer release()
			_, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir, ServeCacheBytes: 0,
				NewStore: func(jobID string) (shard.Store, error) {
					fs, err := shard.NewFSSink(filepath.Join(dataDir, "jobs", jobID))
					if err != nil {
						return nil, err
					}
					held.FSSink = fs
					return held, nil
				}})
			resp := openRaw(t, ts.URL+"/v1/jobs/"+id+path, wireName)
			defer resp.Body.Close()
			// The reader signals reached once it holds shards 0-1's bytes.
			var mu sync.Mutex
			var got []byte
			reached := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				buf := make([]byte, 32<<10)
				signalled := false
				for {
					n, err := resp.Body.Read(buf)
					mu.Lock()
					got = append(got, buf[:n]...)
					have := len(got)
					mu.Unlock()
					if !signalled && have >= len(wantPrefix) {
						signalled = true
						close(reached)
					}
					if err != nil {
						done <- err
						return
					}
				}
			}()
			received := func() []byte {
				mu.Lock()
				defer mu.Unlock()
				return append([]byte(nil), got...)
			}
			select {
			case <-held.entered:
			case <-time.After(30 * time.Second):
				t.Fatal("stream never read the third shard")
			}
			select {
			case <-reached:
			case <-time.After(10 * time.Second):
				t.Fatalf("while shard 2 is held the client has %d bytes; shards 0-1 are %d bytes", len(received()), len(wantPrefix))
			}
			if r := received(); !bytes.Equal(r, wantPrefix) {
				t.Fatalf("while shard 2 is held the client has %d bytes, not shards 0-1's %d bytes", len(r), len(wantPrefix))
			}
			release()
			if err := <-done; err != io.EOF {
				t.Fatalf("stream read: %v", err)
			}
			if r := received(); !bytes.Equal(r, ref) {
				t.Fatalf("stream differs from the reference (%d vs %d bytes)", len(r), len(ref))
			}
		})
	}
}

// TestServeErrorAfterBufferedBatches: when a shard cannot be read
// mid-stream, on either wire, every batch before it arrives complete,
// byte-exact and in cursor order, and the in-band error is the last
// line or frame.
func TestServeErrorAfterBufferedBatches(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, []JobSpec{{Domain: core.Climate, Seed: 2, Months: 24, Lat: 16, Lon: 32}})[0]
	s, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir, ServeCacheBytes: 0})
	shards := jobShards(t, s, id)
	if len(shards) < 2 {
		t.Fatalf("job has %d shards; the test needs at least 2 to fail mid-stream", len(shards))
	}
	url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=4"
	refs := map[string][]byte{}
	for _, wireName := range wire.Wires() {
		refs[wireName] = rawStream(t, url, wireName)
	}
	// Remove the last shard and its sidecar: both wires stream fine up
	// to it, then fail to read it.
	victim := len(shards) - 1
	for _, name := range []string{shards[victim].Name, domain.SidecarName(shards[victim].Name)} {
		if err := os.Remove(filepath.Join(dataDir, "jobs", id, name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, wireName := range wire.Wires() {
		// The batches that precede the victim: every one whose cursor is
		// at most victim:0.
		var want []rawBatch
		for _, b := range splitBatches(t, wireName, refs[wireName]) {
			c, err := ParseCursor(b.cursor)
			if err != nil {
				t.Fatal(err)
			}
			if c.Shard < victim || c == (Cursor{Shard: victim}) {
				want = append(want, b)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: no batch precedes the victim shard", wireName)
		}
		got := splitBatches(t, wireName, rawStream(t, url, wireName))
		if len(got) != len(want)+1 {
			t.Fatalf("%s: %d batches and lines, want %d batches then the error", wireName, len(got), len(want))
		}
		for i, b := range want {
			if !bytes.Equal(got[i].b, b.b) {
				t.Fatalf("%s: batch %d (cursor %q) differs from the reference's (cursor %q)", wireName, i, got[i].cursor, b.cursor)
			}
		}
		if last := got[len(got)-1]; last.errMsg == "" {
			t.Fatalf("%s: the stream ends in a batch (cursor %q), not an in-band error", wireName, last.cursor)
		}
	}
}
