// SDK acceptance tests: typed job lifecycle, wire negotiation with
// NDJSON fallback, cross-format payload equality, and transparent
// cursor resume when connections are cut mid-stream (in both formats).
package client_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/loader"
	"repro/internal/server"
	"repro/pkg/client"
)

func newServer(t *testing.T, opts server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

func submitDone(t *testing.T, c *client.Client, spec client.JobSpec) *client.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitDone(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

func drainAll(t *testing.T, st *client.Stream) []client.BatchWire {
	t.Helper()
	var out []client.BatchWire
	for {
		b, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, *b)
	}
}

func TestClientEndToEnd(t *testing.T) {
	_, ts := newServer(t, server.Options{Workers: 2, ServeCacheBytes: 32 << 20})
	c := client.New(ts.URL)
	ctx := context.Background()

	// Discovery: templates advertise kind + wires.
	tpls, err := c.Templates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tpls) != len(core.Domains()) {
		t.Fatalf("%d templates", len(tpls))
	}
	for _, tpl := range tpls {
		if tpl.Kind == "" || !tpl.Servable {
			t.Fatalf("template %+v not discoverable", tpl)
		}
		if !slices.Equal(tpl.Wires, []string{"ndjson", "frame"}) {
			t.Fatalf("template %s wires %v", tpl.Domain, tpl.Wires)
		}
	}

	done := submitDone(t, c, client.JobSpec{Domain: core.Climate, Seed: 4, Months: 24, Lat: 16, Lon: 32})
	if done.State != client.JobDone || !done.Servable || done.Kind != "samples" {
		t.Fatalf("job %+v", done)
	}
	if !slices.Equal(done.Wires, []string{"ndjson", "frame"}) {
		t.Fatalf("job wires %v", done.Wires)
	}
	if len(done.Trajectory) == 0 {
		t.Fatal("no readiness trajectory over the SDK")
	}

	// Auto negotiation lands on frames against this server...
	auto, err := c.StreamBatches(ctx, done.ID, client.StreamOptions{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Wire() != client.WireFrame {
		t.Fatalf("auto stream negotiated %q", auto.Wire())
	}
	frames := drainAll(t, auto)

	// ...and a pinned-NDJSON stream serves the same records with the
	// same cursors.
	nd, err := c.StreamBatches(ctx, done.ID, client.StreamOptions{BatchSize: 4, Wire: client.WireNDJSON})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Wire() != client.WireNDJSON {
		t.Fatalf("ndjson stream negotiated %q", nd.Wire())
	}
	lines := drainAll(t, nd)
	if len(frames) == 0 || len(frames) != len(lines) {
		t.Fatalf("%d frame batches vs %d ndjson batches", len(frames), len(lines))
	}
	for i := range frames {
		fb, _ := json.Marshal(frames[i])
		lb, _ := json.Marshal(lines[i])
		if string(fb) != string(lb) {
			t.Fatalf("batch %d differs across wires:\n frame  %s\n ndjson %s", i, fb, lb)
		}
	}

	// Cursor restart: a fresh stream from a mid-stream cursor serves
	// exactly the suffix, in frames too.
	mid := len(frames) / 2
	rest, err := c.StreamBatches(ctx, done.ID, client.StreamOptions{BatchSize: 4, Cursor: frames[mid].Cursor})
	if err != nil {
		t.Fatal(err)
	}
	suffix := drainAll(t, rest)
	if len(suffix) != len(frames)-mid-1 {
		t.Fatalf("resumed %d batches, want %d", len(suffix), len(frames)-mid-1)
	}
	for i, b := range suffix {
		if b.Cursor != frames[mid+1+i].Cursor {
			t.Fatalf("resume cursor %d: %s vs %s", i, b.Cursor, frames[mid+1+i].Cursor)
		}
	}

	// Pinned frames against a job that exists works end to end; a bad
	// job 404s through the typed error path.
	if _, err := c.Job(ctx, "job-999999"); err == nil {
		t.Fatal("missing job did not error")
	}
}

// chokeHandler aborts every /batches connection after limit bytes —
// mid-line and mid-frame cuts included — simulating flaky transport.
func chokeHandler(next http.Handler, limit int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/templates" || r.URL.Path == "/v1/jobs" || r.Method != http.MethodGet {
			next.ServeHTTP(w, r)
			return
		}
		next.ServeHTTP(&chokeWriter{ResponseWriter: w, limit: limit}, r)
	})
}

type chokeWriter struct {
	http.ResponseWriter
	n, limit int
}

func (c *chokeWriter) Write(p []byte) (int, error) {
	if c.n+len(p) > c.limit {
		if part := c.limit - c.n; part > 0 {
			_, _ = c.ResponseWriter.Write(p[:part])
		}
		if f, ok := c.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // cut the connection without a clean end
	}
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

func (c *chokeWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// queryLog records the query of every /batches request a handler sees.
type queryLog struct {
	mu      sync.Mutex
	queries []url.Values
}

func (l *queryLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/batches") {
			l.mu.Lock()
			l.queries = append(l.queries, r.URL.Query())
			l.mu.Unlock()
		}
		next.ServeHTTP(w, r)
	})
}

// take returns the queries recorded so far and forgets them.
func (l *queryLog) take() []url.Values {
	l.mu.Lock()
	defer l.mu.Unlock()
	q := l.queries
	l.queries = nil
	return q
}

// TestStreamResumeOnDisconnect: with every batch connection cut after
// a few KiB, Stream.Next reconnects from the last cursor and delivers
// the exact clean-run record sequence with contiguous batch numbering
// — in both wire formats. A capped stream asks every connection for the
// cap that remains, whether the cap came in StreamOptions or in the
// URL given to OpenStreamURL.
func TestStreamResumeOnDisconnect(t *testing.T) {
	s, err := server.New(server.Options{Workers: 2, ServeCacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	clean := httptest.NewServer(s.Handler())
	t.Cleanup(clean.Close)
	var log queryLog
	choked := httptest.NewServer(log.wrap(chokeHandler(s.Handler(), 4<<10)))
	t.Cleanup(choked.Close)

	done := submitDone(t, client.New(clean.URL), client.JobSpec{Domain: core.Climate, Seed: 4, Months: 24, Lat: 16, Lon: 32})

	for _, wire := range domain.Wires() {
		t.Run(wire, func(t *testing.T) {
			ctx := context.Background()
			ref, err := client.New(clean.URL).StreamBatches(ctx, done.ID, client.StreamOptions{BatchSize: 1, Wire: wire})
			if err != nil {
				t.Fatal(err)
			}
			want := drainAll(t, ref)
			if len(want) < 8 {
				t.Fatalf("reference stream too small (%d batches)", len(want))
			}

			st, err := client.New(choked.URL).StreamBatches(ctx, done.ID,
				client.StreamOptions{BatchSize: 1, Wire: wire, MaxResumes: 10000})
			if err != nil {
				t.Fatal(err)
			}
			got := drainAll(t, st)
			if len(got) != len(want) {
				t.Fatalf("choked stream delivered %d batches, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i].Batch != i {
					t.Fatalf("batch numbering not contiguous after resume: %d at %d", got[i].Batch, i)
				}
				gb, _ := json.Marshal(got[i])
				wb, _ := json.Marshal(want[i])
				if string(gb) != string(wb) {
					t.Fatalf("batch %d differs after resumes:\n got  %s\n want %s", i, gb, wb)
				}
			}

			// MaxBatches is a total across resumes, not per connection:
			// each connection asks for the cap less what the stream has
			// delivered, and the stream stops at the cap.
			cap := len(want) - 2
			delivered := map[string]int{"": 0} // cursor -> batches delivered before it
			for i, b := range want {
				delivered[b.Cursor] = i + 1
			}
			checkCapped := func(how string, st *client.Stream) {
				t.Helper()
				if got := drainAll(t, st); len(got) != cap {
					t.Fatalf("%s: cap %d delivered %d batches across resumes", how, cap, len(got))
				}
				queries := log.take()
				if len(queries) < 2 {
					t.Fatalf("%s: %d connections; the choke should force resumes", how, len(queries))
				}
				for i, q := range queries {
					d, ok := delivered[q.Get("cursor")]
					if !ok {
						t.Fatalf("%s: connection %d resumed at unknown cursor %q", how, i, q.Get("cursor"))
					}
					if mb := q["max_batches"]; len(mb) != 1 || mb[0] != strconv.Itoa(cap-d) {
						t.Fatalf("%s: connection %d, after %d batches, asked for max_batches=%v, want %d", how, i, d, mb, cap-d)
					}
				}
			}
			log.take()
			capped, err := client.New(choked.URL).StreamBatches(ctx, done.ID,
				client.StreamOptions{BatchSize: 1, Wire: wire, MaxBatches: cap, MaxResumes: 10000})
			if err != nil {
				t.Fatal(err)
			}
			checkCapped("StreamBatches", capped)

			u := fmt.Sprintf("%s/v1/jobs/%s/batches?batch_size=1&max_batches=%d", choked.URL, done.ID, cap)
			capped, err = client.OpenStreamURL(ctx, nil, u, "", wire, 10000)
			if err != nil {
				t.Fatal(err)
			}
			checkCapped("OpenStreamURL", capped)
		})
	}
}

// TestStreamCorruptFrameIsTerminal: a fully received but unparsable
// frame must surface immediately — resuming replays the same bytes,
// so retrying would hammer the server MaxResumes times for nothing.
// That holds for a length prefix that overflows 64 bits too.
func TestStreamCorruptFrameIsTerminal(t *testing.T) {
	for name, body := range map[string][]byte{
		// A complete frame claiming an unknown kind: length 10, kind
		// "garbage!" — parses as a frame, fails kind resolution.
		"unknown kind":    append([]byte{10, 8}, []byte("garbage!\x00\x00")...),
		"prefix overflow": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		t.Run(name, func(t *testing.T) {
			var requests atomic.Int64
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/jobs/{id}/batches", func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				w.Header().Set(domain.HeaderWire, domain.WireFrame)
				w.Header().Set("Content-Type", domain.ContentTypeFrame)
				_, _ = w.Write(body)
			})
			ts := httptest.NewServer(mux)
			t.Cleanup(ts.Close)

			st, err := client.New(ts.URL).StreamBatches(context.Background(), "job-000001",
				client.StreamOptions{Wire: client.WireFrame, MaxResumes: 1000})
			if err != nil {
				t.Fatal(err)
			}
			_, err = st.Next()
			var cf *client.CorruptFrameError
			if !errors.As(err, &cf) {
				t.Fatalf("corrupt frame surfaced as %v", err)
			}
			if n := requests.Load(); n != 1 {
				t.Fatalf("corrupt frame was retried: %d requests", n)
			}
		})
	}
}

// TestFrameBatchesBelongToCaller: a batch Next returned is not touched
// by later reads (records must not alias the reader's reused body
// buffer), and its records are clipped, so appending to one cannot
// overwrite the next.
func TestFrameBatchesBelongToCaller(t *testing.T) {
	codec, _ := domain.CodecByKind(domain.KindSamples)
	var stream []byte
	for i, feats := range [][2][]float32{{{1, 2, 3}, {4, 5, 6}}, {{-1, -2, -3}, {-4, -5, -6}}} {
		h := domain.BatchHeader{Batch: i, Cursor: fmt.Sprintf("0:%d", 2*i+2), Kind: domain.KindSamples}
		frame, err := domain.EncodeFrame(codec, h, []any{
			&loader.Sample{Features: feats[0], Label: 1},
			&loader.Sample{Features: feats[1], Label: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/batches", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(domain.HeaderWire, domain.WireFrame)
		_, _ = w.Write(stream)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	st, err := client.New(ts.URL).StreamBatches(context.Background(), "job-000001",
		client.StreamOptions{Wire: client.WireFrame})
	if err != nil {
		t.Fatal(err)
	}
	first, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float32{{1, 2, 3}, {4, 5, 6}}
	if !reflect.DeepEqual(first.Features, want) {
		t.Fatalf("first batch %v, want %v", first.Features, want)
	}
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Features, want) {
		t.Fatalf("reading the second batch changed the first: %v", first.Features)
	}
	_ = append(first.Features[0], 99)
	if !reflect.DeepEqual(first.Features[1], want[1]) {
		t.Fatalf("appending to record 0 overwrote record 1: %v", first.Features[1])
	}
}

// TestStreamServerErrorIsTerminal: an in-band server error must not be
// retried — the resume loop would hammer the same failure forever.
func TestStreamServerErrorIsTerminal(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/batches", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(domain.HeaderWire, domain.WireNDJSON)
		w.Header().Set("Content-Type", domain.ContentTypeNDJSON)
		_, _ = w.Write([]byte(`{"error":"shard vanished"}` + "\n"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	st, err := client.New(ts.URL).StreamBatches(context.Background(), "job-000001",
		client.StreamOptions{MaxResumes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Next()
	if err == nil || err == io.EOF {
		t.Fatalf("server error line not surfaced: %v", err)
	}
	var se *domain.StreamError
	if !errors.As(err, &se) || se.Msg != "shard vanished" {
		t.Fatalf("error %v not a StreamError", err)
	}
}

// ndjsonServer serves /batches from handler as an NDJSON stream and
// counts the requests it gets.
func ndjsonServer(t *testing.T, handler func(w http.ResponseWriter, r *http.Request)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var requests atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/batches", func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.Header().Set(domain.HeaderWire, domain.WireNDJSON)
		w.Header().Set("Content-Type", domain.ContentTypeNDJSON)
		handler(w, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &requests
}

func sampleLine(batch int, cursor string) string {
	return fmt.Sprintf(`{"batch":%d,"cursor":%q,"kind":"samples","features":[[0.5,1]],"labels":[1]}`+"\n", batch, cursor)
}

// TestStreamMalformedLineIsTerminal: a complete NDJSON line that does
// not decode surfaces at once — resuming would replay the same bytes —
// while the good line before it is delivered.
func TestStreamMalformedLineIsTerminal(t *testing.T) {
	ts, requests := ndjsonServer(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, sampleLine(0, "0:1")+`{"batch":1,"cursor":"0:2",garbage}`+"\n")
	})
	st, err := client.New(ts.URL).StreamBatches(context.Background(), "job-000001",
		client.StreamOptions{Wire: client.WireNDJSON, MaxResumes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatalf("good line: %v", err)
	}
	if _, err := st.Next(); err == nil || err == io.EOF {
		t.Fatalf("garbage line surfaced as %v", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("malformed line was retried: %d requests", n)
	}
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("stream after a terminal error: %v", err)
	}
}

// TestStreamTruncatedLineResumes: a final line cut mid-write (no
// newline before EOF) is a cut connection, not a bad batch: the stream
// resumes from the last cursor and completes.
func TestStreamTruncatedLineResumes(t *testing.T) {
	ts, requests := ndjsonServer(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("cursor") {
		case "":
			next := sampleLine(1, "0:2")
			_, _ = io.WriteString(w, sampleLine(0, "0:1")+next[:len(next)/2])
		case "0:1":
			_, _ = io.WriteString(w, sampleLine(0, "0:2"))
		default:
			http.Error(w, "unexpected cursor", http.StatusBadRequest)
		}
	})
	st, err := client.New(ts.URL).StreamBatches(context.Background(), "job-000001",
		client.StreamOptions{Wire: client.WireNDJSON})
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, st)
	if len(got) != 2 || got[0].Cursor != "0:1" || got[1].Cursor != "0:2" || got[1].Batch != 1 {
		t.Fatalf("resumed stream delivered %+v", got)
	}
	if n := requests.Load(); n != 2 {
		t.Fatalf("%d requests, want the first and one resume", n)
	}
}

// TestStreamLineLargerThanInitialBuffer: the line scanner grows past
// its small starting buffer; a multi-MiB line still decodes.
func TestStreamLineLargerThanInitialBuffer(t *testing.T) {
	const n = 300_000 // ~2.4 MiB of features
	features := strings.TrimSuffix(strings.Repeat("0.123456,", n), ",")
	line := `{"batch":0,"cursor":"0:1","kind":"samples","features":[[` + features + `]],"labels":[1]}` + "\n"
	ts, _ := ndjsonServer(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, line)
	})
	st, err := client.New(ts.URL).StreamBatches(context.Background(), "job-000001",
		client.StreamOptions{Wire: client.WireNDJSON})
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, st)
	if len(got) != 1 || len(got[0].Features[0]) != n || got[0].Features[0][n-1] != 0.123456 {
		t.Fatalf("large line decoded wrong: %d batches", len(got))
	}
	if st.Bytes() != int64(len(line)) {
		t.Fatalf("stream counted %d wire bytes, line is %d", st.Bytes(), len(line))
	}
}

// TestStreamOverlongLineIsTerminal: a line longer than the SDK's 64 MiB
// cap fails at once — a resume would download the same line again.
func TestStreamOverlongLineIsTerminal(t *testing.T) {
	pad := bytes.Repeat([]byte{' '}, 1<<20)
	ts, requests := ndjsonServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("cursor") == "" {
			_, _ = io.WriteString(w, sampleLine(0, "0:1"))
		}
		_, _ = io.WriteString(w, `{"batch":1,"cursor":"0:2",`)
		for i := 0; i <= 64; i++ {
			if _, err := w.Write(pad); err != nil {
				return // the client hung up at the cap
			}
		}
		_, _ = io.WriteString(w, `"kind":"samples","features":[[1]],"labels":[1]}`+"\n")
	})
	st, err := client.New(ts.URL).StreamBatches(context.Background(), "job-000001",
		client.StreamOptions{Wire: client.WireNDJSON, MaxResumes: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if _, err := st.Next(); err != nil {
		t.Fatalf("good line: %v", err)
	}
	if _, err := st.Next(); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("overlong line surfaced as %v", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("overlong line was retried: %d requests", n)
	}
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("stream after a terminal error: %v", err)
	}
}
