package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shard"
	"repro/pkg/client"
)

// span is one traced interval at a layer boundary. Spans of one request
// share Ref (the X-Draid-Trace ID for requests, the job ID for jobs);
// children carry only Parent, and store spans carry neither: shard.Store
// calls have no context to say which request made them.
type span struct {
	ID     uint32
	Parent uint32
	Name   string
	Start  int64 // ns since the recorder's epoch
	End    int64
	Ref    string
}

// recorder keeps the traced run's spans and boundary samples in memory
// until the run ends. A nil recorder, or one switched off, records
// nothing, so the untraced run and the traced run's reference window
// pay only a nil/flag check.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Uint32

	mu    sync.Mutex
	spans []span
	// Handler-middleware samples, by route.
	batchesMs    []float64
	firstWriteUs []float64
	submitMs     []float64
	batchesReqs  int64
	timelines    []jobTimeline
	store        storeCounters
}

type storeCounters struct {
	readOps, readBytes, readBusy    int64
	writeOps, writeBytes, writeBusy int64
	errors                          int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// add records a finished span and returns its ID (0 when off).
func (r *recorder) add(name string, parent uint32, start, end time.Time, ref string) uint32 {
	if !r.enabled() {
		return 0
	}
	id := r.next.Add(1)
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), Ref: ref}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// --- (a) handler middleware -------------------------------------------

// firstWriteWriter notes when the handler first writes a body byte. It
// forwards Flush: the server flushes after every batch, and hiding that
// would change the behaviour being measured.
type firstWriteWriter struct {
	http.ResponseWriter
	first time.Time
}

func (w *firstWriteWriter) Write(p []byte) (int, error) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	return w.ResponseWriter.Write(p)
}

func (w *firstWriteWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *firstWriteWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func routeName(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasSuffix(p, "/batches"):
		return "server.batches"
	case req.Method == http.MethodPost && p == "/v1/jobs":
		return "server.submit"
	case p == "/metrics":
		return "server.metrics"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "server.job_status"
	}
	return "server.other"
}

// middleware wraps Server.Handler(): one span per request, a child for
// the time to the first body write, and the handler-latency samples.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.enabled() {
			next.ServeHTTP(w, req)
			return
		}
		name := routeName(req)
		fw := &firstWriteWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(fw, req)
		end := time.Now()
		id := r.add(name, 0, start, end, req.Header.Get(client.TraceHeader))
		if !fw.first.IsZero() {
			r.add("server.to_first_write", id, start, fw.first, "")
		}
		ms := float64(end.Sub(start).Nanoseconds()) / 1e6
		r.mu.Lock()
		switch name {
		case "server.batches":
			r.batchesReqs++
			r.batchesMs = append(r.batchesMs, ms)
			if !fw.first.IsZero() {
				r.firstWriteUs = append(r.firstWriteUs, float64(fw.first.Sub(start).Nanoseconds())/1e3)
			}
		case "server.submit":
			r.submitMs = append(r.submitMs, ms)
		}
		r.mu.Unlock()
	})
}

// --- (b) store wrapper --------------------------------------------------

// tracedStore is the per-job store of the traced run. Embedding
// *shard.FSSink keeps every optional interface the server type-asserts
// (RangeOpener, WriteManifest, LoadManifest, Destroy), so the traced
// run takes the same sidecar-stream and replay paths as the untraced.
type tracedStore struct {
	*shard.FSSink
	rec *recorder
}

var _ shard.RangeOpener = (*tracedStore)(nil)

func (s *tracedStore) count(fn func(c *storeCounters)) {
	if !s.rec.enabled() {
		return
	}
	s.rec.mu.Lock()
	fn(&s.rec.store)
	s.rec.mu.Unlock()
}

func (s *tracedStore) Create(name string) (io.WriteCloser, error) {
	start := time.Now()
	wc, err := s.FSSink.Create(name)
	end := time.Now()
	s.rec.add("shard.create", 0, start, end, "")
	s.count(func(c *storeCounters) {
		c.writeOps++
		c.writeBusy += end.Sub(start).Nanoseconds()
		if err != nil {
			c.errors++
		}
	})
	if err != nil {
		return nil, err
	}
	return &tracedWriter{WriteCloser: wc, s: s}, nil
}

type tracedWriter struct {
	io.WriteCloser
	s *tracedStore
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.WriteCloser.Write(p)
	busy := time.Since(start).Nanoseconds()
	w.s.count(func(c *storeCounters) {
		c.writeBytes += int64(n)
		c.writeBusy += busy
		if err != nil {
			c.errors++
		}
	})
	return n, err
}

// Close is where FSSink fsyncs and renames: the expensive half of a write.
func (w *tracedWriter) Close() error {
	start := time.Now()
	err := w.WriteCloser.Close()
	end := time.Now()
	w.s.rec.add("shard.commit", 0, start, end, "")
	w.s.count(func(c *storeCounters) {
		c.writeBusy += end.Sub(start).Nanoseconds()
		if err != nil {
			c.errors++
		}
	})
	return err
}

func (s *tracedStore) Open(name string) (io.ReadCloser, error) {
	start := time.Now()
	rc, err := s.FSSink.Open(name)
	end := time.Now()
	s.rec.add("shard.open", 0, start, end, "")
	s.count(func(c *storeCounters) {
		c.readOps++
		c.readBusy += end.Sub(start).Nanoseconds()
		if err != nil {
			c.errors++
		}
	})
	if err != nil {
		return nil, err
	}
	return &tracedReader{ReadCloser: rc, s: s}, nil
}

type tracedReader struct {
	io.ReadCloser
	s *tracedStore
}

func (r *tracedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.ReadCloser.Read(p)
	busy := time.Since(start).Nanoseconds()
	r.s.count(func(c *storeCounters) {
		c.readBytes += int64(n)
		c.readBusy += busy
		if err != nil && err != io.EOF {
			c.errors++
		}
	})
	return n, err
}

func (s *tracedStore) OpenRange(name string) (shard.ReaderAtCloser, int64, error) {
	start := time.Now()
	ra, size, err := s.FSSink.OpenRange(name)
	busy := time.Since(start).Nanoseconds()
	s.count(func(c *storeCounters) {
		c.readOps++
		c.readBusy += busy
		if err != nil {
			c.errors++
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return &tracedRange{ReaderAtCloser: ra, s: s, start: start}, size, nil
}

// tracedRange is one open range handle. A cold scan makes several
// ReadAt calls per shard and tens of thousands of shards per window, so
// the handle is one span from OpenRange to Close; the counters still
// see every call.
type tracedRange struct {
	shard.ReaderAtCloser
	s     *tracedStore
	start time.Time
}

func (r *tracedRange) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := r.ReaderAtCloser.ReadAt(p, off)
	busy := time.Since(start).Nanoseconds()
	r.s.count(func(c *storeCounters) {
		c.readBytes += int64(n)
		c.readBusy += busy
		if err != nil && err != io.EOF {
			c.errors++
		}
	})
	return n, err
}

func (r *tracedRange) Close() error {
	err := r.ReaderAtCloser.Close()
	r.s.rec.add("shard.read_range", 0, r.start, time.Now(), "")
	return err
}

// --- write-out ------------------------------------------------------------

// spanSummary is one row of the trace file's per-name table.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is total minus the part of each span its direct children cover.
	SelfMs float64 `json:"self_ms"`
}

// link parents each server request span under the client span that was
// waiting on it: the client.open child of the client.stream root that
// carries the same X-Draid-Trace ID as Ref.
func (r *recorder) link() {
	root := make(map[string]uint32)
	for _, s := range r.spans {
		if s.Name == "client.stream" && s.Ref != "" {
			root[s.Ref] = s.ID
		}
	}
	open := make(map[uint32]uint32, len(root))
	for _, s := range r.spans {
		if s.Name == "client.open" {
			open[s.Parent] = s.ID
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent == 0 && s.Ref != "" && strings.HasPrefix(s.Name, "server.") {
			s.Parent = open[root[s.Ref]]
		}
	}
}

// summarize folds the spans by name. A span's self time is its duration
// minus the part of its own interval that its direct children cover: a
// child that outlives its parent (the handler still streaming after the
// client's open returned) or overlaps a sibling is not counted twice.
func (r *recorder) summarize() []spanSummary {
	type interval struct{ start, end int64 }
	bounds := make(map[uint32]interval, len(r.spans))
	for _, s := range r.spans {
		bounds[s.ID] = interval{s.Start, s.End}
	}
	children := make(map[uint32][]interval)
	for _, s := range r.spans {
		if p, ok := bounds[s.Parent]; ok {
			if c := (interval{max(s.Start, p.start), min(s.End, p.end)}); c.end > c.start {
				children[s.Parent] = append(children[s.Parent], c)
			}
		}
	}
	agg := make(map[string]*spanSummary)
	for _, s := range r.spans {
		a := agg[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			agg[s.Name] = a
		}
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		self, covered := s.End-s.Start, s.Start
		for _, c := range cs {
			if c.end > covered {
				self -= c.end - max(c.start, covered)
				covered = c.end
			}
		}
		a.Count++
		a.TotalMs += float64(s.End-s.Start) / 1e6
		a.SelfMs += float64(self) / 1e6
	}
	out := make([]spanSummary, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeFile writes <workload>.trace.json: a header, the per-name
// summary, then one span per line.
func (r *recorder) writeFile(path string, header map[string]any) (err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.link()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close trace file: %w", cerr)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	hb, err := json.Marshal(header)
	if err != nil {
		return err
	}
	sb, err := json.Marshal(r.summarize())
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "{\"header\":%s,\n\"summary\":%s,\n\"spans\":[\n", hb, sb)
	for i, s := range r.spans {
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_us\":%.1f,\"dur_us\":%.1f", s.ID, s.Parent, s.Name, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3)
		if s.Ref != "" {
			fmt.Fprintf(bw, ",\"ref\":%q", s.Ref)
		}
		bw.WriteByte('}')
	}
	fmt.Fprint(bw, "\n]}\n")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write trace file: %w", err)
	}
	return nil
}
