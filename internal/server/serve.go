// Batch serving: GET /v1/jobs/{id}/batches hands a completed job's
// shard set to the trainer — the paper's last Data Processing Stage.
// Each stream resolves its job once into a servePlan, then runs one
// batch loop for both wires; the only per-wire code (batchWire) is how
// a shard resolves to a source and how one buffered batch is written.
//
// Every shard read of either wire goes through the serving cache
// (cache.go), which holds the shard encoded for that wire, and every
// miss of either wire fills from one source, loadFrames: the shard's
// sidecar — the only thing a job stores for it — read whole, with one
// open and one exact-size read, and verified by domain.ParseSidecar. A
// sidecar that is missing, unreadable, torn, truncated or bit-flipped
// fails the fill: it is counted and logged, the stream ends with an
// in-band error after the batches before it, and the file is left as
// it is. Corrupt bytes are never served.
//
// A frame miss caches the verified image itself (zero codec calls). An
// NDJSON miss decodes it with the wire decoder into columns and writes
// per-record JSON fragments from them (domain.Sidecar.Lines, zero codec
// calls too); every batch line is then a header plus slices of the
// fragments, byte-identical to encoding the batch with encoding/json.
//
// A stream writes its batches into one pooled 128 KiB buffer, not
// straight to the ResponseWriter, and what is buffered reaches the
// socket in four cases only: after the stream's first batch, so time to
// first batch does not wait for a second; whenever the buffer fills;
// before the stream waits on anything — a shard load, its own or
// another stream's, or a pacing sleep; and at the end. A warm stream so
// goes out in writes of tens of KiB rather than in net/http's 4 KiB
// pieces, and no byte the server has produced sits in the buffer behind
// I/O or a timer. An in-band error goes through the same buffer, after
// every batch produced before it.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/domain"
	"repro/internal/ledger"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// streamBufSize is each batch stream's write buffer: batches are
// written into it and reach the socket in pieces up to this large. It
// holds a whole warm batch of the largest records (a climate batch of
// 32 is about 65 KB), so a first batch leaves as one piece; 32 and
// 64 KiB measured slower on the warm_scan benchmark.
const streamBufSize = 128 << 10

// streamBufs pools the stream write buffers. One goes back Reset(nil),
// holding no ResponseWriter.
var streamBufs = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, streamBufSize) }}

// servePlan is what one batch stream reads from its job, resolved once
// when the stream is accepted: the shard set, how to read it, and the
// domain plugin whose wire kind it serves.
type servePlan struct {
	job      *Job
	dom      string
	manifest *shard.Manifest
	store    jobStore     // raw storage: range reads of plaintext sidecars
	open     shard.Opener // whole-object reads (decrypting for sealed jobs)
	key      []byte       // per-job shard secret; nil for plaintext shard sets
	plug     domain.Plugin
}

// plan resolves the job for one stream, or says why it cannot stream
// yet.
func (j *Job) plan() (*servePlan, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == JobQueued || j.state == JobRunning:
		return nil, fmt.Errorf("job %s is %s; batches are served once it is done", j.id, j.state)
	case j.state == JobFailed:
		return nil, fmt.Errorf("job %s failed: %s", j.id, j.err)
	case !j.servable || j.manifest == nil:
		return nil, fmt.Errorf("job %s (%s) has no servable shard set", j.id, j.spec.Domain)
	}
	plug, err := domain.Lookup(j.spec.Domain)
	if err != nil {
		return nil, err
	}
	return &servePlan{
		job: j, dom: string(j.spec.Domain), manifest: j.manifest,
		store: j.store, open: plug.Opener(j.store, j.key), key: j.key, plug: plug,
	}, nil
}

func (s *Server) handleBatches(w http.ResponseWriter, r *http.Request) {
	if s.routedElsewhere(w, r, r.PathValue("id")) {
		return
	}
	// Time-to-first-batch starts once the request is ours to serve —
	// proxy hops are accounted on the node actually streaming.
	streamStart := time.Now()
	job := s.job(w, r)
	if job == nil {
		return
	}
	plan, err := job.plan()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	// A max_batches or max_kbps of 0 means unlimited; a negative one is a
	// malformed request, not a synonym for it.
	batchSize, err := queryCount(r, "batch_size", 32, 1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	maxBatches, err := queryCount(r, "max_batches", 0, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	maxKBps, err := queryCount(r, "max_kbps", 0, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Rates beyond ~1 TiB/s are indistinguishable from unpaced and
	// would overflow the bytes/sec conversion below — treat them as no
	// request. Applies to the operator's ceiling too.
	const maxPaceKBps = 1 << 30
	if maxKBps > maxPaceKBps {
		maxKBps = 0
	}
	// The client may pace itself below the server-wide ceiling, never
	// above it.
	if lim := s.opts.ServeMaxKBps; lim > 0 && lim <= maxPaceKBps && (maxKBps <= 0 || maxKBps > lim) {
		maxKBps = lim
	}
	start := Cursor{}
	if cs := r.URL.Query().Get("cursor"); cs != "" {
		start, err = ParseCursor(cs)
		if err == nil {
			err = start.validate(plan.manifest)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	job.touch()
	ident := tenant.FromContext(r.Context())
	// Audit before serve: a stream open whose record cannot commit is
	// refused before any header, never served unaudited.
	if err := s.audit(r.Context(), ledger.TypeStream, ident.ID, job.id, "cursor="+start.String()+" batch_size="+strconv.Itoa(batchSize), nil); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}

	// Content negotiation: NDJSON unless the client's Accept asks for
	// the binary frame format. X-Draid-Wire names the format actually
	// chosen, so clients need not re-parse the content type.
	ctx := r.Context()
	wireName, contentType := wire.WireNDJSON, wire.ContentTypeNDJSON
	var enc batchWire = &ndjsonWire{s: s, ctx: ctx, plan: plan}
	if acceptsFrames(r) {
		wireName, contentType = wire.WireFrame, wire.ContentTypeFrame
		enc = &frameWire{s: s, ctx: ctx, plan: plan}
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set(wire.HeaderWire, wireName)
	w.Header().Set("X-Draid-Cursor", start.String())
	cw := &countingResponseWriter{w: w}
	bw := streamBufs.Get().(*bufio.Writer)
	bw.Reset(cw)
	defer func() {
		bw.Reset(nil)
		streamBufs.Put(bw)
	}()
	flusher, _ := w.(http.Flusher)
	// produced counts every byte the stream has written: what reached
	// the ResponseWriter plus what is still buffered.
	produced := func() int64 { return cw.n + int64(bw.Buffered()) }
	// send puts everything buffered on the socket. A stream does so after
	// its first batch, before it waits on anything — a shard load, another
	// stream's load of the same shard, a pacing sleep — and at the end;
	// in between, the buffer goes out each time it fills. A stream that
	// has produced nothing sends nothing, so its headers still leave with
	// its first batch. bw's error is sticky: after a failed send, the
	// next batch write fails too and halts the stream.
	send := func() error {
		if produced() == 0 {
			return nil
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	// Pacing: with a global fair-share budget the rate is the stream's
	// live share, capped by any per-stream ?max_kbps= / server ceiling
	// resolved above; without one, the per-stream cap alone paces.
	var rate func() float64
	capBytes := float64(int64(maxKBps) << 10)
	if s.fair != nil {
		weight := 1
		if s.tenants != nil {
			if t, ok := s.tenants.Get(ident.ID); ok {
				weight = t.EffectiveWeight()
			}
		}
		share, release := s.fair.acquire(ident.ID, weight)
		defer release()
		rate = func() float64 {
			if r := share(); capBytes <= 0 || r < capBytes {
				return r
			}
			return capBytes
		}
	} else if maxKBps > 0 {
		rate = func() float64 { return capBytes }
	}
	var pace *pacer
	if rate != nil {
		pace = newPacer(rate)
	}
	// Histogram children resolved once per stream, not per batch.
	firstBatchH := s.metrics.firstBatch.With(plan.dom, wireName)
	encodeH := s.metrics.batchEncode.With(plan.dom, wireName)
	trace := telemetry.TraceFrom(ctx)
	kind := plan.plug.Codec.Kind()

	// emitError reports a mid-stream failure in-band, in the stream's
	// own format, after every batch already buffered — and fails the
	// request's root span so the trace is tail-sampled as notable.
	emitError := func(err error) {
		s.metrics.serveErrors.Inc()
		telemetry.SpanFromContext(ctx).SetError(err.Error())
		_, _ = bw.Write(enc.errorBytes(err))
	}
	// miss runs before the stream waits on a shard load, its own or
	// another stream's.
	miss := func() { _ = send() }

	served := 0
	halted := false         // a shard read or a write failed: nothing more goes out
	pos := start            // position after the last record buffered for emission
	var ranges []batchRange // the next batch: one record range per shard it spans
	count := 0              // records in ranges

	// emitBatch first pays the pacer what the previous batch owes, then
	// writes the pending batch into the stream buffer, sends it if it is
	// the stream's first, and does the per-batch bookkeeping: latency,
	// counters, and the bytes it produced, which it owes — so both wires
	// are throttled alike, and a stream's last batch is never paced: a
	// stream that has sent everything ends at once instead of holding
	// its handler, buffer and fair share through a sleep.
	var owed int64
	emitBatch := func() error {
		defer func() { ranges, count = ranges[:0], 0 }()
		if pace != nil {
			stallStart := time.Now()
			err := pace.pace(ctx, owed, send)
			// A pace call that actually slept becomes a span — token-bucket
			// bookkeeping that never blocked is not a stall.
			if d := time.Since(stallStart); d >= time.Millisecond {
				s.recordChildSpan(ctx, "pace.stall", stallStart, stallStart.Add(d), nil)
			}
			if err != nil {
				return err
			}
		}
		h := wire.BatchHeader{Batch: served, Cursor: pos.String(), Kind: kind}
		before := produced()
		// Encode and write are timed apart: the encode histogram is
		// codec cost only, so a slow client (or the pacer) cannot
		// masquerade as an expensive codec.
		encStart := time.Now()
		head, err := enc.encode(h, count, ranges)
		if err != nil {
			// Encode failure with a healthy connection: nothing was
			// written yet, so the client can still be told — same
			// contract as the shard-read failure path. (Write/pace
			// errors below get nothing; that connection is dead.)
			emitError(err)
			return err
		}
		encDone := time.Now()
		encodeH.Observe(encDone.Sub(encStart).Seconds())
		s.recordChildSpan(ctx, "batch.encode", encStart, encDone, nil)
		if _, err := bw.Write(head); err != nil {
			return err
		}
		if err := enc.writePayload(bw, ranges); err != nil {
			return err
		}
		if served == 0 {
			// The first batch goes out at once: buffering must not move
			// time to first batch, which is observed once it is sent.
			if err := send(); err != nil {
				return err
			}
			firstBatchH.ObserveWithExemplar(time.Since(streamStart).Seconds(), trace)
		}
		served++
		s.metrics.batchesServed.Inc()
		s.metrics.samplesServed.Add(float64(count))
		owed = produced() - before
		return nil
	}

shards:
	for si := start.Shard; si < len(plan.manifest.Shards); si++ {
		src, n, err := enc.source(plan.manifest.Shards[si], miss)
		if err != nil {
			// Headers are gone; the in-band error is the only channel
			// left — but the counter makes the failure observable
			// beyond whoever held this one connection.
			emitError(err)
			halted = true
			break
		}
		j := 0
		if si == start.Shard {
			j = min(start.Record, n)
		}
		for j < n {
			// Batches may span shards; a batch's records from one shard
			// are one contiguous range.
			take := min(n-j, batchSize-count)
			ranges = append(ranges, batchRange{src: src, a: j, b: j + take})
			count += take
			j += take
			pos = advanceCursor(plan.manifest, si, j-1)
			if count == batchSize {
				if err := emitBatch(); err != nil {
					// The batch was already written (or the writer is
					// gone): do NOT fall through to the tail emit, which
					// would duplicate it onto a half-dead connection.
					halted = true
					break shards
				}
				if maxBatches > 0 && served >= maxBatches {
					break shards
				}
			}
		}
	}
	if !halted && count > 0 {
		_ = emitBatch()
	}
	_ = send() // the stream is over: a failed send leaves nothing to stop
	if pace != nil && pace.throttled {
		s.metrics.serveThrottled.Inc()
	}
	s.metrics.bytesServed.Add(float64(cw.n))
	s.metrics.observeStage("serve:batches", 0, 1, cw.n)
}

// batchWire is what differs between the two wire formats: how a shard
// resolves to a source, and how one buffered batch is written — a head
// built from the batch's header and ranges (the NDJSON line's header
// fields, or the frame envelope), then the payload copied straight from
// the sources.
type batchWire interface {
	source(info shard.Info, miss func()) (src shardSource, n int, err error)
	encode(h wire.BatchHeader, count int, rs []batchRange) ([]byte, error)
	writePayload(w io.Writer, rs []batchRange) error
	errorBytes(err error) []byte
}

// shardSource is one shard resolved for serving: its NDJSON line
// fragments or its verified frame-ready sidecar image.
type shardSource struct {
	lines  *domain.LineFragments
	frames *domain.Sidecar
}

// batchRange is the records [a, b) of one shard's source, buffered for
// the next batch.
type batchRange struct {
	src  shardSource
	a, b int
}

// ndjsonWire writes each batch as one JSON line: the header fields,
// then each column's elements sliced out of the sources' cached
// fragments — so the encode histogram is header-assembly time.
type ndjsonWire struct {
	s     *Server
	ctx   context.Context
	plan  *servePlan
	head  []byte             // reused across batches
	parts []domain.LineRange // reused across batches
}

func (w *ndjsonWire) source(info shard.Info, miss func()) (shardSource, int, error) {
	v, err := w.s.fill(w.ctx, w.plan, info, wireLines, miss, func(sc *domain.Sidecar) (any, int64, error) {
		lf, err := sc.Lines()
		if err != nil {
			return nil, 0, err
		}
		return lf, lf.MemBytes(), nil
	})
	if err != nil {
		return shardSource{}, 0, err
	}
	lf := v.(*domain.LineFragments)
	return shardSource{lines: lf}, lf.Count(), nil
}

func (w *ndjsonWire) encode(h wire.BatchHeader, _ int, _ []batchRange) ([]byte, error) {
	w.head = domain.AppendLineHeader(w.head[:0], h)
	return w.head, nil
}

func (w *ndjsonWire) writePayload(out io.Writer, rs []batchRange) error {
	w.parts = w.parts[:0]
	for _, rg := range rs {
		w.parts = append(w.parts, domain.LineRange{F: rg.src.lines, A: rg.a, B: rg.b})
	}
	return domain.WriteLineColumns(out, w.parts)
}

func (w *ndjsonWire) errorBytes(err error) []byte {
	line, _ := json.Marshal(map[string]string{"error": err.Error()})
	return append(line, '\n')
}

// frameWire frames each batch under a fresh header. The envelope is a
// handful of varint bytes; the payload is written straight from each
// source's encoded bytes, byte-identical to what EncodeFrame would
// produce (a codec batch payload is the concatenation of its records'
// payloads), with the encode histogram collapsing to header-assembly
// time.
type frameWire struct {
	s    *Server
	ctx  context.Context
	plan *servePlan
}

func (w *frameWire) source(info shard.Info, miss func()) (shardSource, int, error) {
	v, err := w.s.fill(w.ctx, w.plan, info, wireFrames, miss, func(sc *domain.Sidecar) (any, int64, error) {
		return sc, int64(len(sc.Bytes())), nil
	})
	if err != nil {
		return shardSource{}, 0, err
	}
	sc := v.(*domain.Sidecar)
	return shardSource{frames: sc}, sc.Count(), nil
}

func (w *frameWire) encode(h wire.BatchHeader, count int, rs []batchRange) ([]byte, error) {
	payloadLen := 0
	for _, rg := range rs {
		payloadLen += int(rg.src.frames.RangeLen(rg.a, rg.b))
	}
	return wire.FrameEnvelope(h, count, payloadLen)
}

func (w *frameWire) writePayload(out io.Writer, rs []batchRange) error {
	for _, rg := range rs {
		if err := rg.src.frames.WriteRange(out, rg.a, rg.b); err != nil {
			return err
		}
	}
	return nil
}

func (w *frameWire) errorBytes(err error) []byte { return wire.EncodeErrorFrame(err.Error()) }

// fill returns one shard's entry for a wire through the serving cache.
// A miss calls miss, then builds the entry from the shard's verified
// sidecar (loadFrames) with entry, which also returns the bytes the
// entry is charged; the whole fill is spanned as frame.fill under the
// request.
func (s *Server) fill(ctx context.Context, p *servePlan, info shard.Info, cw cacheWire, miss func(), entry func(*domain.Sidecar) (any, int64, error)) (any, error) {
	return s.cache.Get(cacheKey{cw, p.job.id + "/" + info.Name}, miss, func() (any, int64, error) {
		start := time.Now()
		sc, err := s.loadFrames(p, info)
		var v any
		var size int64
		if err == nil {
			v, size, err = entry(sc)
		}
		wireName := [...]string{wireLines: wire.WireNDJSON, wireFrames: wire.WireFrame}[cw]
		attrs := map[string]string{"shard": info.Name, "wire": wireName}
		if err != nil {
			attrs["error"] = err.Error()
		}
		s.recordChildSpan(ctx, "frame.fill", start, time.Now(), attrs)
		return v, size, err
	})
}

// loadFrames reads one shard's sidecar. One that is missing, could not
// be read or fails a check is counted and logged, and fails the fill;
// the file is left as it is, neither deleted nor rebuilt.
func (s *Server) loadFrames(p *servePlan, info shard.Info) (*domain.Sidecar, error) {
	sc, err := p.readSidecar(info)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.metrics.frameStoreMisses.Inc()
		}
		s.metrics.frameStoreErrors.Inc()
		s.logger.Warn("frame sidecar unusable", "job", p.job.id, "shard", info.Name, "error", err.Error())
		return nil, fmt.Errorf("shard %s: %w", info.Name, err)
	}
	s.metrics.frameStoreHits.Inc()
	s.metrics.frameStoreBytes.Add(float64(sc.PayloadLen()))
	return sc, nil
}

// readSidecar reads one shard's sidecar with one open and one read of
// its whole stored size — no stat first — and checks all of it (format,
// both CRCs, kind, and record count against the manifest) before any
// byte can reach a client. A plaintext sidecar is read by OpenRange and
// one exact-size ReadAt, through a handle closed before it returns; a
// sealed one is read whole through the decrypting opener. A missing
// sidecar is an error wrapping fs.ErrNotExist, and one whose bytes were
// read but fail a check — an empty one included — an error wrapping
// domain.ErrCorrupt.
func (p *servePlan) readSidecar(info shard.Info) (*domain.Sidecar, error) {
	name := domain.SidecarName(info.Name)
	var sc *domain.Sidecar
	var err error
	if p.key == nil {
		var ra shard.ReaderAtCloser
		var size int64
		if ra, size, err = p.store.OpenRange(name); err == nil {
			sc, err = domain.OpenSidecar(ra, size)
			ra.Close()
		}
	} else {
		var b []byte
		if b, err = shard.ReadObject(p.open, name); err == nil {
			sc, err = domain.ParseSidecar(b)
		}
	}
	switch {
	case err != nil:
		return nil, err
	case sc.Kind() != p.plug.Codec.Kind():
		return nil, fmt.Errorf("%w: sidecar kind %q, codec serves %q", domain.ErrCorrupt, sc.Kind(), p.plug.Codec.Kind())
	case sc.Count() != info.Records:
		return nil, fmt.Errorf("%w: sidecar holds %d records, manifest says %d", domain.ErrCorrupt, sc.Count(), info.Records)
	}
	return sc, nil
}

// recordChildSpan records a completed interval as a child of the
// context's active span — the no-allocation-when-untraced path for
// per-batch and cache-fill work, where a live Span object per event
// would cost more than the work being measured.
func (s *Server) recordChildSpan(ctx context.Context, name string, start, end time.Time, attrs map[string]string) {
	sp := telemetry.SpanFromContext(ctx)
	if sp == nil {
		return
	}
	pc := sp.Context()
	s.spans.Record(telemetry.SpanData{
		TraceID: pc.TraceID, SpanID: telemetry.NewSpanID(), Parent: pc.SpanID,
		Name: name, Start: start, End: end, Attrs: attrs,
	})
}

// countingResponseWriter tracks bytes written for the serving metrics.
type countingResponseWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingResponseWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// acceptsFrames reports whether the request's Accept header asks for
// the binary frame media type at least as strongly as for NDJSON.
// Only an explicit frame mention opts in — wildcard accepts (curl's
// */*) keep the debuggable NDJSON default — and q-values are honoured
// per RFC 9110: ";q=0" refuses frames, and a lower frame q than the
// client's (explicit or wildcard) NDJSON preference keeps NDJSON.
func acceptsFrames(r *http.Request) bool {
	frameQ, ndjsonQ, wildQ := -1.0, -1.0, -1.0
	// A media range repeated across (or within) Accept headers keeps its
	// most preferred weight, per RFC 9110's "most preferred" semantics —
	// overwriting with the last occurrence would let a trailing ;q=0.1
	// mask an earlier explicit preference.
	keep := func(dst *float64, q float64) {
		if q > *dst {
			*dst = q
		}
	}
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mt, params, _ := strings.Cut(part, ";")
			q := acceptQ(params)
			switch strings.ToLower(strings.TrimSpace(mt)) {
			case wire.ContentTypeFrame:
				keep(&frameQ, q)
			case wire.ContentTypeNDJSON:
				keep(&ndjsonQ, q)
			case "*/*", "application/*":
				keep(&wildQ, q)
			}
		}
	}
	if frameQ <= 0 {
		return false // unmentioned or explicitly refused
	}
	effNDJSON := ndjsonQ
	if effNDJSON < 0 {
		effNDJSON = wildQ // NDJSON reachable through a wildcard only
	}
	return frameQ >= effNDJSON
}

// acceptQ extracts a media range's q-value from its parameter list
// (1.0 when absent or unparsable, per RFC 9110's default weight).
func acceptQ(params string) float64 {
	for _, param := range strings.Split(params, ";") {
		k, v, ok := strings.Cut(param, "=")
		if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			return q
		}
	}
	return 1
}
