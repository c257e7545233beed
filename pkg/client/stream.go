// Stream: one batch stream over either wire format, with content
// negotiation and transparent cursor resume. The client asks for
// frames via Accept, reads the server's X-Draid-Wire / Content-Type
// answer to pick a decoder, and — when the connection is cut mid-
// stream — reconnects from the cursor after the last delivered batch,
// renumbering so consumers see one contiguous stream.
package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// StreamOptions tunes StreamBatches.
type StreamOptions struct {
	// BatchSize is records per batch; <=0 takes the server default.
	BatchSize int
	// MaxBatches caps the stream; <=0 streams the whole shard set.
	MaxBatches int
	// MaxKBps asks the server to pace the stream (it may pace tighter
	// under its own ceiling, never looser).
	MaxKBps int
	// Cursor resumes a previous stream at its position.
	Cursor string
	// Wire overrides the client's wire preference for this stream.
	Wire string
	// MaxResumes bounds automatic reconnect-from-cursor attempts after
	// a transport failure. 0 means DefaultMaxResumes; negative
	// disables resuming.
	MaxResumes int
}

// DefaultMaxResumes is how many transparent cursor reconnects a stream
// attempts before surfacing the transport error.
const DefaultMaxResumes = 3

// StreamBatches opens the batch stream of a completed job.
func (c *Client) StreamBatches(ctx context.Context, jobID string, opts StreamOptions) (*Stream, error) {
	q := url.Values{}
	if opts.BatchSize > 0 {
		q.Set("batch_size", strconv.Itoa(opts.BatchSize))
	}
	if opts.MaxKBps > 0 {
		q.Set("max_kbps", strconv.Itoa(opts.MaxKBps))
	}
	u := c.base + "/v1/jobs/" + url.PathEscape(jobID) + "/batches"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	wire := opts.Wire
	if wire == "" {
		wire = c.wire
	}
	return openStream(ctx, c.httpc, u, opts.Cursor, wire, opts.MaxBatches, opts.MaxResumes, c.newTrace(), c.token)
}

// OpenStreamURL opens a batch stream against an already-built
// /batches URL (which must not carry a cursor parameter — cursor is
// passed separately so resume can rebuild it). A positive max_batches
// in the URL is the stream's total cap, as StreamOptions.MaxBatches.
// httpc nil uses http.DefaultClient; wire "" means WireAuto; maxResumes
// as in StreamOptions.
func OpenStreamURL(ctx context.Context, httpc *http.Client, rawURL, cursor, wire string, maxResumes int) (*Stream, error) {
	rawURL, maxBatches := takeMaxBatches(rawURL)
	return openStream(ctx, httpc, rawURL, cursor, wire, maxBatches, maxResumes, "", "")
}

// takeMaxBatches removes a positive max_batches from a URL's query and
// returns it; connect sends the cap that remains on every connection.
// Any other value stays in the URL for the server to judge.
func takeMaxBatches(rawURL string) (string, int) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return rawURL, 0
	}
	q := u.Query()
	n, err := strconv.Atoi(q.Get("max_batches"))
	if err != nil || n <= 0 {
		return rawURL, 0
	}
	q.Del("max_batches")
	u.RawQuery = q.Encode()
	return u.String(), n
}

// openStream is OpenStreamURL with the cap taken out of the URL, an
// explicit trace ID ("" generates a fresh one) and bearer token (""
// sends no Authorization). The same ID and token ride every connection
// of the stream — resumes included — so the whole logical stream
// correlates to one trace across the fleet and reconnects
// re-authenticate instead of dying with 401.
func openStream(ctx context.Context, httpc *http.Client, rawURL, cursor, wire string, maxBatches, maxResumes int, trace, token string) (*Stream, error) {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	if !telemetry.ValidTraceID(trace) {
		trace = telemetry.NewTraceID()
	}
	switch wire {
	case "":
		wire = WireAuto
	case WireAuto, WireNDJSON, WireFrame:
	default:
		return nil, fmt.Errorf("client: unknown wire format %q", wire)
	}
	if maxResumes == 0 {
		maxResumes = DefaultMaxResumes
	}
	if maxResumes < 0 {
		maxResumes = 0
	}
	s := &Stream{
		ctx:         ctx,
		httpc:       httpc,
		url:         rawURL,
		wire:        wire,
		cursor:      cursor,
		maxBatches:  maxBatches,
		resumesLeft: maxResumes,
		trace:       trace,
		token:       token,
	}
	if err := s.connect(); err != nil {
		return nil, err
	}
	return s, nil
}

// Stream is an open batch stream. Read with Next until io.EOF; Close
// is only needed to abandon a stream early. A stream read to its end,
// or to its MaxBatches cap, hands its connection back to the
// http.Client's idle pool, so the next stream to the same server skips
// the dial; one closed before either drops its connection.
type Stream struct {
	ctx   context.Context
	httpc *http.Client
	url   string
	wire  string // requested: auto|ndjson|frame

	negotiated string // wire in use on the current connection
	trace      string // trace ID stamped on every connection of the stream
	token      string // bearer token re-sent on every connection (resumes too)
	cursor     string // position after the last delivered batch
	delivered  int
	maxBatches int // total delivery cap across resumes (0 = unbounded)
	batchBase  int // renumber offset applied after a resume
	bytes      int64

	resumesLeft int
	body        io.ReadCloser
	sc          *bufio.Scanner
	lines       lineDecoder
	fr          *frameReader
	done        bool
}

// Wire reports the negotiated wire format ("ndjson" or "frame").
func (s *Stream) Wire() string { return s.negotiated }

// TraceID reports the trace ID this stream's requests carry — the
// handle for finding the stream in server logs and metrics.
func (s *Stream) TraceID() string { return s.trace }

// Cursor is the resume position after the last batch Next returned.
func (s *Stream) Cursor() string { return s.cursor }

// Bytes is the total wire bytes consumed so far.
func (s *Stream) Bytes() int64 { return s.bytes }

// Close ends the stream. Before its cap or its end, that abandons the
// stream and drops its connection; at its cap, Close reads the
// response's end first, as Next does, so the connection is handed back.
func (s *Stream) Close() error {
	if !s.done && s.atCap() {
		s.readEnd()
	}
	s.done = true
	return s.body.Close()
}

// atCap reports whether the stream has delivered its MaxBatches cap.
func (s *Stream) atCap() bool { return s.maxBatches > 0 && s.delivered >= s.maxBatches }

// readEnd reads past the last batch of a stream at its cap, so that a
// response which ends there is read to its clean end and net/http puts
// the connection back in its idle pool (HTTP/1.1 reuses a connection
// only once its response is read through). Every connection asks the
// server for exactly the cap that remains, so a server that honours it
// ends the response here. It reads at most one further frame or line
// and decodes nothing: whatever arrives instead of the end — a batch
// past the cap, an in-band error, a cut — is left for the caller's
// body Close, which drops the connection.
func (s *Stream) readEnd() {
	if s.fr != nil {
		_, _ = s.fr.r.Peek(1)
	} else {
		s.sc.Scan()
	}
}

// connect opens one connection of the stream at its cursor, asking for
// the cap that remains, so a resumed connection also ends at the cap.
func (s *Stream) connect() error {
	u := s.url
	sep := "?"
	if strings.Contains(u, "?") {
		sep = "&"
	}
	if s.cursor != "" {
		u += sep + "cursor=" + url.QueryEscape(s.cursor)
		sep = "&"
	}
	if s.maxBatches > 0 {
		u += sep + "max_batches=" + strconv.Itoa(s.maxBatches-s.delivered)
	}
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set(TraceHeader, s.trace)
	if s.token != "" {
		req.Header.Set("Authorization", "Bearer "+s.token)
	}
	switch s.wire {
	case WireFrame:
		req.Header.Set("Accept", wire.ContentTypeFrame)
	case WireNDJSON:
		req.Header.Set("Accept", wire.ContentTypeNDJSON)
	default: // auto: prefer frames, accept anything
		req.Header.Set("Accept", wire.ContentTypeFrame+", "+wire.ContentTypeNDJSON+";q=0.9, */*;q=0.1")
	}
	resp, err := s.httpc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return fmt.Errorf("client: stream: status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	negotiated := resp.Header.Get(wire.HeaderWire)
	if negotiated == "" {
		// Pre-negotiation servers: infer from the content type.
		if strings.HasPrefix(resp.Header.Get("Content-Type"), wire.ContentTypeFrame) {
			negotiated = WireFrame
		} else {
			negotiated = WireNDJSON
		}
	}
	if s.wire == WireFrame && negotiated != WireFrame {
		resp.Body.Close()
		return fmt.Errorf("client: server answered wire %q, frames required", negotiated)
	}
	if s.wire == WireNDJSON && negotiated != WireNDJSON {
		resp.Body.Close()
		return fmt.Errorf("client: server answered wire %q to an NDJSON request", negotiated)
	}
	s.negotiated = negotiated
	s.body = resp.Body
	s.sc, s.fr = nil, nil
	if negotiated == WireFrame {
		s.fr = newFrameReader(resp.Body)
	} else {
		// The scanner starts at its small default buffer and doubles up to
		// maxLineBytes only for streams whose lines need it.
		s.sc = bufio.NewScanner(resp.Body)
		s.sc.Buffer(nil, maxLineBytes)
		s.sc.Split(scanLine)
	}
	return nil
}

// maxLineBytes caps one NDJSON batch line.
const maxLineBytes = 64 << 20

// scanLine splits a stream into newline-terminated lines, like
// bufio.ScanLines but keeping a '\r' (JSON whitespace, and a wire byte
// the stream accounts for). A non-empty final line without its newline
// was cut mid-write: it fails with io.ErrUnexpectedEOF, which the
// stream cures by resuming from its cursor.
func scanLine(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return 0, nil, nil
}

// Next returns the next batch, validated, or io.EOF at a clean end of
// stream or once MaxBatches batches have been delivered. Transport
// failures mid-stream are retried transparently by reconnecting from
// the current cursor (bounded by MaxResumes); server-reported errors
// and malformed batches are terminal. The io.EOF at the end or at the
// cap hands the connection back for reuse.
func (s *Stream) Next() (*BatchWire, error) {
	if s.done {
		return nil, io.EOF
	}
	if s.atCap() {
		s.Close()
		return nil, io.EOF
	}
	for {
		w, n, err := s.readOne()
		if err == nil {
			s.bytes += n
			s.delivered++
			w.Batch += s.batchBase
			s.cursor = w.Cursor
			return w, nil
		}
		if err == io.EOF {
			s.done = true
			s.body.Close()
			return nil, io.EOF
		}
		if terminal(err) || s.resumesLeft <= 0 {
			s.done = true
			s.body.Close()
			return nil, err
		}
		// Transport failure: reconnect from the cursor after the last
		// delivered batch. The resumed connection renumbers from zero,
		// so shift its indices to continue this stream's count.
		s.resumesLeft--
		s.body.Close()
		s.batchBase = s.delivered
		if cerr := s.connect(); cerr != nil {
			s.done = true
			return nil, fmt.Errorf("client: resume after %v: %w", err, cerr)
		}
	}
}

// terminal reports whether err can never be cured by reconnecting
// from the same cursor: in-band server errors, malformed (but fully
// received) batches or frames, and lines over the cap, as opposed to
// cut connections.
func terminal(err error) bool {
	var se *StreamError
	if errors.As(err, &se) {
		return true
	}
	var cf *CorruptFrameError
	if errors.As(err, &cf) {
		return true
	}
	var be *badBatchError
	return errors.As(err, &be)
}

// badBatchError wraps a decode/validation failure of a fully received
// batch, or a line over maxLineBytes — retrying would replay the same
// bytes.
type badBatchError struct{ err error }

func (e *badBatchError) Error() string { return e.err.Error() }
func (e *badBatchError) Unwrap() error { return e.err }

// readOne reads one batch off the current connection, returning its
// wire byte cost.
func (s *Stream) readOne() (*BatchWire, int64, error) {
	if s.fr != nil {
		start := s.fr.n
		// The frame decoder has checked everything Validate would.
		w, err := s.fr.next()
		if err != nil {
			// io.EOF only surfaces at a frame boundary (clean end);
			// mid-frame cuts arrive as io.ErrUnexpectedEOF and resume.
			return nil, 0, err
		}
		return w, s.fr.n - start, nil
	}
	if !s.sc.Scan() {
		// A cut connection surfaces as a transport error, or as
		// io.ErrUnexpectedEOF for a final line that never got its newline.
		// A line over the cap would be over it again after a resume.
		if err := s.sc.Err(); errors.Is(err, bufio.ErrTooLong) {
			return nil, 0, &badBatchError{fmt.Errorf("client: batch line over %d bytes: %w", maxLineBytes, err)}
		} else if err != nil {
			return nil, 0, err
		}
		return nil, 0, io.EOF
	}
	// A complete line: if it does not decode, resuming would replay it.
	line := s.sc.Bytes()
	var w BatchWire
	if err := s.lines.decode(line, &w); err != nil {
		return nil, 0, &badBatchError{err}
	}
	if err := w.Validate(); err != nil {
		var se *StreamError
		if errors.As(err, &se) {
			return nil, 0, err // in-band server error line
		}
		return nil, 0, &badBatchError{err}
	}
	return &w, int64(len(line)) + 1, nil
}

// Drain consumes the remainder of the stream, validating every batch,
// and returns what it saw: batches, records, and wire bytes.
func (s *Stream) Drain() (batches, samples, bytes int64, err error) {
	start := s.bytes
	for {
		w, err := s.Next()
		if err == io.EOF {
			return batches, samples, s.bytes - start, nil
		}
		if err != nil {
			return batches, samples, s.bytes - start, err
		}
		batches++
		samples += int64(w.Count())
	}
}
