// Binary frame wire format. NDJSON is the default, debuggable stream;
// clients that ask for Accept: application/x-draid-frame get the same
// batches as length-prefixed binary frames instead — a varint header
// (kind, batch, cursor, record count) followed by the codec's packed
// little-endian tensor payload, so float-heavy domains pay a memcpy
// per value instead of a JSON encode/parse.
//
// Frame layout (all integers are unsigned LEB128 varints unless noted;
// signed values use zigzag varints; floats are little-endian IEEE 754):
//
//	frame  := uvarint(len(body)) body
//	body   := uvarint(len(kind)) kind
//	          uvarint(batch)
//	          uvarint(len(cursor)) cursor
//	          uvarint(count)
//	          payload            // count records, codec-specific
//
// A stream is a concatenation of frames; clean end-of-stream is EOF at
// a frame boundary. A mid-stream failure is reported as one frame of
// kind "error" whose payload is the message (count 0), mirroring the
// NDJSON {"error": ...} line.
//
// Per-kind payloads, per record:
//
//	samples:          uvarint(nfeat) nfeat×f32 varint(label)
//	fusion_windows:   uvarint(nsig) nsig×f32 varint(shot) varint(start)
//	                  varint(label) f32(horizon)
//	materials_graphs: uvarint(nodes) uvarint(feature_dim)
//	                  nodes·feature_dim×f64 uvarint(edges)
//	                  2·edges×uvarint(endpoint) edges×f64(lengths)
//	                  f64(energy) varint(class_id)
//
// Every length decoded off the wire is bounds-checked against the
// bytes actually present before anything is allocated, so a hostile
// frame cannot balloon memory or index out of range.
package domain

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/loader"
)

// Wire format names, the values of the X-Draid-Wire response header and
// the "wires" discovery fields.
const (
	WireNDJSON = "ndjson"
	WireFrame  = "frame"
)

// HTTP surface of the negotiation.
const (
	ContentTypeNDJSON = "application/x-ndjson"
	ContentTypeFrame  = "application/x-draid-frame"
	HeaderWire        = "X-Draid-Wire"
)

// KindError tags the frame that carries a mid-stream failure message.
const KindError = "error"

// Wires lists the wire formats every batch stream can negotiate.
func Wires() []string { return []string{WireNDJSON, WireFrame} }

// Frame hardening bounds: a frame body larger than MaxFrameBytes (or
// header fields beyond these lengths) is rejected before allocation.
const (
	MaxFrameBytes = 1 << 28
	maxKindLen    = 64
	maxCursorLen  = 128
)

// CodecByKind resolves the codec serving a wire kind across all
// registered plugins (several domains may share one kind).
func CodecByKind(kind string) (Codec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	for _, p := range plugins {
		if p.Codec.Kind() == kind {
			return p.Codec, true
		}
	}
	return nil, false
}

// StreamError is a failure the server reported in-band (an "error"
// frame). It is terminal: reconnecting with the same cursor will hit
// the same condition, unlike a transport error.
type StreamError struct{ Msg string }

func (e *StreamError) Error() string { return "draid stream error: " + e.Msg }

// framePrefixLen is the buffer space EncodeFrame reserves for the
// frame-length uvarint, so the body never needs a second copy.
const framePrefixLen = binary.MaxVarintLen32

// finishFrame writes buf's body length right-aligned into the
// reserved prefix and returns the finished frame without copying the
// body.
func finishFrame(buf []byte) []byte {
	body := len(buf) - framePrefixLen
	var tmp [framePrefixLen]byte
	n := binary.PutUvarint(tmp[:], uint64(body))
	copy(buf[framePrefixLen-n:framePrefixLen], tmp[:n])
	return buf[framePrefixLen-n:]
}

// EncodeFrame renders one complete batch frame.
func EncodeFrame(c Codec, h BatchHeader, recs []any) ([]byte, error) {
	buf := appendFrameHeader(make([]byte, framePrefixLen, 4096), h, len(recs))
	buf, err := c.AppendFramePayload(buf, recs)
	if err != nil {
		return nil, err
	}
	if len(buf)-framePrefixLen > MaxFrameBytes {
		return nil, fmt.Errorf("domain: frame body %d bytes exceeds %d", len(buf)-framePrefixLen, MaxFrameBytes)
	}
	return finishFrame(buf), nil
}

// FrameEnvelope returns the wire bytes that precede a pre-encoded
// payload of payloadLen bytes carrying count records: the frame length
// prefix followed by the varint header under h. Appending exactly
// payloadLen payload bytes yields the same frame EncodeFrame would
// build for the same header and records — the header/payload split
// that lets a cached payload be re-framed under a fresh batch index
// and cursor without re-packing a single tensor.
func FrameEnvelope(h BatchHeader, count, payloadLen int) ([]byte, error) {
	if payloadLen < 0 {
		return nil, fmt.Errorf("domain: negative payload length %d", payloadLen)
	}
	buf := appendFrameHeader(make([]byte, framePrefixLen, framePrefixLen+16+len(h.Kind)+len(h.Cursor)), h, count)
	body := len(buf) - framePrefixLen + payloadLen
	if body > MaxFrameBytes {
		return nil, fmt.Errorf("domain: frame body %d bytes exceeds %d", body, MaxFrameBytes)
	}
	// finishFrame would stamp the buffered length only; the envelope's
	// length prefix covers header plus the payload the caller streams
	// after it.
	var tmp [framePrefixLen]byte
	n := binary.PutUvarint(tmp[:], uint64(body))
	copy(buf[framePrefixLen-n:framePrefixLen], tmp[:n])
	return buf[framePrefixLen-n:], nil
}

// EncodeRecordPayloads encodes recs into one contiguous frame payload
// with per-record boundary offsets (len(recs)+1 entries; record i
// occupies payload[offsets[i]:offsets[i+1]]). Every codec's batch
// payload is the plain concatenation of its records' single-record
// payloads (pinned by TestFramePayloadConcatenation), so any
// contiguous record range [a,b) of the result is byte-identical to
// AppendFramePayload over those records — the invariant the encoded-
// frame shard cache slices batches out of.
func EncodeRecordPayloads(c Codec, recs []any) (payload []byte, offsets []int64, err error) {
	offsets = make([]int64, len(recs)+1)
	for i, r := range recs {
		payload, err = c.AppendFramePayload(payload, []any{r})
		if err != nil {
			return nil, nil, err
		}
		offsets[i+1] = int64(len(payload))
	}
	return payload, offsets, nil
}

// EncodeErrorFrame renders the in-band failure frame.
func EncodeErrorFrame(msg string) []byte {
	if len(msg) > maxCursorLen*8 {
		msg = msg[:maxCursorLen*8]
	}
	buf := appendFrameHeader(make([]byte, framePrefixLen, framePrefixLen+64+len(msg)), BatchHeader{Kind: KindError}, 0)
	return finishFrame(append(buf, msg...))
}

func appendFrameHeader(buf []byte, h BatchHeader, count int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(h.Kind)))
	buf = append(buf, h.Kind...)
	buf = binary.AppendUvarint(buf, uint64(h.Batch))
	buf = binary.AppendUvarint(buf, uint64(len(h.Cursor)))
	buf = append(buf, h.Cursor...)
	return binary.AppendUvarint(buf, uint64(count))
}

func prefixFrame(body []byte) []byte {
	out := binary.AppendUvarint(make([]byte, 0, len(body)+binary.MaxVarintLen32), uint64(len(body)))
	return append(out, body...)
}

// DecodeFrame parses one frame off the front of b, returning the
// remainder. A truncated buffer yields io.ErrUnexpectedEOF (or io.EOF
// when b is empty — a clean stream end); an "error" frame yields a
// *StreamError. It boxes every record and is the reference the SDK's
// typed frame decoder (pkg/client) is tested against.
func DecodeFrame(b []byte) (BatchHeader, []any, []byte, error) {
	if len(b) == 0 {
		return BatchHeader{}, nil, nil, io.EOF
	}
	ln, sz := binary.Uvarint(b)
	if sz == 0 {
		return BatchHeader{}, nil, nil, io.ErrUnexpectedEOF
	}
	if sz < 0 || ln == 0 || ln > MaxFrameBytes {
		return BatchHeader{}, nil, nil, fmt.Errorf("domain: bad frame length %d", ln)
	}
	if uint64(len(b)-sz) < ln {
		return BatchHeader{}, nil, nil, io.ErrUnexpectedEOF
	}
	rest := b[sz+int(ln):]
	h, count, payload, err := ParseFrameHeader(b[sz : sz+int(ln)])
	if err != nil {
		return h, nil, rest, err
	}
	codec, _ := CodecByKind(h.Kind)
	recs, err := codec.DecodeFramePayload(payload, count)
	if err != nil {
		return h, nil, rest, err
	}
	return h, recs, rest, nil
}

// ParseFrameHeader parses the header of one frame body (the bytes after
// its length prefix) and returns the header, the record count and the
// payload that follows. An "error" frame yields a *StreamError carrying
// its message. A kind no codec serves is an error, and so is a count of
// zero or one above the payload length: every record costs at least one
// payload byte, so count bounds any per-record allocation before a
// payload decoder runs. The header layout is read nowhere else.
func ParseFrameHeader(body []byte) (BatchHeader, int, []byte, error) {
	p := NewFrameParser(body)
	kl := p.Uvarint("kind length")
	if p.err == nil && kl > maxKindLen {
		p.Fail("kind length %d exceeds %d", kl, maxKindLen)
	}
	kind := string(p.Bytes(int(kl), "kind"))
	batch := p.Uvarint("batch index")
	if p.err == nil && batch > math.MaxInt32 {
		p.Fail("batch index %d out of range", batch)
	}
	cl := p.Uvarint("cursor length")
	if p.err == nil && cl > maxCursorLen {
		p.Fail("cursor length %d exceeds %d", cl, maxCursorLen)
	}
	cursor := string(p.Bytes(int(cl), "cursor"))
	count := p.Uvarint("record count")
	if p.err != nil {
		return BatchHeader{}, 0, nil, p.err
	}
	h := BatchHeader{Batch: int(batch), Cursor: cursor, Kind: kind}
	if kind == KindError {
		return h, 0, nil, &StreamError{Msg: string(p.b)}
	}
	if _, ok := CodecByKind(kind); !ok {
		return h, 0, nil, fmt.Errorf("domain: frame with unknown wire kind %q", kind)
	}
	if count == 0 || count > uint64(len(p.b)) {
		return h, 0, nil, fmt.Errorf("domain: frame claims %d records in %d payload bytes", count, len(p.b))
	}
	return h, int(count), p.b, nil
}

// FrameParser walks a frame body or payload with a sticky error: after
// the first failure every read returns a zero value, and every length
// is checked against the bytes remaining before anything is allocated.
// The reference payload decoders here and the SDK's typed decoder share
// it, so both apply the same bounds.
type FrameParser struct {
	b   []byte
	err error
}

// NewFrameParser starts a parser at the front of b.
func NewFrameParser(b []byte) *FrameParser { return &FrameParser{b: b} }

// Err is the first failure, or nil.
func (p *FrameParser) Err() error { return p.err }

// Len is the number of bytes not yet consumed.
func (p *FrameParser) Len() int { return len(p.b) }

// Fail records a failure unless one is already recorded.
func (p *FrameParser) Fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("domain: frame: "+format, args...)
	}
}

// Uvarint reads an unsigned varint.
func (p *FrameParser) Uvarint(what string) uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.Fail("bad varint for %s", what)
		return 0
	}
	p.b = p.b[n:]
	return v
}

// Varint reads a zigzag varint.
func (p *FrameParser) Varint(what string) int64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Varint(p.b)
	if n <= 0 {
		p.Fail("bad varint for %s", what)
		return 0
	}
	p.b = p.b[n:]
	return v
}

// Bytes consumes the next n bytes and returns them without copying.
func (p *FrameParser) Bytes(n int, what string) []byte {
	if p.err != nil {
		return nil
	}
	if n < 0 || n > len(p.b) {
		p.Fail("%s wants %d bytes, %d remain", what, n, len(p.b))
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// Length reads a uvarint element count and bounds it by the bytes
// remaining at elemSize bytes per element.
func (p *FrameParser) Length(elemSize int, what string) int {
	v := p.Uvarint(what)
	if p.err != nil {
		return 0
	}
	if v > uint64(len(p.b))/uint64(elemSize) {
		p.Fail("%s %d exceeds %d remaining payload bytes", what, v, len(p.b))
		return 0
	}
	return int(v)
}

// Finish returns the first failure, or an error if any bytes remain.
func (p *FrameParser) Finish() error {
	if p.err != nil {
		return p.err
	}
	if len(p.b) != 0 {
		return fmt.Errorf("domain: frame: %d trailing payload bytes", len(p.b))
	}
	return nil
}

func (p *FrameParser) f32s(n int, what string) []float32 {
	raw := p.Bytes(4*n, what)
	if p.err != nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

func (p *FrameParser) f64s(n int, what string) []float64 {
	raw := p.Bytes(8*n, what)
	if p.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

func (p *FrameParser) f32(what string) float32 {
	v := p.f32s(1, what)
	if p.err != nil {
		return 0
	}
	return v[0]
}

func (p *FrameParser) f64(what string) float64 {
	v := p.f64s(1, what)
	if p.err != nil {
		return 0
	}
	return v[0]
}

// recsCap bounds the initial []any allocation: hostile counts never
// pre-allocate more than this, growth beyond it is append-driven.
const recsCap = 1024

func frameRecs(count int) []any {
	if count > recsCap {
		count = recsCap
	}
	return make([]any, 0, count)
}

// ---- samples ----

func (sampleCodec) AppendFramePayload(buf []byte, recs []any) ([]byte, error) {
	for _, r := range recs {
		s, ok := r.(*loader.Sample)
		if !ok {
			return nil, fmt.Errorf("domain: samples codec got %T", r)
		}
		buf = binary.AppendUvarint(buf, uint64(len(s.Features)))
		for _, v := range s.Features {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		buf = binary.AppendVarint(buf, int64(s.Label))
	}
	return buf, nil
}

func (sampleCodec) DecodeFramePayload(payload []byte, count int) ([]any, error) {
	p := NewFrameParser(payload)
	recs := frameRecs(count)
	for i := 0; i < count; i++ {
		n := p.Length(4, "feature count")
		feats := p.f32s(n, "features")
		label := p.Varint("label")
		if p.err == nil && (label < math.MinInt32 || label > math.MaxInt32) {
			p.Fail("label %d out of int32 range", label)
		}
		if p.err != nil {
			return nil, p.err
		}
		recs = append(recs, &loader.Sample{Features: feats, Label: int32(label)})
	}
	if err := p.Finish(); err != nil {
		return nil, err
	}
	return recs, nil
}

// ---- fusion windows ----

func (fusionCodec) AppendFramePayload(buf []byte, recs []any) ([]byte, error) {
	for _, r := range recs {
		w, ok := r.(*FusionWindow)
		if !ok {
			return nil, fmt.Errorf("domain: fusion codec got %T", r)
		}
		buf = binary.AppendUvarint(buf, uint64(len(w.Signal)))
		for _, v := range w.Signal {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		buf = binary.AppendVarint(buf, w.Shot)
		buf = binary.AppendVarint(buf, w.Start)
		buf = binary.AppendVarint(buf, w.Label)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(w.Horizon))
	}
	return buf, nil
}

func (fusionCodec) DecodeFramePayload(payload []byte, count int) ([]any, error) {
	p := NewFrameParser(payload)
	recs := frameRecs(count)
	for i := 0; i < count; i++ {
		n := p.Length(4, "signal length")
		if p.err == nil && n == 0 {
			p.Fail("fusion window without signal floats")
		}
		w := &FusionWindow{Signal: p.f32s(n, "signal")}
		w.Shot = p.Varint("shot")
		w.Start = p.Varint("start")
		w.Label = p.Varint("label")
		w.Horizon = p.f32("horizon")
		if p.err != nil {
			return nil, p.err
		}
		recs = append(recs, w)
	}
	if err := p.Finish(); err != nil {
		return nil, err
	}
	return recs, nil
}

// ---- materials graphs ----

func (materialsCodec) AppendFramePayload(buf []byte, recs []any) ([]byte, error) {
	for _, r := range recs {
		g, ok := r.(*WireGraph)
		if !ok {
			return nil, fmt.Errorf("domain: materials codec got %T", r)
		}
		// Decode validated these invariants; re-check cheaply so a
		// hand-built record cannot emit a frame its own parser rejects.
		if g.Nodes < 1 || g.FeatureDim < 1 || len(g.NodeFeatures) != g.Nodes*g.FeatureDim ||
			len(g.Edges) != 2*len(g.EdgeLengths) {
			return nil, fmt.Errorf("domain: inconsistent graph record (%d nodes × %d dims, %d features, %d edge ints)",
				g.Nodes, g.FeatureDim, len(g.NodeFeatures), len(g.Edges))
		}
		buf = binary.AppendUvarint(buf, uint64(g.Nodes))
		buf = binary.AppendUvarint(buf, uint64(g.FeatureDim))
		for _, v := range g.NodeFeatures {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.AppendUvarint(buf, uint64(len(g.EdgeLengths)))
		for _, e := range g.Edges {
			if e < 0 || e >= int64(g.Nodes) {
				return nil, fmt.Errorf("domain: edge endpoint %d outside %d nodes", e, g.Nodes)
			}
			buf = binary.AppendUvarint(buf, uint64(e))
		}
		for _, v := range g.EdgeLengths {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.Energy))
		buf = binary.AppendVarint(buf, g.ClassID)
	}
	return buf, nil
}

func (materialsCodec) DecodeFramePayload(payload []byte, count int) ([]any, error) {
	p := NewFrameParser(payload)
	recs := frameRecs(count)
	for i := 0; i < count; i++ {
		nodes := p.Uvarint("node count")
		dim := p.Uvarint("feature dim")
		if p.err == nil && (nodes < 1 || dim < 1 || nodes > MaxFrameBytes || dim > MaxFrameBytes) {
			p.Fail("graph shape [%d,%d] out of range", nodes, dim)
		}
		if p.err != nil {
			return nil, p.err
		}
		// nodes and dim are each <= 2^28 here, so the product cannot
		// overflow uint64; the byte bound then caps the allocation.
		if nodes*dim > uint64(len(p.b))/8 {
			p.Fail("node_features [%d,%d] exceeds %d remaining payload bytes", nodes, dim, len(p.b))
			return nil, p.err
		}
		g := &WireGraph{
			Nodes:        int(nodes),
			FeatureDim:   int(dim),
			NodeFeatures: p.f64s(int(nodes*dim), "node_features"),
		}
		ne := p.Length(2, "edge count") // each edge is two >=1-byte varints
		g.Edges = make([]int64, 0, min(2*ne, recsCap))
		for j := 0; j < 2*ne; j++ {
			e := p.Uvarint("edge endpoint")
			if p.err == nil && e >= nodes {
				p.Fail("edge endpoint %d outside %d nodes", e, nodes)
			}
			if p.err != nil {
				return nil, p.err
			}
			g.Edges = append(g.Edges, int64(e))
		}
		g.EdgeLengths = p.f64s(ne, "edge_lengths")
		g.Energy = p.f64("energy")
		g.ClassID = p.Varint("class_id")
		if p.err != nil {
			return nil, p.err
		}
		recs = append(recs, g)
	}
	if err := p.Finish(); err != nil {
		return nil, err
	}
	return recs, nil
}
