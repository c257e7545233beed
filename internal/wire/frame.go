// Binary frame wire format. NDJSON is the default, debuggable stream;
// clients that ask for Accept: application/x-draid-frame get the same
// batches as length-prefixed binary frames instead — a varint header
// (kind, batch, cursor, record count) followed by the packed
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
//	          payload            // count records, kind-specific
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
// A batch payload is the plain concatenation of its records' payloads.
// Every length decoded off the wire is bounds-checked against the
// bytes actually present before anything is allocated, so a hostile
// frame cannot balloon memory or index out of range.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Frame hardening bounds: a frame body larger than MaxFrameBytes (or
// header fields beyond these lengths) is rejected before allocation.
const (
	MaxFrameBytes = 1 << 28
	// MaxKindLen bounds a kind name, in a frame header and in a sidecar.
	MaxKindLen   = 64
	maxCursorLen = 128
)

// framePrefixLen is the buffer space reserved for the frame-length
// uvarint, so the header never needs a second copy.
const framePrefixLen = binary.MaxVarintLen32

// finishFrame writes body, the length the frame's prefix announces,
// right-aligned into buf's reserved prefix and returns the frame from
// its first prefix byte.
func finishFrame(buf []byte, body int) []byte {
	var tmp [framePrefixLen]byte
	n := binary.PutUvarint(tmp[:], uint64(body))
	copy(buf[framePrefixLen-n:framePrefixLen], tmp[:n])
	return buf[framePrefixLen-n:]
}

// FrameEnvelope returns the wire bytes that precede a pre-encoded
// payload of payloadLen bytes carrying count records: the frame length
// prefix followed by the varint header under h. Appending exactly
// payloadLen payload bytes yields the whole frame — the header/payload
// split that lets a cached payload be re-framed under a fresh batch
// index and cursor without re-packing a single tensor.
func FrameEnvelope(h BatchHeader, count, payloadLen int) ([]byte, error) {
	if payloadLen < 0 {
		return nil, fmt.Errorf("wire: negative payload length %d", payloadLen)
	}
	buf := appendFrameHeader(make([]byte, framePrefixLen, framePrefixLen+16+len(h.Kind)+len(h.Cursor)), h, count)
	body := len(buf) - framePrefixLen + payloadLen
	if body > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame body %d bytes exceeds %d", body, MaxFrameBytes)
	}
	return finishFrame(buf, body), nil
}

// EncodeErrorFrame renders the in-band failure frame.
func EncodeErrorFrame(msg string) []byte {
	if len(msg) > maxCursorLen*8 {
		msg = msg[:maxCursorLen*8]
	}
	buf := appendFrameHeader(make([]byte, framePrefixLen, framePrefixLen+64+len(msg)), BatchHeader{Kind: KindError}, 0)
	buf = append(buf, msg...)
	return finishFrame(buf, len(buf)-framePrefixLen)
}

func appendFrameHeader(buf []byte, h BatchHeader, count int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(h.Kind)))
	buf = append(buf, h.Kind...)
	buf = binary.AppendUvarint(buf, uint64(h.Batch))
	buf = binary.AppendUvarint(buf, uint64(len(h.Cursor)))
	buf = append(buf, h.Cursor...)
	return binary.AppendUvarint(buf, uint64(count))
}

// ParseFrameHeader parses the header of one frame body (the bytes after
// its length prefix) and returns the header, the record count and the
// payload that follows. An "error" frame yields a *StreamError carrying
// its message. A kind other than the three served is an error, and so
// is a count of zero or one above the payload length: every record
// costs at least one payload byte, so count bounds any per-record
// allocation before a payload decoder runs. The header layout is read
// nowhere else.
func ParseFrameHeader(body []byte) (BatchHeader, int, []byte, error) {
	p := NewFrameParser(body)
	kl := p.Uvarint("kind length")
	if p.err == nil && kl > MaxKindLen {
		p.Fail("kind length %d exceeds %d", kl, MaxKindLen)
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
	switch kind {
	case KindError:
		return h, 0, nil, &StreamError{Msg: string(p.b)}
	case KindSamples, KindFusionWindows, KindMaterialsGraphs:
	default:
		return h, 0, nil, fmt.Errorf("wire: frame with unknown wire kind %q", kind)
	}
	if count == 0 || count > uint64(len(p.b)) {
		return h, 0, nil, fmt.Errorf("wire: frame claims %d records in %d payload bytes", count, len(p.b))
	}
	return h, int(count), p.b, nil
}

// FrameParser walks a frame body or payload with a sticky error: after
// the first failure every read returns a zero value, and every length
// is checked against the bytes remaining before anything is allocated.
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
		p.err = fmt.Errorf("wire: frame: "+format, args...)
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
		return fmt.Errorf("wire: frame: %d trailing payload bytes", len(p.b))
	}
	return nil
}
