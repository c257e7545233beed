// The frame stream reader: reads length-prefixed frames off a
// connection and decodes each one straight into the BatchWire the
// caller receives. The header goes through domain.ParseFrameHeader;
// each kind's payload is decoded into BatchWire columns, with every
// float of a batch copied into one slab per element type and every
// record a clipped sub-slice of it — no boxed records, no []any.
// domain.DecodeFrame stays as the reference it must agree with
// (FuzzDecodeFrameBatch).
package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"repro/internal/domain"
)

// CorruptFrameError wraps a parse failure of a fully received frame.
// It is terminal — reconnecting replays the same bytes — unlike the
// io.ErrUnexpectedEOF of a cut connection, which a stream cures by
// resuming from its cursor.
type CorruptFrameError struct{ Err error }

func (e *CorruptFrameError) Error() string { return e.Err.Error() }
func (e *CorruptFrameError) Unwrap() error { return e.Err }

const (
	// frameChunk is the step the body buffer grows by as bytes arrive,
	// so a hostile length prefix followed by a stall cannot make the
	// reader allocate the MaxFrameBytes it claims.
	frameChunk = 64 << 10
	// maxKeptScratch caps the bytes of a body buffer or edge scratch the
	// reader keeps for the next frame; a larger one is left to the GC.
	maxKeptScratch = 1 << 20
	// maxPrealloc bounds the records a column is allocated for up front:
	// a hostile count grows columns only as records actually decode.
	maxPrealloc = 1024
)

// littleEndian reports whether this host stores floats in the frame's
// byte order, so a payload's floats can be copied as bytes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// frameReader reads one connection's frame stream.
type frameReader struct {
	r     *bufio.Reader
	n     int64   // wire bytes consumed
	body  []byte  // frame body buffer, reused across frames
	edges []int64 // materials edge endpoints of the current frame
	// loop decodes floats with the byte-order loop instead of a copy:
	// the only correct path on a big-endian host.
	loop bool
}

func newFrameReader(r io.Reader) *frameReader {
	// The default buffer size: a stream opened at a cursor for a few
	// batches pays for its buffer on every open, and body reads larger
	// than the buffer bypass it anyway.
	return &frameReader{r: bufio.NewReader(r), loop: !littleEndian}
}

// next reads and decodes one frame. io.EOF means a clean end at a frame
// boundary; io.ErrUnexpectedEOF (and transport read errors) mean the
// stream was cut mid-frame and may resume by cursor; *StreamError
// carries an in-band server error and *CorruptFrameError a fully
// received frame that does not parse — both terminal.
func (f *frameReader) next() (*BatchWire, error) {
	ln, err := f.readLength()
	if err != nil {
		return nil, err
	}
	body, err := f.readBody(ln)
	if err != nil {
		return nil, err
	}
	w, err := f.decode(body)
	if err != nil {
		var se *StreamError
		if !errors.As(err, &se) {
			err = &CorruptFrameError{err}
		}
		return nil, err
	}
	return w, nil
}

// readLength reads the frame length prefix, accepting exactly the
// prefixes binary.Uvarint accepts so the stream and domain.DecodeFrame
// agree on every input. A prefix that overflows 64 bits, or a length of
// zero or above MaxFrameBytes, is corrupt; one cut short is
// io.ErrUnexpectedEOF.
func (f *frameReader) readLength() (uint64, error) {
	var x uint64
	for i, s := 0, uint(0); ; i, s = i+1, s+7 {
		b, err := f.r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		f.n++
		if i == binary.MaxVarintLen64 || i == binary.MaxVarintLen64-1 && b > 1 && b < 0x80 {
			return 0, &CorruptFrameError{errors.New("client: frame length prefix overflows 64 bits")}
		}
		x |= uint64(b&0x7f) << s
		if b < 0x80 {
			if x == 0 || x > domain.MaxFrameBytes {
				return 0, &CorruptFrameError{fmt.Errorf("client: bad frame length %d", x)}
			}
			return x, nil
		}
	}
}

// readBody reads a frame body of ln bytes into the reused buffer,
// growing it only as the bytes arrive.
func (f *frameReader) readBody(ln uint64) ([]byte, error) {
	body := f.body[:0]
	for uint64(len(body)) < ln {
		want := int(min(ln-uint64(len(body)), frameChunk))
		body = slices.Grow(body, want)[:len(body)+want]
		if _, err := io.ReadFull(f.r, body[len(body)-want:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	if cap(body) <= maxKeptScratch {
		f.body = body
	}
	f.n += int64(ln)
	return body, nil
}

// decode parses one frame body into a new BatchWire. Nothing in the
// result aliases body: floats are copied into the batch's slabs and
// strings are converted.
func (f *frameReader) decode(body []byte) (*BatchWire, error) {
	h, count, payload, err := domain.ParseFrameHeader(body)
	if err != nil {
		return nil, err
	}
	w := &BatchWire{Batch: h.Batch, Cursor: h.Cursor, Kind: h.Kind}
	p := domain.NewFrameParser(payload)
	switch h.Kind {
	case domain.KindSamples:
		f.samples(w, p, count)
	case domain.KindFusionWindows:
		f.fusionWindows(w, p, count)
	case domain.KindMaterialsGraphs:
		f.materialsGraphs(w, p, count)
	default:
		return nil, fmt.Errorf("client: frame with unknown wire kind %q", h.Kind)
	}
	if err := p.Finish(); err != nil {
		return nil, err
	}
	return w, nil
}

// The per-kind payload decoders mirror the reference DecodeFramePayload
// of each codec (internal/domain/frames.go) check for check; a failure
// is left in p for decode to return.

func (f *frameReader) samples(w *BatchWire, p *domain.FrameParser, count int) {
	// Every float costs 4 payload bytes, so the slab never reallocates.
	slab := make([]float32, 0, p.Len()/4)
	w.Features = make([][]float32, 0, min(count, maxPrealloc))
	w.Labels = make([]int64, 0, min(count, maxPrealloc))
	for range count {
		n := p.Length(4, "feature count")
		raw := p.Bytes(4*n, "features")
		label := p.Varint("label")
		if p.Err() == nil && (label < math.MinInt32 || label > math.MaxInt32) {
			p.Fail("label %d out of int32 range", label)
		}
		if p.Err() != nil {
			return
		}
		a := len(slab)
		slab = f.appendF32s(slab, raw)
		w.Features = append(w.Features, slab[a:len(slab):len(slab)])
		w.Labels = append(w.Labels, label)
	}
}

func (f *frameReader) fusionWindows(w *BatchWire, p *domain.FrameParser, count int) {
	slab := make([]float32, 0, p.Len()/4)
	c := min(count, maxPrealloc)
	w.Labels = make([]int64, 0, c)
	w.Signals = make([][]float32, 0, c)
	w.Shots = make([]int64, 0, c)
	w.Starts = make([]int64, 0, c)
	w.Horizons = make([]float32, 0, c)
	for range count {
		n := p.Length(4, "signal length")
		if p.Err() == nil && n == 0 {
			p.Fail("fusion window without signal floats")
		}
		raw := p.Bytes(4*n, "signal")
		shot := p.Varint("shot")
		start := p.Varint("start")
		label := p.Varint("label")
		horizon := p.Bytes(4, "horizon")
		if p.Err() != nil {
			return
		}
		a := len(slab)
		slab = f.appendF32s(slab, raw)
		w.Signals = append(w.Signals, slab[a:len(slab):len(slab)])
		w.Shots = append(w.Shots, shot)
		w.Starts = append(w.Starts, start)
		w.Labels = append(w.Labels, label)
		w.Horizons = append(w.Horizons, math.Float32frombits(binary.LittleEndian.Uint32(horizon)))
	}
}

func (f *frameReader) materialsGraphs(w *BatchWire, p *domain.FrameParser, count int) {
	// Node features and edge lengths cost 8 payload bytes each. Edge
	// endpoints are varints, so their count is known only once the
	// frame is parsed: they collect in the reused scratch and are copied
	// into one exactly sized slab at the end.
	slab := make([]float64, 0, p.Len()/8)
	edges := f.edges[:0]
	w.Graphs = make([]Graph, 0, min(count, maxPrealloc))
	for range count {
		nodes := p.Uvarint("node count")
		dim := p.Uvarint("feature dim")
		if p.Err() == nil && (nodes < 1 || dim < 1 || nodes > domain.MaxFrameBytes || dim > domain.MaxFrameBytes) {
			p.Fail("graph shape [%d,%d] out of range", nodes, dim)
		}
		// nodes and dim are each <= 2^28 here, so the product cannot
		// overflow uint64; the byte bound then caps the slice.
		if p.Err() == nil && nodes*dim > uint64(p.Len())/8 {
			p.Fail("node_features [%d,%d] exceeds %d remaining payload bytes", nodes, dim, p.Len())
		}
		if p.Err() != nil {
			return
		}
		feats := p.Bytes(8*int(nodes*dim), "node_features")
		ne := p.Length(2, "edge count") // each edge is two >=1-byte varints
		for range 2 * ne {
			e := p.Uvarint("edge endpoint")
			if p.Err() == nil && e >= nodes {
				p.Fail("edge endpoint %d outside %d nodes", e, nodes)
			}
			if p.Err() != nil {
				return
			}
			edges = append(edges, int64(e))
		}
		lengths := p.Bytes(8*ne, "edge_lengths")
		energy := p.Bytes(8, "energy")
		class := p.Varint("class_id")
		if p.Err() != nil {
			return
		}
		a := len(slab)
		slab = f.appendF64s(slab, feats)
		b := len(slab)
		slab = f.appendF64s(slab, lengths)
		w.Graphs = append(w.Graphs, Graph{
			Nodes:        int(nodes),
			FeatureDim:   int(dim),
			NodeFeatures: slab[a:b:b],
			EdgeLengths:  slab[b:len(slab):len(slab)],
			Energy:       math.Float64frombits(binary.LittleEndian.Uint64(energy)),
			ClassID:      class,
		})
	}
	if cap(edges)*8 <= maxKeptScratch {
		f.edges = edges
	}
	// Never nil, so a graph without edges gets an empty, non-nil slice.
	all := append(make([]int64, 0, len(edges)), edges...)
	a := 0
	for i := range w.Graphs {
		b := a + 2*len(w.Graphs[i].EdgeLengths)
		w.Graphs[i].Edges = all[a:b:b]
		a = b
	}
}

// appendF32s appends the little-endian float32s of raw to dst, within
// the capacity the caller sized from the payload.
func (f *frameReader) appendF32s(dst []float32, raw []byte) []float32 {
	a, n := len(dst), len(raw)/4
	dst = dst[:a+n]
	if n == 0 {
		return dst
	}
	if f.loop {
		for i := range n {
			dst[a+i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		return dst
	}
	// Viewed as bytes, the destination is always aligned; raw need not be.
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[a])), 4*n), raw)
	return dst
}

// appendF64s is appendF32s for float64s.
func (f *frameReader) appendF64s(dst []float64, raw []byte) []float64 {
	a, n := len(dst), len(raw)/8
	dst = dst[:a+n]
	if n == 0 {
		return dst
	}
	if f.loop {
		for i := range n {
			dst[a+i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		return dst
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[a])), 8*n), raw)
	return dst
}
