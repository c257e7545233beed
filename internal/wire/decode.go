// The frame-payload decoder: the one reader of every kind's payload, on
// both sides of the wire. The SDK decodes each received frame with it,
// and the server decodes a verified sidecar payload with it to fill the
// NDJSON wire. Each kind's payload is decoded into Batch columns, with
// every float of a batch copied into one slab per element type and
// every record a clipped sub-slice of it — no boxed records.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

const (
	// maxKeptScratch caps the bytes of edge scratch a Decoder keeps for
	// the next payload; a larger one is left to the GC.
	maxKeptScratch = 1 << 20
	// maxPrealloc bounds the records a column is allocated for up front:
	// a hostile count grows columns only as records actually decode.
	maxPrealloc = 1024
)

// littleEndian reports whether this host stores floats in the frame's
// byte order, so a payload's floats can be copied as bytes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Decoder decodes frame bodies and payloads into new Batches. Its zero
// value is ready to use; it keeps scratch between calls, so one Decoder
// serves one goroutine at a time. Nothing it returns aliases its input:
// floats are copied into the batch's slabs and strings are converted.
type Decoder struct {
	edges []int64 // materials edge endpoints of the current payload
	// Loop decodes floats with the byte-order loop even where a copy
	// would do. Big-endian hosts always take the loop; tests set Loop to
	// run that path on any host.
	Loop bool
}

// Decode parses one frame body (the bytes after its length prefix)
// into a Batch. An "error" frame yields a *StreamError.
func (d *Decoder) Decode(body []byte) (*Batch, error) {
	h, count, payload, err := ParseFrameHeader(body)
	if err != nil {
		return nil, err
	}
	w, err := d.DecodePayload(h.Kind, payload, count)
	if err != nil {
		return nil, err
	}
	w.Batch, w.Cursor = h.Batch, h.Cursor
	return w, nil
}

// DecodePayload parses exactly count records of kind out of payload,
// consuming it fully, into a Batch that carries the kind and no batch
// index or cursor.
func (d *Decoder) DecodePayload(kind string, payload []byte, count int) (*Batch, error) {
	w := &Batch{Kind: kind}
	p := NewFrameParser(payload)
	switch kind {
	case KindSamples:
		d.samples(w, p, count)
	case KindFusionWindows:
		d.fusionWindows(w, p, count)
	case KindMaterialsGraphs:
		d.materialsGraphs(w, p, count)
	default:
		return nil, fmt.Errorf("wire: payload of unknown wire kind %q", kind)
	}
	if err := p.Finish(); err != nil {
		return nil, err
	}
	return w, nil
}

// A per-kind decoder leaves its failure in p for DecodePayload to
// return.

func (d *Decoder) samples(w *Batch, p *FrameParser, count int) {
	// Every float costs 4 payload bytes, so the slab never reallocates.
	slab := make([]float32, 0, p.Len()/4)
	w.Features = make([][]float32, 0, min(count, maxPrealloc))
	w.Labels = make([]int64, 0, min(count, maxPrealloc))
	for range count {
		n := p.Length(4, "feature count")
		raw := p.Bytes(4*n, "features")
		label := p.Varint("label")
		if p.err == nil && (label < math.MinInt32 || label > math.MaxInt32) {
			p.Fail("label %d out of int32 range", label)
		}
		if p.err != nil {
			return
		}
		a := len(slab)
		slab = d.appendF32s(slab, raw)
		w.Features = append(w.Features, slab[a:len(slab):len(slab)])
		w.Labels = append(w.Labels, label)
	}
}

func (d *Decoder) fusionWindows(w *Batch, p *FrameParser, count int) {
	slab := make([]float32, 0, p.Len()/4)
	c := min(count, maxPrealloc)
	w.Labels = make([]int64, 0, c)
	w.Signals = make([][]float32, 0, c)
	w.Shots = make([]int64, 0, c)
	w.Starts = make([]int64, 0, c)
	w.Horizons = make([]float32, 0, c)
	for range count {
		n := p.Length(4, "signal length")
		if p.err == nil && n == 0 {
			p.Fail("fusion window without signal floats")
		}
		raw := p.Bytes(4*n, "signal")
		shot := p.Varint("shot")
		start := p.Varint("start")
		label := p.Varint("label")
		horizon := p.Bytes(4, "horizon")
		if p.err != nil {
			return
		}
		a := len(slab)
		slab = d.appendF32s(slab, raw)
		w.Signals = append(w.Signals, slab[a:len(slab):len(slab)])
		w.Shots = append(w.Shots, shot)
		w.Starts = append(w.Starts, start)
		w.Labels = append(w.Labels, label)
		w.Horizons = append(w.Horizons, math.Float32frombits(binary.LittleEndian.Uint32(horizon)))
	}
}

func (d *Decoder) materialsGraphs(w *Batch, p *FrameParser, count int) {
	// Node features and edge lengths cost 8 payload bytes each. Edge
	// endpoints are varints, so their count is known only once the
	// payload is parsed: they collect in the reused scratch and are
	// copied into one exactly sized slab at the end.
	slab := make([]float64, 0, p.Len()/8)
	edges := d.edges[:0]
	w.Graphs = make([]Graph, 0, min(count, maxPrealloc))
	for range count {
		nodes := p.Uvarint("node count")
		dim := p.Uvarint("feature dim")
		if p.err == nil && (nodes < 1 || dim < 1 || nodes > MaxFrameBytes || dim > MaxFrameBytes) {
			p.Fail("graph shape [%d,%d] out of range", nodes, dim)
		}
		// nodes and dim are each <= 2^28 here, so the product cannot
		// overflow uint64; the byte bound then caps the slice.
		if p.err == nil && nodes*dim > uint64(p.Len())/8 {
			p.Fail("node_features [%d,%d] exceeds %d remaining payload bytes", nodes, dim, p.Len())
		}
		if p.err != nil {
			return
		}
		feats := p.Bytes(8*int(nodes*dim), "node_features")
		ne := p.Length(2, "edge count") // each edge is two >=1-byte varints
		for range 2 * ne {
			e := p.Uvarint("edge endpoint")
			if p.err == nil && e >= nodes {
				p.Fail("edge endpoint %d outside %d nodes", e, nodes)
			}
			if p.err != nil {
				return
			}
			edges = append(edges, int64(e))
		}
		lengths := p.Bytes(8*ne, "edge_lengths")
		energy := p.Bytes(8, "energy")
		class := p.Varint("class_id")
		if p.err != nil {
			return
		}
		a := len(slab)
		slab = d.appendF64s(slab, feats)
		b := len(slab)
		slab = d.appendF64s(slab, lengths)
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
		d.edges = edges
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
func (d *Decoder) appendF32s(dst []float32, raw []byte) []float32 {
	a, n := len(dst), len(raw)/4
	dst = dst[:a+n]
	if n == 0 {
		return dst
	}
	if d.Loop || !littleEndian {
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
func (d *Decoder) appendF64s(dst []float64, raw []byte) []float64 {
	a, n := len(dst), len(raw)/8
	dst = dst[:a+n]
	if n == 0 {
		return dst
	}
	if d.Loop || !littleEndian {
		for i := range n {
			dst[a+i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		return dst
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[a])), 8*n), raw)
	return dst
}
