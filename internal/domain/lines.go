// NDJSON batch lines from per-record JSON fragments. A batch line is
//
//	{"batch":N,"cursor":"…","kind":"…"     header fields
//	,"<col>":[e_a,…,e_b-1]                   one per line column of the kind
//	}\n
//
// where e_i is record i's element of that column, exactly as
// encoding/json writes it. Each element depends on its record alone,
// so a shard's records are encoded once into per-column fragments
// (EncodeBatchJSON, straight from the columns of the wire.Batch the
// sidecar payload decodes into) and any record range of any batch is a
// contiguous slice of them — the NDJSON sibling of
// EncodeRecordPayloads. The line built this way is byte-identical to
// json.Marshal(Codec.Line(h, recs)) plus "\n" (pinned by
// TestLineFragmentsMatchMarshal).
package domain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/wire"
)

// LineFragments is one shard's records encoded as NDJSON line
// fragments: per line column, every record's element followed by a
// comma, with per-record offsets.
type LineFragments struct {
	opens [][]byte // per column, the `,"<col>":[` that opens it in a line
	cols  [][]byte
	// offs[k] has Count()+1 entries; record i's element of column k is
	// cols[k][offs[k][i]:offs[k][i+1]-1] (the last byte is its comma).
	offs [][]int64
}

// Count is the number of records encoded.
func (f *LineFragments) Count() int { return len(f.offs[0]) - 1 }

// MemBytes is the resident size of the fragments and their offsets.
func (f *LineFragments) MemBytes() int64 {
	var n int64
	for k := range f.cols {
		n += int64(len(f.cols[k])) + int64(len(f.offs[k]))*8
	}
	return n
}

// EncodeBatchJSON encodes every record of b into per-column line
// fragments, the columns and element encoding chosen by b's kind. It
// fails where json.Marshal of a line holding the same records fails
// (NaN or ±Inf), with the same message.
func EncodeBatchJSON(b *wire.Batch) (*LineFragments, error) {
	var names []string
	var appendRecord func(cols [][]byte, i int) error
	switch b.Kind {
	case wire.KindSamples:
		names = []string{"features", "labels"}
		appendRecord = func(cols [][]byte, i int) (err error) {
			if cols[0], err = appendJSONFloat32s(cols[0], b.Features[i]); err != nil {
				return err
			}
			cols[1] = strconv.AppendInt(cols[1], b.Labels[i], 10)
			return nil
		}
	case wire.KindFusionWindows:
		names = []string{"labels", "signals", "shots", "starts", "horizons"}
		appendRecord = func(cols [][]byte, i int) (err error) {
			cols[0] = strconv.AppendInt(cols[0], b.Labels[i], 10)
			if cols[1], err = appendJSONFloat32s(cols[1], b.Signals[i]); err != nil {
				return err
			}
			cols[2] = strconv.AppendInt(cols[2], b.Shots[i], 10)
			cols[3] = strconv.AppendInt(cols[3], b.Starts[i], 10)
			cols[4], err = appendJSONFloat(cols[4], float64(b.Horizons[i]), 32)
			return err
		}
	case wire.KindMaterialsGraphs:
		names = []string{"graphs"}
		appendRecord = func(cols [][]byte, i int) (err error) {
			cols[0], err = appendGraphJSON(cols[0], &b.Graphs[i])
			return err
		}
	default:
		return nil, fmt.Errorf("domain: no NDJSON line for wire kind %q", b.Kind)
	}
	n := b.Count()
	f := &LineFragments{opens: make([][]byte, len(names)), cols: make([][]byte, len(names)), offs: make([][]int64, len(names))}
	for k, name := range names {
		f.opens[k] = []byte(`,"` + name + `":[`)
		f.offs[k] = make([]int64, n+1)
	}
	for i := range n {
		if err := appendRecord(f.cols, i); err != nil {
			return nil, err
		}
		for k := range f.cols {
			f.cols[k] = append(f.cols[k], ',')
			f.offs[k][i+1] = int64(len(f.cols[k]))
		}
	}
	// Fragments live in the serving cache, which charges their length:
	// give back the append slack rather than hold up to twice that.
	for k, col := range f.cols {
		if cap(col)-len(col) > len(col)/8 {
			f.cols[k] = bytes.Clone(col)
		}
	}
	return f, nil
}

// appendGraphJSON appends one graph object as encoding/json writes a
// wire.Graph.
func appendGraphJSON(b []byte, g *wire.Graph) (_ []byte, err error) {
	b = append(b, `{"nodes":`...)
	b = strconv.AppendInt(b, int64(g.Nodes), 10)
	b = append(b, `,"feature_dim":`...)
	b = strconv.AppendInt(b, int64(g.FeatureDim), 10)
	b = append(b, `,"node_features":`...)
	if b, err = appendJSONFloat64s(b, g.NodeFeatures); err != nil {
		return nil, err
	}
	b = append(b, `,"edges":`...)
	b = appendJSONInt64s(b, g.Edges)
	b = append(b, `,"edge_lengths":`...)
	if b, err = appendJSONFloat64s(b, g.EdgeLengths); err != nil {
		return nil, err
	}
	b = append(b, `,"energy":`...)
	if b, err = appendJSONFloat(b, g.Energy, 64); err != nil {
		return nil, err
	}
	b = append(b, `,"class_id":`...)
	b = strconv.AppendInt(b, g.ClassID, 10)
	return append(b, '}'), nil
}

// LineRange is the records [A, B) of one shard's fragments.
type LineRange struct {
	F    *LineFragments
	A, B int
}

// AppendLineHeader appends the opening of a batch line: the brace and
// the header fields, without the payload columns that follow them.
func AppendLineHeader(buf []byte, h wire.BatchHeader) []byte {
	buf = append(buf, `{"batch":`...)
	buf = strconv.AppendInt(buf, int64(h.Batch), 10)
	buf = append(buf, `,"cursor":`...)
	buf = appendJSONString(buf, h.Cursor)
	buf = append(buf, `,"kind":`...)
	return appendJSONString(buf, h.Kind)
}

// WriteLineColumns writes the rest of a batch line after its header:
// each column's elements over the ranges in order — ranges from
// different shards joined by a comma — and the closing "}\n". Every
// range must be non-empty and come from fragments of the same kind.
func WriteLineColumns(w io.Writer, rs []LineRange) error {
	if len(rs) == 0 {
		return fmt.Errorf("domain: batch line without records")
	}
	for k, open := range rs[0].F.opens {
		if _, err := w.Write(open); err != nil {
			return err
		}
		for i, r := range rs {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			off := r.F.offs[k]
			if _, err := w.Write(r.F.cols[k][off[r.A] : off[r.B]-1]); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "]"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// appendJSONString appends s as encoding/json writes a string: HTML-
// safe escaping, invalid UTF-8 as �. Plain printable ASCII — every
// cursor and kind the server mints — is copied; anything else is left
// to encoding/json itself.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendJSONFloat appends f as encoding/json writes a float of the
// given bit size: ES6 number formatting (exponent form below 1e-6 and
// from 1e21, compared in the value's own precision), with e-09 written
// e-9. NaN and ±Inf fail with json.Marshal's message.
func appendJSONFloat(buf []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, bits))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	buf = strconv.AppendFloat(buf, f, format, -1, bits)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, nil
}

// appendJSONFloat32s appends a []float32 as encoding/json does: null
// when nil, else a bracketed list.
func appendJSONFloat32s(buf []byte, vs []float32) ([]byte, error) {
	if vs == nil {
		return append(buf, "null"...), nil
	}
	buf = append(buf, '[')
	var err error
	for i, v := range vs {
		if i > 0 {
			buf = append(buf, ',')
		}
		if buf, err = appendJSONFloat(buf, float64(v), 32); err != nil {
			return nil, err
		}
	}
	return append(buf, ']'), nil
}

// appendJSONFloat64s is appendJSONFloat32s for a []float64.
func appendJSONFloat64s(buf []byte, vs []float64) ([]byte, error) {
	if vs == nil {
		return append(buf, "null"...), nil
	}
	buf = append(buf, '[')
	var err error
	for i, v := range vs {
		if i > 0 {
			buf = append(buf, ',')
		}
		if buf, err = appendJSONFloat(buf, v, 64); err != nil {
			return nil, err
		}
	}
	return append(buf, ']'), nil
}

// appendJSONInt64s appends a []int64 as encoding/json does.
func appendJSONInt64s(buf []byte, vs []int64) []byte {
	if vs == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, v := range vs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, v, 10)
	}
	return append(buf, ']')
}
