// The NDJSON line decoder: one pass over a batch line into BatchWire,
// without reflection. It accepts what encoding/json would accept into
// a BatchWire and yields the same value (FuzzDecodeBatchLine holds it
// to that), with one deliberate exception: a field that appears twice
// in one object is an error, where encoding/json would merge or
// overwrite.
//
// Numbers are converted in the same scan that checks their grammar:
// the scan keeps the sign, up to 19 digits and the exponent, and the
// typed readers convert that exactly wherever one IEEE operation can
// (Clinger's fast path) or the integer has at most 18 digits. Every
// other number — more digits, an exponent outside ±22, a float32
// midpoint, anything near the edges of the range — goes to strconv,
// so values, range errors and their texts are strconv's
// (FuzzLineNumber holds the readers to it bit for bit).
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// maxLineDepth is encoding/json's nesting limit for arrays and objects.
const maxLineDepth = 10000

// Member names of a batch line and of a graph element, in BatchWire
// and Graph field order; the index of a name is its bit in the
// decoder's seen-fields mask.
var (
	batchFields = fieldNames("batch", "cursor", "kind", "features", "labels",
		"signals", "shots", "starts", "horizons", "graphs", "error")
	graphFields = fieldNames("nodes", "feature_dim", "node_features", "edges",
		"edge_lengths", "energy", "class_id")
)

func fieldNames(names ...string) [][]byte {
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = []byte(n)
	}
	return out
}

// lineDecoder parses batch lines. Its scratch buffers are reused from
// line to line, so one decoder serves one stream at a time.
type lineDecoder struct {
	b      []byte
	pos    int
	depth  int
	buf32  []float32
	buf64  []float64
	bufInt []int64
}

// decode parses one line (without its newline) into w.
func (d *lineDecoder) decode(line []byte, w *BatchWire) error {
	d.b, d.pos, d.depth = line, 0, 0
	*w = BatchWire{}
	d.ws()
	if !d.null() {
		if d.peek() != '{' {
			return d.errorf("batch line is not a JSON object")
		}
		if err := d.batch(w); err != nil {
			return err
		}
	}
	d.ws()
	if d.pos != len(d.b) {
		return d.errorf("invalid character %q after the batch object", d.b[d.pos])
	}
	return nil
}

func (d *lineDecoder) batch(w *BatchWire) error {
	var seen uint32
	more, err := d.enter('{', '}')
	for err == nil && more {
		var f int
		if f, err = d.member(batchFields, &seen); err != nil {
			break
		}
		switch f {
		case 0:
			w.Batch, err = d.intValue()
		case 1:
			w.Cursor, err = d.str()
		case 2:
			w.Kind, err = d.str()
		case 3:
			w.Features, err = d.f32Rows()
		case 4:
			w.Labels, err = d.i64s()
		case 5:
			w.Signals, err = d.f32Rows()
		case 6:
			w.Shots, err = d.i64s()
		case 7:
			w.Starts, err = d.i64s()
		case 8:
			w.Horizons, err = d.f32s()
		case 9:
			w.Graphs, err = d.graphs()
		case 10:
			w.Error, err = d.str()
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return err
}

func (d *lineDecoder) graphs() ([]Graph, error) {
	if d.null() {
		return nil, nil
	}
	gs := []Graph{}
	more, err := d.enter('[', ']')
	for err == nil && more {
		gs = append(gs, Graph{})
		if !d.null() {
			err = d.graph(&gs[len(gs)-1])
		}
		if err == nil {
			more, err = d.next(']')
		}
	}
	return gs, err
}

func (d *lineDecoder) graph(g *Graph) error {
	var seen uint32
	more, err := d.enter('{', '}')
	for err == nil && more {
		var f int
		if f, err = d.member(graphFields, &seen); err != nil {
			break
		}
		switch f {
		case 0:
			g.Nodes, err = d.intValue()
		case 1:
			g.FeatureDim, err = d.intValue()
		case 2:
			g.NodeFeatures, err = d.f64s()
		case 3:
			g.Edges, err = d.i64s()
		case 4:
			g.EdgeLengths, err = d.f64s()
		case 5:
			g.Energy, err = d.f64()
		case 6:
			g.ClassID, err = d.i64()
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return err
}

// member reads an object member's key and colon and resolves the key
// the way encoding/json matches struct fields — exact name first, then
// case-insensitively — returning the field's index with the decoder at
// its value, or -1 after skipping the value of an unknown key. A field
// seen before in the same object is an error.
func (d *lineDecoder) member(names [][]byte, seen *uint32) (int, error) {
	if d.peek() != '"' {
		return 0, d.errorf("object key is not a string")
	}
	key, err := d.key()
	if err != nil {
		return 0, err
	}
	d.ws()
	if d.peek() != ':' {
		return 0, d.errorf("missing ':' after object key")
	}
	d.pos++
	d.ws()
	f := -1
	for i, n := range names {
		if bytes.Equal(key, n) {
			f = i
			break
		}
	}
	if f < 0 {
		for i, n := range names {
			if bytes.EqualFold(key, n) {
				f = i
				break
			}
		}
	}
	if f < 0 {
		return -1, d.skip()
	}
	if *seen&(1<<f) != 0 {
		return 0, d.errorf("field %q repeated", names[f])
	}
	*seen |= 1 << f
	return f, nil
}

// enter consumes the open byte of an object or array (enforcing the
// depth limit) and reports whether it has a first member or element,
// leaving the decoder at it.
func (d *lineDecoder) enter(open, close byte) (more bool, err error) {
	if d.peek() != open {
		return false, d.errorf("expected %c", open)
	}
	d.depth++
	if d.depth > maxLineDepth {
		return false, d.errorf("nesting deeper than %d", maxLineDepth)
	}
	d.pos++
	d.ws()
	if d.peek() == close {
		d.pos++
		d.depth--
		return false, nil
	}
	return true, nil
}

// next steps over the separator after a member or element: a comma
// (more follow) or the close byte of the object or array.
func (d *lineDecoder) next(close byte) (more bool, err error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.pos++
		d.ws()
		return true, nil
	case close:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.errorf("missing ',' or %c", close)
}

// skip validates and steps over one value of any type.
func (d *lineDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		var seen uint32
		more, err := d.enter('{', '}')
		for err == nil && more {
			// No names: every key is unknown and its value skipped.
			if _, err = d.member(nil, &seen); err == nil {
				more, err = d.next('}')
			}
		}
		return err
	case c == '[':
		more, err := d.enter('[', ']')
		for err == nil && more {
			if err = d.skip(); err == nil {
				more, err = d.next(']')
			}
		}
		return err
	case c == '"':
		_, _, err := d.stringToken()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		var n number
		return d.number(&n)
	}
}

func (d *lineDecoder) literal(word string) error {
	if !bytes.HasPrefix(d.b[d.pos:], []byte(word)) {
		return d.errorf("invalid literal")
	}
	d.pos += len(word)
	return nil
}

// null consumes a null literal if one is next.
func (d *lineDecoder) null() bool {
	if len(d.b)-d.pos >= 4 && string(d.b[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

func (d *lineDecoder) ws() {
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *lineDecoder) peek() byte {
	if d.pos < len(d.b) {
		return d.b[d.pos]
	}
	return 0
}

// stringToken steps over the string at pos, validating its escapes
// and rejecting raw control characters. It returns the bytes between
// the quotes and whether they are plain — no escapes, nothing outside
// ASCII — and so already the decoded value.
func (d *lineDecoder) stringToken() (raw []byte, plain bool, err error) {
	start := d.pos + 1
	plain = true
	for i := start; i < len(d.b); {
		switch c := d.b[i]; {
		case c == '"':
			d.pos = i + 1
			return d.b[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(d.b) {
				return nil, false, d.errorf("unterminated string")
			}
			switch d.b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(d.b) || !isHex(d.b[i+2]) || !isHex(d.b[i+3]) || !isHex(d.b[i+4]) || !isHex(d.b[i+5]) {
					return nil, false, d.errorf("invalid \\u escape")
				}
				i += 6
			default:
				return nil, false, d.errorf("invalid escape \\%c", d.b[i+1])
			}
		case c < 0x20:
			return nil, false, d.errorf("control character in string")
		default:
			if c >= 0x80 {
				plain = false
			}
			i++
		}
	}
	return nil, false, d.errorf("unterminated string")
}

// key decodes an object key.
func (d *lineDecoder) key() ([]byte, error) {
	start := d.pos
	raw, plain, err := d.stringToken()
	if err != nil || plain {
		return raw, err
	}
	var s string
	if err := json.Unmarshal(d.b[start:d.pos], &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// str decodes a string value (null is "").
func (d *lineDecoder) str() (string, error) {
	if d.null() {
		return "", nil
	}
	if d.peek() != '"' {
		return "", d.errorf("expected a string")
	}
	start := d.pos
	raw, plain, err := d.stringToken()
	if err != nil || plain {
		return string(raw), err
	}
	var s string
	err = json.Unmarshal(d.b[start:d.pos], &s)
	return s, err
}

// number is a number token and its value as the scan kept it: the
// value is ±mant × 10^exp whenever nd <= maxMantDigits.
type number struct {
	start int    // the token is d.b[start:d.pos] after the scan
	mant  uint64 // the token's first maxMantDigits digits
	nd    int    // digits in the token, leading zeros included
	exp   int    // decimal exponent
	neg   bool
	isInt bool // no fraction and no exponent part
}

// maxMantDigits is how many decimal digits always fit in a uint64.
const maxMantDigits = 19

// maxExp caps the exponent the scan accumulates: past it the exponent
// is far outside every fast path's range, and stopping there keeps it
// from overflowing.
const maxExp = 1 << 20

// number steps over a number token, checking it against the JSON
// grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and keeping
// its sign, digits and exponent in the same pass.
func (d *lineDecoder) number(n *number) error {
	b, i := d.b, d.pos
	*n = number{start: i, isInt: true}
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i, n.nd = i+1, 1
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, n.mant, n.nd = digits(b, i, 0, 0)
	default:
		return d.errorf("invalid value")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return d.errorf("invalid number")
		}
		frac := i
		i, n.mant, n.nd = digits(b, i, n.mant, n.nd)
		n.exp, n.isInt = frac-i, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return d.errorf("invalid number")
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < maxExp {
				e = e*10 + int(b[i]-'0')
			}
		}
		if neg {
			e = -e
		}
		n.exp += e
		n.isInt = false
	}
	d.pos = i
	return nil
}

// digits steps over the run of digits at i, adding them to mant while
// it has room and counting them all in nd.
func digits(b []byte, i int, mant uint64, nd int) (int, uint64, int) {
	for ; i < len(b) && isDigit(b[i]); i++ {
		if nd < maxMantDigits {
			mant = mant*10 + uint64(b[i]-'0')
		}
		nd++
	}
	return i, mant, nd
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float64 is Clinger's fast path, strconv's own atof64exact rule: a
// mantissa of at most 2^53 and a power of ten of at most 1e22 are both
// exact float64s, so one multiply or divide rounds the decimal
// correctly. ok is false for every other number.
func (n *number) float64() (v float64, ok bool) {
	if n.nd > maxMantDigits || n.mant > 1<<53 || n.exp < -22 || n.exp > 22 {
		return 0, false
	}
	v = float64(n.mant)
	if n.exp < 0 {
		v /= pow10[-n.exp]
	} else {
		v *= pow10[n.exp]
	}
	if n.neg {
		v = -v
	}
	return v, true
}

// float32 rounds the exact float64 to float32. That equals rounding the
// decimal itself unless the float64 is a float32 midpoint: every
// midpoint is a float64, so none lies strictly between the decimal and
// its nearest float64. A midpoint is a float64 whose 29 fraction bits
// below float32's precision are exactly 1000…0; the fast path's range,
// 1e-22 to 2^53×1e22, is inside float32's normal range, where that
// test holds. ok is false for a midpoint and for every number float64
// rejects.
func (n *number) float32() (v float32, ok bool) {
	f, ok := n.float64()
	if !ok || math.Float64bits(f)&(1<<29-1) == 1<<28 {
		return 0, false
	}
	return float32(f), true
}

// int64 converts an integer token of at most 18 digits, which always
// fits. ok is false for every other number.
func (n *number) int64() (v int64, ok bool) {
	if !n.isInt || n.nd > 18 {
		return 0, false
	}
	v = int64(n.mant)
	if n.neg {
		v = -v
	}
	return v, true
}

// Scalars: null is zero; numbers parse exactly as encoding/json parses
// them into the field's type, a range error included. The exact fast
// paths above convert what they can; strconv parses the rest.

func (d *lineDecoder) i64() (int64, error) {
	if d.null() {
		return 0, nil
	}
	var n number
	if err := d.number(&n); err != nil {
		return 0, err
	}
	if v, ok := n.int64(); ok {
		return v, nil
	}
	tok := d.b[n.start:d.pos]
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, d.errorf("%s is not a 64-bit integer", tok)
	}
	return v, nil
}

func (d *lineDecoder) intValue() (int, error) {
	v, err := d.i64()
	if err == nil && int64(int(v)) != v {
		err = d.errorf("%d overflows int", v)
	}
	return int(v), err
}

func (d *lineDecoder) f64() (float64, error) {
	if d.null() {
		return 0, nil
	}
	var n number
	if err := d.number(&n); err != nil {
		return 0, err
	}
	if v, ok := n.float64(); ok {
		return v, nil
	}
	return d.parseFloat(&n, 64)
}

func (d *lineDecoder) f32() (float32, error) {
	if d.null() {
		return 0, nil
	}
	var n number
	if err := d.number(&n); err != nil {
		return 0, err
	}
	if v, ok := n.float32(); ok {
		return v, nil
	}
	v, err := d.parseFloat(&n, 32)
	return float32(v), err
}

// parseFloat is the fallback for the numbers the fast paths leave.
func (d *lineDecoder) parseFloat(n *number, bits int) (float64, error) {
	tok := d.b[n.start:d.pos]
	v, err := strconv.ParseFloat(string(tok), bits)
	if err != nil {
		return 0, d.errorf("%s is out of float%d range", tok, bits)
	}
	return v, nil
}

// numbers parses a number array (null is nil) through a scratch
// buffer, returning an exactly-sized copy.
func numbers[T any](d *lineDecoder, scratch *[]T, elem func(*lineDecoder) (T, error)) ([]T, error) {
	if d.null() {
		return nil, nil
	}
	buf := (*scratch)[:0]
	more, err := d.enter('[', ']')
	for err == nil && more {
		var v T
		if v, err = elem(d); err == nil {
			buf = append(buf, v)
			more, err = d.next(']')
		}
	}
	*scratch = buf
	if err != nil {
		return nil, err
	}
	return append(make([]T, 0, len(buf)), buf...), nil
}

func (d *lineDecoder) f32s() ([]float32, error) { return numbers(d, &d.buf32, (*lineDecoder).f32) }
func (d *lineDecoder) f64s() ([]float64, error) { return numbers(d, &d.buf64, (*lineDecoder).f64) }
func (d *lineDecoder) i64s() ([]int64, error)   { return numbers(d, &d.bufInt, (*lineDecoder).i64) }

func (d *lineDecoder) f32Rows() ([][]float32, error) {
	if d.null() {
		return nil, nil
	}
	rows := [][]float32{}
	more, err := d.enter('[', ']')
	for err == nil && more {
		var row []float32
		if row, err = d.f32s(); err == nil {
			rows = append(rows, row)
			more, err = d.next(']')
		}
	}
	return rows, err
}

func (d *lineDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("client: batch line byte %d: %s", d.pos, fmt.Sprintf(format, args...))
}
