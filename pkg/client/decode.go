// The NDJSON line decoder: one pass over a batch line into BatchWire,
// without reflection. It accepts what encoding/json would accept into
// a BatchWire and yields the same value (FuzzDecodeBatchLine holds it
// to that), with one deliberate exception: a field that appears twice
// in one object is an error, where encoding/json would merge or
// overwrite.
//
// Numbers are converted in the same scan that checks their grammar.
// The number arrays, which hold nearly every byte of a line, are each
// one loop over plain elements (-?digits.digits, at most 19 digits);
// any other element goes to the scalar reader, whose scan takes the
// full grammar and keeps the sign, up to 19 significant digits and the
// exponent. Both convert exactly where they can: Clinger's fast path,
// then Eisel-Lemire, and integers within int64 directly. Every other
// number — more digits, an exponent outside the table, a float32
// midpoint, a rounding too close to call — goes to strconv, so values,
// range errors and their texts are strconv's (FuzzLineNumber holds the
// readers to it bit for bit).
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"unsafe"
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
	ends   []int // f32Rows' row ends in buf32, -1 for a null row
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

// number is a number token as the general scan kept it: unless trunc is
// set, its value is exactly ±mant × 10^exp.
type number struct {
	start int    // the token is d.b[start:d.pos] after the scan
	mant  uint64 // the token's first maxMantDigits significant digits
	exp   int    // decimal exponent
	neg   bool
	isInt bool // no fraction and no exponent part
	trunc bool // a nonzero digit after the first maxMantDigits was dropped
}

// maxMantDigits is how many decimal digits always fit in a uint64.
const maxMantDigits = 19

// maxExp caps the exponent the scan accumulates: past it the exponent
// is far outside every exact conversion's range, and stopping there
// keeps it from overflowing.
const maxExp = 1 << 20

// number steps over a number token, checking it against the JSON
// grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and keeping
// its sign, significant digits and exponent in the same pass. Leading
// zeros are not significant: 0.000001234 keeps 1234 and exponent -9.
func (d *lineDecoder) number(n *number) error {
	b, i := d.b, d.pos
	start, neg, isInt := i, false, true
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	var mant uint64
	sig, nd, exp := i, 0, 0 // the first significant digit, their count
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, mant = digitRun(b, i, 0)
		nd = i - sig
	default:
		return d.errorf("invalid value")
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
			sig = i
		}
		run := i
		i, mant = digitRun(b, i, mant)
		if i == frac {
			return d.errorf("invalid number")
		}
		nd += i - run
		exp, isInt = frac-i, false
	}
	trunc := false
	if nd > maxMantDigits {
		// mant wrapped: keep the leading digits, and scale by the rest.
		mant, trunc = truncate(b[sig:i])
		exp += nd - maxMantDigits
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
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
		if eneg {
			e = -e
		}
		exp += e
		isInt = false
	}
	// Field by field: a composite literal is built on the stack and
	// copied, and the copy's wide loads stall on the narrow stores.
	n.start, n.mant, n.exp, n.neg, n.isInt, n.trunc = start, mant, exp, neg, isInt, trunc
	d.pos = i
	return nil
}

// digitRun steps over the run of digits at i, appending them to mant,
// which wraps past 19 digits.
func digitRun(b []byte, i int, mant uint64) (int, uint64) {
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		mant = mant*10 + uint64(c)
	}
	return i, mant
}

// truncate keeps the first maxMantDigits digits of a run of significant
// digits (a '.' among them is skipped) and reports whether a nonzero
// digit follows them.
func truncate(sig []byte) (mant uint64, trunc bool) {
	nd := 0
	for _, c := range sig {
		switch {
		case c == '.':
		case nd < maxMantDigits:
			mant = mant*10 + uint64(c-'0')
			nd++
		case c != '0':
			return mant, true
		}
	}
	return mant, false
}

// plain scans the number token at i when it is plain, the way the
// server writes nearly every number: -?(0|[1-9][0-9]*)(\.[0-9]+)? with
// at most maxMantDigits digits, leading zeros included, so that mant
// holds them all. It returns the token's end and its value ±mant ×
// 10^exp; end is -1 for anything else (null, an exponent, more digits,
// no number at all), which the array readers leave to the general
// scan. That one counts only significant digits, so a long run of
// leading fraction zeros still converts exactly there. (Skipping them
// here too cost the common tokens 10-20 % in BenchmarkDecodeBatchLine.)
func plain(b []byte, i int) (end int, mant uint64, exp int, neg bool) {
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	i, mant = digitRun(b, i, 0)
	nd := i - start
	if nd == 0 || nd > 1 && b[start] == '0' {
		return -1, 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		i, mant = digitRun(b, frac, mant)
		if i == frac {
			return -1, 0, 0, false
		}
		exp = frac - i
		nd += i - frac
	}
	if nd > maxMantDigits || i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		return -1, 0, 0, false
	}
	return i, mant, exp, neg
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// The exact conversions of ±mant × 10^exp, shared by every reader: ok
// is false wherever they cannot vouch for strconv's result, and the
// caller then asks strconv.

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exact64 is Clinger's fast path — a mantissa of at most 2^53 and a
// power of ten of at most 1e22 are both exact float64s, so one multiply
// or divide rounds the decimal correctly — and Eisel-Lemire after it.
func exact64(mant uint64, exp int, neg bool) (float64, bool) {
	if mant > 1<<53 || exp < -22 || exp > 22 {
		return eiselLemire(mant, exp, neg)
	}
	v := float64(int64(mant)) // exact; int64 converts in one instruction, uint64 does not
	if exp < 0 {
		v /= pow10[-exp]
	} else {
		v *= pow10[exp]
	}
	if neg {
		v = -v
	}
	return v, true
}

// exact32 rounds exact64's correctly rounded float64 to float32. That
// equals rounding the decimal itself unless the float64 is a float32
// midpoint: every midpoint is a float64, so none lies strictly between
// the decimal and its nearest float64. A midpoint is a float64 whose 29
// fraction bits below float32's precision are exactly 1000…0; every
// value exact64 yields is zero or within 1e-30 to 2^64×1e22, where that
// test holds and only float32 overflow is left. ok is false for a
// midpoint, for a value past ±MaxFloat32, which strconv rounds or
// refuses, and wherever exact64 declines.
func exact32(mant uint64, exp int, neg bool) (float32, bool) {
	f, ok := exact64(mant, exp, neg)
	if !ok || math.Float64bits(f)&(1<<29-1) == 1<<28 || math.Abs(f) > math.MaxFloat32 {
		return 0, false
	}
	return float32(f), true
}

// exactInt converts ±mant × 10^exp when exp is 0 and it is within
// int64's range.
func exactInt(mant uint64, exp int, neg bool) (int64, bool) {
	switch {
	case exp != 0:
		return 0, false
	case neg && mant <= 1<<63:
		return -int64(mant), true // -2^63 wraps to itself
	case !neg && mant <= math.MaxInt64:
		return int64(mant), true
	}
	return 0, false
}

// Eisel-Lemire's power-of-ten table spans the decimal exponents that a
// decimal of up to 19 digits and magnitude about 1e-30 to 1e41 takes.
// Within it every result is a normal float64, so eiselLemire needs no
// overflow or subnormal case.
const (
	minPow10 = -30
	maxPow10 = 22
)

// pow10x128 holds 10^q for q in [minPow10, maxPow10] as {hi, lo}, the
// 128 leading bits of its binary expansion, rounded down (exact for
// q >= 0); TestEiselLemireTable recomputes every row.
var pow10x128 = [maxPow10 - minPow10 + 1][2]uint64{
	{0xA2425FF75E14FC31, 0xA1258379A94D028D}, // 1e-30
	{0xCAD2F7F5359A3B3E, 0x096EE45813A04330}, // 1e-29
	{0xFD87B5F28300CA0D, 0x8BCA9D6E188853FC}, // 1e-28
	{0x9E74D1B791E07E48, 0x775EA264CF55347D}, // 1e-27
	{0xC612062576589DDA, 0x95364AFE032A819D}, // 1e-26
	{0xF79687AED3EEC551, 0x3A83DDBD83F52204}, // 1e-25
	{0x9ABE14CD44753B52, 0xC4926A9672793542}, // 1e-24
	{0xC16D9A0095928A27, 0x75B7053C0F178293}, // 1e-23
	{0xF1C90080BAF72CB1, 0x5324C68B12DD6338}, // 1e-22
	{0x971DA05074DA7BEE, 0xD3F6FC16EBCA5E03}, // 1e-21
	{0xBCE5086492111AEA, 0x88F4BB1CA6BCF584}, // 1e-20
	{0xEC1E4A7DB69561A5, 0x2B31E9E3D06C32E5}, // 1e-19
	{0x9392EE8E921D5D07, 0x3AFF322E62439FCF}, // 1e-18
	{0xB877AA3236A4B449, 0x09BEFEB9FAD487C2}, // 1e-17
	{0xE69594BEC44DE15B, 0x4C2EBE687989A9B3}, // 1e-16
	{0x901D7CF73AB0ACD9, 0x0F9D37014BF60A10}, // 1e-15
	{0xB424DC35095CD80F, 0x538484C19EF38C94}, // 1e-14
	{0xE12E13424BB40E13, 0x2865A5F206B06FB9}, // 1e-13
	{0x8CBCCC096F5088CB, 0xF93F87B7442E45D3}, // 1e-12
	{0xAFEBFF0BCB24AAFE, 0xF78F69A51539D748}, // 1e-11
	{0xDBE6FECEBDEDD5BE, 0xB573440E5A884D1B}, // 1e-10
	{0x89705F4136B4A597, 0x31680A88F8953030}, // 1e-9
	{0xABCC77118461CEFC, 0xFDC20D2B36BA7C3D}, // 1e-8
	{0xD6BF94D5E57A42BC, 0x3D32907604691B4C}, // 1e-7
	{0x8637BD05AF6C69B5, 0xA63F9A49C2C1B10F}, // 1e-6
	{0xA7C5AC471B478423, 0x0FCF80DC33721D53}, // 1e-5
	{0xD1B71758E219652B, 0xD3C36113404EA4A8}, // 1e-4
	{0x83126E978D4FDF3B, 0x645A1CAC083126E9}, // 1e-3
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x8000000000000000, 0x0000000000000000}, // 1e0
	{0xA000000000000000, 0x0000000000000000}, // 1e1
	{0xC800000000000000, 0x0000000000000000}, // 1e2
	{0xFA00000000000000, 0x0000000000000000}, // 1e3
	{0x9C40000000000000, 0x0000000000000000}, // 1e4
	{0xC350000000000000, 0x0000000000000000}, // 1e5
	{0xF424000000000000, 0x0000000000000000}, // 1e6
	{0x9896800000000000, 0x0000000000000000}, // 1e7
	{0xBEBC200000000000, 0x0000000000000000}, // 1e8
	{0xEE6B280000000000, 0x0000000000000000}, // 1e9
	{0x9502F90000000000, 0x0000000000000000}, // 1e10
	{0xBA43B74000000000, 0x0000000000000000}, // 1e11
	{0xE8D4A51000000000, 0x0000000000000000}, // 1e12
	{0x9184E72A00000000, 0x0000000000000000}, // 1e13
	{0xB5E620F480000000, 0x0000000000000000}, // 1e14
	{0xE35FA931A0000000, 0x0000000000000000}, // 1e15
	{0x8E1BC9BF04000000, 0x0000000000000000}, // 1e16
	{0xB1A2BC2EC5000000, 0x0000000000000000}, // 1e17
	{0xDE0B6B3A76400000, 0x0000000000000000}, // 1e18
	{0x8AC7230489E80000, 0x0000000000000000}, // 1e19
	{0xAD78EBC5AC620000, 0x0000000000000000}, // 1e20
	{0xD8D726B7177A8000, 0x0000000000000000}, // 1e21
	{0x878678326EAC9000, 0x0000000000000000}, // 1e22
}

// eiselLemire converts ±mant × 10^exp10 to the nearest float64 by
// Eisel-Lemire (Lemire, "Number Parsing at a Gigabyte per Second",
// arXiv:2101.11408), the algorithm strconv itself tries first. The
// normalised mantissa times the 128-bit power of ten yields the
// float64's 54 leading bits, unless the product's discarded bits leave
// the rounding in doubt or the decimal may sit exactly halfway between
// two float64s; ok is false then, and for an exponent outside the
// table.
func eiselLemire(mant uint64, exp10 int, neg bool) (float64, bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	clz := bits.LeadingZeros64(mant)
	mant <<= clz
	// 217706/2^16 is log2(10) closely enough that the shift floors
	// exp10 × log2(10) across the table.
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	pow := &pow10x128[exp10-minPow10]
	hi, lo := bits.Mul64(mant, pow[0])
	if hi&0x1ff == 0x1ff && lo+mant < mant {
		// The low word of the power may carry into the bits that round.
		yhi, ylo := bits.Mul64(mant, pow[1])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1ff == 0x1ff && mlo+1 == 0 && ylo+mant < mant {
			return 0, false
		}
		hi, lo = mhi, mlo
	}
	msb := hi >> 63
	m := hi >> (msb + 9) // 54 bits
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		// Possibly exactly halfway to an even mantissa below, which
		// only all the digits can tell.
		return 0, false
	}
	m += m & 1 // round to 53 bits, half up
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// Scalars: null is zero; numbers parse exactly as encoding/json parses
// them into the field's type, a range error included. The general scan
// keeps the number and the exact conversions convert it where they
// can; strconv parses the rest — the token in place — so values, range
// errors and their texts are strconv's.

func (d *lineDecoder) i64() (int64, error) {
	if d.null() {
		return 0, nil
	}
	var n number
	if err := d.number(&n); err != nil {
		return 0, err
	}
	if n.isInt {
		if v, ok := exactInt(n.mant, n.exp, n.neg); ok {
			return v, nil
		}
	}
	tok := d.b[n.start:d.pos]
	v, err := strconv.ParseInt(token(tok), 10, 64)
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
	if !n.trunc {
		if v, ok := exact64(n.mant, n.exp, n.neg); ok {
			return v, nil
		}
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
	if !n.trunc {
		if v, ok := exact32(n.mant, n.exp, n.neg); ok {
			return v, nil
		}
	}
	v, err := d.parseFloat(&n, 32)
	return float32(v), err
}

func (d *lineDecoder) parseFloat(n *number, bits int) (float64, error) {
	tok := d.b[n.start:d.pos]
	v, err := strconv.ParseFloat(token(tok), bits)
	if err != nil {
		return 0, d.errorf("%s is out of float%d range", tok, bits)
	}
	return v, nil
}

// token views a scanned number token as a string without copying it;
// strconv keeps no reference to its argument (its errors copy it).
func token(tok []byte) string { return unsafe.String(&tok[0], len(tok)) }

// Number arrays: null is nil. Each reader is one loop that scans a
// plain element, converts it exactly and steps over a comma right
// after it (anything else after it goes through next). Any other
// element — null, an exponent, a long mantissa, a value the exact
// conversions decline, an error — is read by the scalar reader
// instead, from its first byte. The elements gather in the decoder's
// scratch, and the reader returns a copy the caller owns.

func (d *lineDecoder) f32s() ([]float32, error) {
	if d.null() {
		return nil, nil
	}
	buf, err := d.f32Array(d.buf32[:0])
	d.buf32 = keep(buf)
	if err != nil {
		return nil, err
	}
	return owned(buf), nil
}

// f32Array appends the elements of the float32 array at pos to buf.
func (d *lineDecoder) f32Array(buf []float32) ([]float32, error) {
	more, err := d.enter('[', ']')
	for err == nil && more {
		end, mant, exp, neg := plain(d.b, d.pos)
		v, ok := exact32(mant, exp, neg)
		if end < 0 || !ok {
			if v, err = d.f32(); err != nil {
				break
			}
		} else {
			d.pos = end
		}
		buf = append(buf, v)
		if i := d.pos; i+1 < len(d.b) && d.b[i] == ',' && d.b[i+1] > ' ' {
			d.pos = i + 1 // the next element follows the comma
			continue
		}
		more, err = d.next(']')
	}
	return buf, err
}

func (d *lineDecoder) f64s() ([]float64, error) {
	if d.null() {
		return nil, nil
	}
	buf := d.buf64[:0]
	more, err := d.enter('[', ']')
	for err == nil && more {
		end, mant, exp, neg := plain(d.b, d.pos)
		v, ok := exact64(mant, exp, neg)
		if end < 0 || !ok {
			if v, err = d.f64(); err != nil {
				break
			}
		} else {
			d.pos = end
		}
		buf = append(buf, v)
		if i := d.pos; i+1 < len(d.b) && d.b[i] == ',' && d.b[i+1] > ' ' {
			d.pos = i + 1 // the next element follows the comma
			continue
		}
		more, err = d.next(']')
	}
	d.buf64 = keep(buf)
	if err != nil {
		return nil, err
	}
	return owned(buf), nil
}

func (d *lineDecoder) i64s() ([]int64, error) {
	if d.null() {
		return nil, nil
	}
	buf := d.bufInt[:0]
	more, err := d.enter('[', ']')
	for err == nil && more {
		end, mant, exp, neg := plain(d.b, d.pos)
		v, ok := exactInt(mant, exp, neg)
		if end < 0 || !ok {
			if v, err = d.i64(); err != nil {
				break
			}
		} else {
			d.pos = end
		}
		buf = append(buf, v)
		if i := d.pos; i+1 < len(d.b) && d.b[i] == ',' && d.b[i+1] > ' ' {
			d.pos = i + 1 // the next element follows the comma
			continue
		}
		more, err = d.next(']')
	}
	d.bufInt = keep(buf)
	if err != nil {
		return nil, err
	}
	return owned(buf), nil
}

// f32Rows reads an array of float32 arrays (null is nil, and so is a
// null row). All its rows share one backing array, each clipped to its
// own length, as a frame batch's do.
func (d *lineDecoder) f32Rows() ([][]float32, error) {
	if d.null() {
		return nil, nil
	}
	buf, ends := d.buf32[:0], d.ends[:0]
	more, err := d.enter('[', ']')
	for err == nil && more {
		if d.null() {
			ends = append(ends, -1)
		} else if buf, err = d.f32Array(buf); err == nil {
			ends = append(ends, len(buf))
		}
		if err == nil {
			more, err = d.next(']')
		}
	}
	d.buf32, d.ends = keep(buf), keep(ends)
	if err != nil {
		return nil, err
	}
	slab, rows, a := owned(buf), make([][]float32, len(ends)), 0
	for i, e := range ends {
		if e >= 0 {
			rows[i], a = slab[a:e:e], e
		}
	}
	return rows, nil
}

// owned copies a scratch buffer into a slice of the caller's, non-nil
// even when empty as json.Unmarshal leaves it. Appending to a nil slice
// leaves the new elements unzeroed before the copy, where make would
// clear them first.
func owned[T any](buf []T) []T {
	if len(buf) == 0 {
		return []T{}
	}
	return append([]T(nil), buf...)
}

// keep hands a scratch buffer back for the next array while it is
// within maxKeptScratch bytes, and drops it beyond that.
func keep[T any](buf []T) []T {
	var v T
	if cap(buf)*int(unsafe.Sizeof(v)) > maxKeptScratch {
		return nil
	}
	return buf
}

func (d *lineDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("client: batch line byte %d: %s", d.pos, fmt.Sprintf(format, args...))
}
