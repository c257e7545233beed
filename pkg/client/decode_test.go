package client

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

// decodeSeeds are lines the decoder must accept and decode exactly as
// json.Unmarshal does: server lines of every kind and an error line,
// then reordered, padded, case-folded, escaped, null-laden and
// unknown-key variants.
var decodeSeeds = []string{
	`{"batch":0,"cursor":"0:2","kind":"samples","features":[[0.5,-1.25,1e-7],[3,0,-0]],"labels":[1,2]}`,
	`{"batch":3,"cursor":"1:4","kind":"fusion_windows","labels":[0,1],"signals":[[0.1,0.2],[1e+21]],"shots":[42,-7],"starts":[0,25],"horizons":[0.3,1.25]}`,
	`{"batch":1,"cursor":"2:0","kind":"materials_graphs","graphs":[{"nodes":2,"feature_dim":1,"node_features":[0.5,1],"edges":[0,1],"edge_lengths":[1.5],"energy":-7.25,"class_id":1},{"nodes":1,"feature_dim":1,"node_features":[0],"edges":[],"edge_lengths":[],"energy":0,"class_id":0}]}`,
	`{"error":"shard s-00002 vanished"}`,
	// Reordered members.
	`{"labels":[1],"features":[[2.5]],"kind":"samples","cursor":"0:1","batch":9}`,
	`{"graphs":[{"class_id":3,"energy":1.5e-300,"edge_lengths":[],"edges":[],"node_features":[1],"feature_dim":1,"nodes":1}],"kind":"materials_graphs","batch":2,"cursor":"0:1"}`,
	// Whitespace everywhere JSON allows it, a trailing \r included.
	" \t{ \"batch\" : 1 ,\r\n\"cursor\":\"0:1\" , \"kind\" :\"samples\",\"features\" : [ [ 1 , 2 ] , [ ] ] , \"labels\" : [ 3 , 4 ] } \r",
	// Case-folded keys, including a Kelvin sign that folds to k.
	`{"BATCH":1,"Cursor":"x","KIND":"samples","Features":[[1]],"LaBeLs":[1]}`,
	`{"\u212aind":"samples","batch":1,"cursor":"c","features":[[1]],"labels":[1]}`,
	`{"Graphs":[{"NODES":1,"Feature_Dim":1,"NODE_FEATURES":[1],"Edges":[],"EDGE_LENGTHS":[],"Energy":2,"Class_ID":1}],"kind":"materials_graphs"}`,
	// Unknown keys with nested values, skipped.
	`{"extra":{"a":[1,{"b":null,"c":[true,false,"x\"y"]}],"d":-0.5e-3},"batch":1,"cursor":"c","kind":"samples","features":[[1]],"labels":[1],"zz":[]}`,
	`{"kind":"fusion_windows","graphs_extra":{"graphs":[1]},"labels":[1],"signals":[[1]],"shots":[1],"starts":[1],"horizons":[1]}`,
	// Escapes, raw non-ASCII and invalid UTF-8 in strings and keys.
	`{"cursor":"a\"b\\c\/d\u00e9\ud83d\ude00\n\t","kind":"samples","features":[[1]],"labels":[1]}`,
	"{\"cursor\":\"é\xff\x7f\",\"kind\":\"s\\u0061mples\",\"features\":[[1]],\"labels\":[1]}",
	`{"c\u0075rsor":"0:1","kind":"samples","features":[[1]],"labels":[1]}`,
	"{\"\xffkind\":\"x\",\"kind\":\"samples\"}",
	// Nulls for every field and graph element.
	`{"batch":null,"cursor":null,"kind":null,"features":[null,[null,1]],"labels":null,"signals":null,"shots":[null],"starts":null,"horizons":[null],"graphs":[null,{"nodes":null,"feature_dim":null,"node_features":null,"edges":[null],"edge_lengths":null,"energy":null,"class_id":null}],"error":null}`,
	`null`,
	`{}`,
	// Empty arrays stay non-nil.
	`{"features":[],"labels":[],"graphs":[],"signals":[[]]}`,
	// Number edge cases.
	`{"batch":-0,"horizons":[3.4028234663852886e38,1e-46,-1E+2,0.0],"labels":[9223372036854775807,-9223372036854775808],"graphs":[{"energy":1.7976931348623157e308,"node_features":[5e-324,1e-400]}]}`,
}

func TestDecodeBatchLineMatchesUnmarshal(t *testing.T) {
	var d lineDecoder
	for _, line := range decodeSeeds {
		var got, want BatchWire
		if err := d.decode([]byte(line), &got); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("%q: json.Unmarshal: %v", line, err)
		}
		if !sameBatch(&got, &want) {
			t.Fatalf("%q:\n got  %#v\n want %#v", line, got, want)
		}
	}
}

// TestDecodeBatchLineRejects: lines encoding/json refuses into a
// BatchWire are refused too, and so is a repeated field, which
// encoding/json would merge.
func TestDecodeBatchLineRejects(t *testing.T) {
	repeated := []string{
		`{"batch":1,"batch":2}`,
		`{"kind":"samples","KIND":"samples"}`,
		`{"graphs":[{"nodes":1,"energy":2}],"graphs":[{"nodes":3}]}`,
		`{"graphs":[{"nodes":1,"Nodes":2}]}`,
	}
	invalid := []string{
		``, ` `, `[]`, `"x"`, `5`, `true`, `{`, `}`, `{"batch":1,}`, `{"batch":1}}`, `{"batch":1} x`,
		`{batch:1}`, `{"batch" 1}`, `{"batch":1 "kind":"x"}`, `{"features":[[1,]]}`, `{"features":[[1 2]]}`,
		`{"batch":01}`, `{"batch":1.}`, `{"batch":-}`, `{"labels":[.5]}`, `{"horizons":[1e]}`, `{"horizons":[1e+]}`,
		`{"horizons":[+1]}`, `{"horizons":[NaN]}`, `{"horizons":[Infinity]}`, `{"horizons":[0x10]}`,
		`{"cursor":"abc}`, "{\"cursor\":\"a\x01b\"}", `{"cursor":"\x"}`, `{"cursor":"\u12"}`, `{"cursor":"\u12g4"}`,
		`{"x":tru}`, `{"x":nul}`, `{"x":[1,{"y":}]}`, `{"x":{"y":1,}}`, `{"kind":nullx}`,
		// Wrong types.
		`{"batch":"1"}`, `{"batch":1.5}`, `{"batch":1e2}`, `{"cursor":5}`, `{"features":{}}`, `{"features":[1]}`,
		`{"labels":[1.5]}`, `{"graphs":[5]}`, `{"graphs":{}}`, `{"graphs":[{"nodes":[1]}]}`, `{"error":false}`,
		// Out of range.
		`{"batch":9223372036854775808}`, `{"labels":[-9223372036854775809]}`, `{"horizons":[3.5e38]}`,
		`{"graphs":[{"energy":1e309}]}`,
		// Nesting beyond encoding/json's limit, in an unknown value.
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
		strings.Repeat("[", 100000),
	}
	var d lineDecoder
	for _, line := range append(repeated, invalid...) {
		var w BatchWire
		if err := d.decode([]byte(line), &w); err == nil {
			t.Fatalf("%.80q accepted", line)
		}
	}
	for _, line := range invalid {
		var w BatchWire
		if err := json.Unmarshal([]byte(line), &w); err == nil {
			t.Fatalf("%.80q: json.Unmarshal accepts it, so the decoder must too", line)
		}
	}
	// The deepest nesting encoding/json allows is allowed here too.
	deep := `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`
	var w BatchWire
	if err := d.decode([]byte(deep), &w); err != nil {
		t.Fatalf("depth 10000: %v", err)
	}
	if err := json.Unmarshal([]byte(deep), &w); err != nil {
		t.Fatalf("depth 10000: json.Unmarshal: %v", err)
	}
}

// FuzzDecodeBatchLine: the decoder never panics; whatever it accepts
// json.Unmarshal accepts too, into a bit-identical BatchWire; and what
// json.Unmarshal accepts it rejects only for a repeated field.
func FuzzDecodeBatchLine(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(strings.Repeat("[", 100000)))
	f.Add([]byte(`{"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`))
	f.Add([]byte(`{"graphs":[{"nodes":1,"energy":2}],"graphs":[{"nodes":3}]}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var d lineDecoder
		var got, want BatchWire
		err := d.decode(line, &got)
		wantErr := json.Unmarshal(line, &want)
		switch {
		case err != nil && wantErr == nil:
			if !strings.HasSuffix(err.Error(), " repeated") {
				t.Fatalf("decoder rejected %q, which json.Unmarshal accepts: %v", line, err)
			}
		case err == nil && wantErr != nil:
			t.Fatalf("decoder accepted %q; json.Unmarshal: %v", line, wantErr)
		case err == nil && !sameBatch(&got, &want):
			t.Fatalf("%q:\n decoder        %#v\n json.Unmarshal %#v", line, got, want)
		}
	})
}

// numberSeeds are number tokens at the edges of the readers' exact
// fast paths and of strconv's range checks.
var numberSeeds = []string{
	// 19 and 20 digits, and fractions whose leading zeros push the
	// digit count past 19.
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "-0.1234567890123456789",
	"0.0000000000000000001", "0.00000000000000000001", "0.000000000000000000012345",
	"18446744073709551616", "1.8446744073709551617", // 2^64 and 2^64+1, which wrap a uint64
	// The float64 mantissa bound, 2^53 and 2^53+1.
	"9007199254740992", "9007199254740993", "9007199254740992e22", "9007199254740993e-22",
	// Exponents at and just past the exact powers of ten.
	"1e22", "1e23", "1e-22", "1e-23", "123456789e22", "123456789e-23", "4.5e-22", "4.5e+23",
	"1E22", "0e400", "1e99999999999999999999", "1e-99999999999999999999",
	"1e18446744073709551621", "1e-18446744073709551621", // 2^64+5, which wraps an int to 5
	// Signed zero, float range edges and subnormals.
	"-0", "-0.0", "0", "-0e5", "1e-400", "-1e-400", "1e400",
	"3.4028235e38", "3.4028236e38", "3.4028234663852886e38", "1.4e-45", "7e-46", "1.17549435e-38",
	"1.7976931348623157e308", "1.7976931348623159e308", "5e-324", "2.4703282292062327e-324",
	// int64 range edges, and integers a float reader parses but an
	// integer reader refuses.
	"9223372036854775806", "9223372036854775807", "9223372036854775808",
	"-9223372036854775807", "-9223372036854775808", "-9223372036854775809",
	"999999999999999999", "-999999999999999999", "1.0", "1e2", "100",
	// Float32 midpoints: 2^24+1, 2^24+3, 2^20+2^-4 and 2^12+2^-12 are
	// exact within the fast path; 1+2^-24 has 25 digits.
	"16777217", "-16777219", "1048576.0625", "4096.000244140625", "1.000000059604644775390625",
	// Not numbers, or not only a number.
	"", "-", "01", "1.", ".5", "+1", "1e", "1e+", "0x10", "1_0", "NaN", "Infinity", "1 ", " 1", "1,",
}

// float32Midpoints returns the float64 halfway between each of a few
// float32s at exponent e and the next float32 up.
func float32Midpoints(e int) []float64 {
	var out []float64
	for _, frac := range []float64{1, 1.25, 1.5 + 1.0/(1<<20), 2 - 1.0/(1<<23)} {
		x := float32(math.Ldexp(frac, e))
		if x == 0 || math.IsInf(float64(x), 0) {
			continue
		}
		up := math.Nextafter32(x, float32(math.Inf(1)))
		if math.IsInf(float64(up), 0) {
			continue
		}
		out = append(out, (float64(x)+float64(up))/2)
	}
	return out
}

// midpointTokens prints m exactly and rounded to 7–17 significant
// digits, with both signs.
func midpointTokens(m float64) []string {
	exact := strings.TrimRight(strconv.FormatFloat(m, 'f', 160, 64), "0")
	out := []string{strings.TrimSuffix(exact, ".")}
	for digits := 7; digits <= 17; digits++ {
		out = append(out, strconv.FormatFloat(m, 'e', digits-1, 64))
	}
	for _, tok := range out[:len(out):len(out)] {
		out = append(out, "-"+tok)
	}
	return out
}

// checkNumber runs the decoder's float32, float64 and int64 readers on
// tok and requires what encoding/json would do: accept exactly the
// JSON number tokens strconv can parse into the type, and yield
// strconv's value bit for bit.
func checkNumber(t *testing.T, tok string) {
	t.Helper()
	if strings.HasPrefix(tok, "null") {
		return // null is every reader's zero, not a number
	}
	// A JSON value that starts like a number and holds no whitespace is
	// exactly one number token.
	valid := tok != "" && (tok[0] == '-' || isDigit(tok[0])) &&
		!strings.ContainsAny(tok, " \t\r\n") && json.Valid([]byte(tok))
	reader := func(read func(*lineDecoder) error) bool {
		d := lineDecoder{b: []byte(tok)}
		return read(&d) == nil && d.pos == len(tok)
	}

	var got32 float32
	ok := reader(func(d *lineDecoder) (err error) { got32, err = d.f32(); return })
	want, err := strconv.ParseFloat(tok, 32)
	if wantOK := valid && err == nil; ok != wantOK {
		t.Fatalf("f32 %q: decoder accepts %v, strconv %v (%v)", tok, ok, wantOK, err)
	}
	if ok && math.Float32bits(got32) != math.Float32bits(float32(want)) {
		t.Fatalf("f32 %q: decoder %g (%#x), strconv %g (%#x)", tok, got32, math.Float32bits(got32), want, math.Float32bits(float32(want)))
	}

	var got64 float64
	ok = reader(func(d *lineDecoder) (err error) { got64, err = d.f64(); return })
	want, err = strconv.ParseFloat(tok, 64)
	if wantOK := valid && err == nil; ok != wantOK {
		t.Fatalf("f64 %q: decoder accepts %v, strconv %v (%v)", tok, ok, wantOK, err)
	}
	if ok && math.Float64bits(got64) != math.Float64bits(want) {
		t.Fatalf("f64 %q: decoder %g (%#x), strconv %g (%#x)", tok, got64, math.Float64bits(got64), want, math.Float64bits(want))
	}

	var gotInt int64
	ok = reader(func(d *lineDecoder) (err error) { gotInt, err = d.i64(); return })
	wantInt, err := strconv.ParseInt(tok, 10, 64)
	if wantOK := valid && err == nil; ok != wantOK {
		t.Fatalf("i64 %q: decoder accepts %v, strconv %v (%v)", tok, ok, wantOK, err)
	}
	if ok && gotInt != wantInt {
		t.Fatalf("i64 %q: decoder %d, strconv %d", tok, gotInt, wantInt)
	}
}

// TestLineNumberFloat32Midpoints walks float32 midpoints across every
// float32 exponent, subnormals included: the exact decimal of each,
// and each rounded to 7–17 digits, must read as strconv reads it.
func TestLineNumberFloat32Midpoints(t *testing.T) {
	for e := -149; e <= 127; e++ {
		for _, m := range float32Midpoints(e) {
			for _, tok := range midpointTokens(m) {
				checkNumber(t, tok)
			}
		}
	}
}

// FuzzLineNumber: the float32, float64 and int64 readers accept the
// tokens strconv accepts, within the JSON grammar, and yield strconv's
// values bit for bit.
func FuzzLineNumber(f *testing.F) {
	for _, tok := range numberSeeds {
		f.Add(tok)
	}
	for _, e := range []int{-149, -127, -126, -40, -24, -1, 0, 23, 24, 53, 100, 127} {
		for _, m := range float32Midpoints(e) {
			for _, tok := range midpointTokens(m) {
				f.Add(tok)
			}
		}
	}
	f.Fuzz(checkNumber)
}
