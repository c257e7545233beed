package client

import (
	"encoding/json"
	"reflect"
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
		if !reflect.DeepEqual(got, want) {
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

// FuzzDecodeBatchLine: the decoder never panics, and whatever it
// accepts json.Unmarshal accepts too, into a deeply equal BatchWire.
func FuzzDecodeBatchLine(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(strings.Repeat("[", 100000)))
	f.Add([]byte(`{"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`))
	f.Add([]byte(`{"graphs":[{"nodes":1,"energy":2}],"graphs":[{"nodes":3}]}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var d lineDecoder
		var got BatchWire
		if err := d.decode(line, &got); err != nil {
			return
		}
		var want BatchWire
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("decoder accepted %q; json.Unmarshal: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n decoder      %#v\n json.Unmarshal %#v", line, got, want)
		}
	})
}
