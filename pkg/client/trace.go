// Trace access and rendering: fetch the fleet-assembled span tree for
// a trace ID and print it as an indented tree with durations — the
// human-readable answer to "where did this request's time go".
package client

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// TraceQuery filters Traces listings.
type TraceQuery struct {
	// MinMs keeps only traces at least this slow (milliseconds).
	MinMs float64
	// ErrorsOnly keeps only traces whose root ended in error.
	ErrorsOnly bool
	// Limit bounds the listing (0 means the server default).
	Limit int
}

// Traces lists the server node's recent and notable traces, newest
// first. The listing is per-node (each member lists what it roots);
// Trace then assembles any listed ID across the whole fleet.
func (c *Client) Traces(ctx context.Context, q TraceQuery) ([]TraceSummary, error) {
	v := url.Values{}
	if q.MinMs > 0 {
		v.Set("min_ms", fmt.Sprintf("%g", q.MinMs))
	}
	if q.ErrorsOnly {
		v.Set("error", "true")
	}
	if q.Limit > 0 {
		v.Set("limit", fmt.Sprintf("%d", q.Limit))
	}
	path := "/v1/traces"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var out []TraceSummary
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Trace fetches the assembled cross-node trace for one ID. Any fleet
// member can answer: the serving node merges its own spans with every
// alive peer's fragments before responding.
func (c *Client) Trace(ctx context.Context, id string) (*TraceView, error) {
	var out TraceView
	if err := c.getJSON(ctx, "/v1/traces/"+url.PathEscape(id), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RenderTree renders the trace as an indented span tree:
//
//	trace 3f2a... (2 nodes, 7 spans)
//	http.request  12.40ms  [node-a]
//	  proxy.forward  11.90ms  [node-a] peer=node-b
//	    http.request  11.20ms  [node-b]
//	      frame.fill  3.10ms  [node-b] shard=s0 wire=frame
//
// Children sort by start time under their parent; spans whose parent
// is absent (top-level, or the parent evicted) print at the root
// level. Errored spans carry an ERROR suffix.
func (t *TraceView) RenderTree() string {
	children := make(map[string][]Span)
	have := make(map[string]bool, len(t.Spans))
	nodes := make(map[string]bool)
	for _, sp := range t.Spans {
		have[sp.SpanID] = true
		if sp.Node != "" {
			nodes[sp.Node] = true
		}
	}
	var roots []Span
	for _, sp := range t.Spans {
		if sp.Parent != "" && have[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	byStart := func(spans []Span) {
		sort.Slice(spans, func(i, j int) bool {
			if !spans[i].Start.Equal(spans[j].Start) {
				return spans[i].Start.Before(spans[j].Start)
			}
			return spans[i].SpanID < spans[j].SpanID
		})
	}
	byStart(roots)

	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d nodes, %d spans)\n", t.TraceID, len(nodes), len(t.Spans))
	var walk func(sp Span, depth int)
	walk = func(sp Span, depth int) {
		fmt.Fprintf(&b, "%s%s  %.2fms", strings.Repeat("  ", depth), sp.Name,
			float64(sp.Duration().Microseconds())/1000)
		if sp.Node != "" {
			fmt.Fprintf(&b, "  [%s]", sp.Node)
		}
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, sp.Attrs[k])
		}
		if sp.Error != "" {
			fmt.Fprintf(&b, "  ERROR: %s", sp.Error)
		}
		b.WriteByte('\n')
		kids := children[sp.SpanID]
		byStart(kids)
		for _, kid := range kids {
			walk(kid, depth+1)
		}
	}
	for _, root := range roots {
		walk(root, 0)
	}
	return b.String()
}
