// Trace endpoints: /v1/traces lists this node's recent and notable
// traces; /v1/traces/{id} returns one trace's span tree — and in a
// fleet assembles the cross-node view by fanning out to alive peers
// for their span fragments and merging by trace ID, so any member can
// answer for a request that hopped through several.
package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/pkg/client"
)

// serverSpanNames is every span name this package emits. Bounded and
// closed on purpose: the docs-hygiene test holds each name to the
// README span table, and the clustersmoke trace verifier keys on them.
var serverSpanNames = []string{
	"http.request",   // middleware root span, one per traced request
	"proxy.forward",  // client span around a transparent proxy hop
	"job.wait",       // queue wait: submission accepted -> worker pickup
	"job.run",        // the job on the worker: synthesis, pipeline, commit
	"job.synthesize", // input synthesis and pipeline construction (Plugin.Build)
	"job.stage",      // one pipeline stage inside job.run
	"job.commit",     // the job's commit barrier, manifest and sealed key
	"frame.fill",     // cache fill of either wire: sidecar read and verify, NDJSON fragment encode
	"batch.encode",   // per-batch header assembly (NDJSON header or frame envelope)
	"pace.stall",     // token-bucket sleep inside a paced stream
	"ledger.append",  // wait for a request's audit record to be durable
}

// handleTraces serves GET /v1/traces: this node's trace summaries,
// newest first. ?min_ms= keeps traces at least that slow, ?error=true
// keeps only errored ones, ?limit= bounds the answer (default 100).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	minMs := 0.0
	if v := q.Get("min_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query min_ms=%q is not a non-negative number", v))
			return
		}
		minMs = f
	}
	errorsOnly := false
	if v := q.Get("error"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query error=%q is not a boolean", v))
			return
		}
		errorsOnly = b
	}
	limit, err := queryCount(r, "limit", 100, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ident := tenant.FromContext(r.Context())
	sums := s.spans.Summaries()
	out := make([]telemetry.TraceSummary, 0, len(sums))
	for _, ts := range sums {
		if ts.DurationMs < minMs {
			continue
		}
		if errorsOnly && ts.Error == "" {
			continue
		}
		// Tenants see their own traces only (the root span records the
		// authenticated tenant); admin and open servers see everything.
		if s.tenants != nil && !ident.CanAccess(ts.Tenant) {
			continue
		}
		out = append(out, ts)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTrace serves GET /v1/traces/{id}: every span this node holds
// for the trace, merged — unless ?scope=local or the request already
// took its fan-out hop — with the fragments of every alive peer, so
// one call anywhere returns the whole cross-node tree. 404 when no
// node holds any span for the ID (never seen, or evicted unsampled).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !telemetry.ValidTraceID(id) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid trace id %q", id))
		return
	}
	ident := tenant.FromContext(r.Context())
	spans := s.spans.Trace(id)
	if c := s.opts.Cluster; c != nil && r.URL.Query().Get("scope") != "local" && !cluster.Forwarded(r) {
		// A dead or evicted peer contributes nothing — partial assembly
		// beats none.
		frags := [][]telemetry.SpanData{spans}
		for _, v := range fetchPeers[client.TraceView](c, "/v1/traces/"+url.PathEscape(id)+"?scope=local", ident.ID) {
			frags = append(frags, v.Spans)
		}
		spans = telemetry.MergeTraces(frags...)
	}
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("no spans for trace %q", id))
		return
	}
	// A trace belongs to whoever's request rooted it: the entry node's
	// root span carries the authenticated tenant as an attribute.
	if s.tenants != nil {
		for _, sp := range spans {
			if sp.Parent == "" && !ident.CanAccess(sp.Attrs["tenant"]) {
				writeError(w, http.StatusForbidden, fmt.Errorf("trace %q belongs to another tenant", id))
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, client.TraceView{TraceID: id, Spans: spans})
}
