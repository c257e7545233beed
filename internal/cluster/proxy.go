// Request forwarding between fleet members. A node that does not own a
// job either proxies the request to the owner (default — the client
// never learns the topology) or answers 307 with the owner's URL when
// the client asked for redirects via the X-Draid-Route header. Proxied
// batch streams are flushed at every read — line-granular for NDJSON,
// frame-granular for the binary frame wire (Forward clones the request
// headers, so Accept negotiation crosses the proxy intact and frame
// streams relay transparently; redirects are never required for them)
// — so a tail -f style consumer sees batches as the owner emits them,
// not when the buffer fills.
package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Routing headers.
const (
	// HeaderRoute lets the client choose forwarding: "redirect" gets a
	// 307 to the owning node instead of a transparent proxy.
	HeaderRoute = "X-Draid-Route"
	// HeaderForwarded carries the proxying node's ID; its presence
	// stops a second hop, so ring disagreement degrades to an error
	// instead of a proxy loop.
	HeaderForwarded = "X-Draid-Forwarded"
	// HeaderServedBy names the node that actually answered.
	HeaderServedBy = "X-Draid-Served-By"
	// HeaderPeerAuth authenticates node-to-node requests (see
	// Cluster.SetPeerAuth). Mirrored by internal/tenant so the server's
	// auth middleware and this package agree on the name without a
	// dependency between them.
	HeaderPeerAuth = "X-Draid-Peer-Auth"
	// HeaderTenant carries the authenticated tenant across fleet hops.
	// Receivers trust it only alongside a valid HeaderPeerAuth (or a
	// client credential that re-authenticates to the same identity).
	HeaderTenant = "X-Draid-Tenant"
)

// RouteRedirect is the HeaderRoute value selecting 307 redirects.
const RouteRedirect = "redirect"

// WantsRedirect reports whether the client asked for a 307 instead of
// a transparent proxy.
func WantsRedirect(r *http.Request) bool {
	return strings.EqualFold(r.Header.Get(HeaderRoute), RouteRedirect)
}

// Forwarded reports whether the request already took a proxy hop.
func Forwarded(r *http.Request) bool { return r.Header.Get(HeaderForwarded) != "" }

// Redirect answers 307 pointing the client at the owner. The method and
// body are preserved by 307 semantics, so POST submissions survive.
func Redirect(w http.ResponseWriter, r *http.Request, owner Node) {
	target := owner.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	w.Header().Set(HeaderServedBy, owner.ID)
	http.Redirect(w, r, target, http.StatusTemporaryRedirect)
}

// Forward proxies the request to the owner and relays the response. A
// transport error (the owner is unreachable) is returned *before*
// anything is written to w, so the caller can mark the peer down and
// retry against the recomputed owner. If the *upstream* dies after
// the response header was relayed, the proxied connection is aborted
// uncleanly (no terminal chunk): batches end at line/frame
// boundaries, so a clean end here would be indistinguishable from
// stream completion and the client would silently accept a truncated
// dataset instead of resuming its cursor against a survivor.
func (c *Cluster) Forward(w http.ResponseWriter, r *http.Request, owner Node) error {
	target := owner.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, r.Body)
	if err != nil {
		return fmt.Errorf("cluster: build forward to %s: %w", owner.ID, err)
	}
	req.ContentLength = r.ContentLength
	req.Header = r.Header.Clone()
	req.Header.Set(HeaderForwarded, c.self.ID)
	if c.peerAuth != "" {
		req.Header.Set(HeaderPeerAuth, c.peerAuth)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: forward to %s: %w", owner.ID, err)
	}
	defer resp.Body.Close()

	h := w.Header()
	for k, vs := range resp.Header {
		// Headers the proxying node already stamped (like the trace ID
		// its middleware set — which the upstream echoes, since the
		// forwarded request carried it) must not be duplicated.
		if _, set := h[k]; set {
			continue
		}
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	if h.Get(HeaderServedBy) == "" {
		h.Set(HeaderServedBy, owner.ID)
	}
	w.WriteHeader(resp.StatusCode)
	if err := flushCopy(w, resp.Body); err != nil {
		panic(http.ErrAbortHandler)
	}
	return nil
}

// FetchPeer GETs a path on a peer with the forwarded-hop header set (so
// the peer answers from local state instead of fanning out again) and a
// hard timeout — the building block for merged fleet views like the
// cluster-wide job list. tenantID, when non-empty, rides along as the
// authenticated tenant the fan-out acts for, so peers scope their
// answers exactly as the originating node would; it is only honoured
// because the peer-auth secret rides with it.
func (c *Cluster) FetchPeer(n Node, path, tenantID string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderForwarded, c.self.ID)
	if c.peerAuth != "" {
		req.Header.Set(HeaderPeerAuth, c.peerAuth)
	}
	if tenantID != "" {
		req.Header.Set(HeaderTenant, tenantID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s%s: status %d", n.ID, path, resp.StatusCode)
	}
	return b, nil
}

// flushCopy relays a body, flushing after every read so streamed
// batches cross the proxy with per-line (or per-frame) latency. It
// returns the upstream read error that cut the relay short — the
// caller turns that into an unclean downstream abort. A downstream
// write error returns nil: that client is gone, there is nothing left
// to signal.
func flushCopy(w http.ResponseWriter, body io.Reader) error {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return nil
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
