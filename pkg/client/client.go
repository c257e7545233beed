// Client: typed access to a draid server (or fleet — any member can be
// the base URL; routing is the server's job).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// TraceHeader is the HTTP header carrying the request trace ID — on
// requests to inherit a caller's trace, on responses to report the ID
// the fleet actually logged under.
const TraceHeader = telemetry.TraceHeader

// Client talks to one draid base URL. Create with New; the zero value
// is not usable.
type Client struct {
	base  string
	httpc *http.Client
	wire  string
	poll  time.Duration
	trace string
	token string
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// doubles). The default is http.DefaultClient.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpc = h } }

// WithWire pins the default wire format for StreamBatches: WireAuto
// (default), WireNDJSON, or WireFrame.
func WithWire(wire string) Option { return func(c *Client) { c.wire = wire } }

// WithPollInterval sets WaitDone's polling cadence (default 10ms —
// tuned for local servers; raise it for remote ones).
func WithPollInterval(d time.Duration) Option { return func(c *Client) { c.poll = d } }

// WithTrace pins every request's trace ID — for callers already inside
// a traced operation (a training run, a workflow step) who want the
// whole draid interaction filed under their ID. Without it each request
// gets its own fresh trace ID. Invalid IDs (empty, too long, characters
// outside [0-9A-Za-z._-]) are ignored.
func WithTrace(trace string) Option {
	return func(c *Client) {
		if telemetry.ValidTraceID(trace) {
			c.trace = trace
		}
	}
}

// WithToken attaches a tenant bearer token: every request (including
// batch-stream reconnects after a resume) carries it as
// "Authorization: Bearer <token>". Required against servers started
// with -tenants; ignored by open servers.
func WithToken(token string) Option { return func(c *Client) { c.token = token } }

// newTrace is the trace ID for one request: the pinned WithTrace ID or
// a fresh one.
func (c *Client) newTrace() string {
	if c.trace != "" {
		return c.trace
	}
	return telemetry.NewTraceID()
}

// authorize stamps the bearer token on a request (no-op without one).
func (c *Client) authorize(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

// New returns a client for the draid server at baseURL.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:  strings.TrimRight(baseURL, "/"),
		httpc: http.DefaultClient,
		wire:  WireAuto,
		poll:  10 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL reports the server this client targets.
func (c *Client) BaseURL() string { return c.base }

// apiError decodes the server's {"error": ...} body.
func apiError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return fmt.Errorf("draid: %s (status %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("draid: status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	_, err := c.getJSONTraced(ctx, path, out)
	return err
}

// getJSONTraced additionally reports the trace ID the server answered
// under, so status-shaped results can surface it.
func (c *Client) getJSONTraced(ctx context.Context, path string, out any) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set(TraceHeader, c.newTrace())
	c.authorize(req)
	resp, err := c.httpc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", apiError(resp)
	}
	return resp.Header.Get(TraceHeader), json.NewDecoder(resp.Body).Decode(out)
}

// Templates lists the server's domain templates with their wire
// discovery fields.
func (c *Client) Templates(ctx context.Context) ([]TemplateInfo, error) {
	var out []TemplateInfo
	if err := c.getJSON(ctx, "/v1/templates", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitJob submits a pipeline job and returns its accepted status
// (state "queued"). The job runs asynchronously; follow it with Job or
// WaitDone.
func (c *Client) SubmitJob(ctx context.Context, spec JobSpec) (*JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, c.newTrace())
	c.authorize(req)
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, apiError(resp)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	// Surface the trace the fleet filed the submission under. On the
	// redirect path Go re-sends X-Draid-Trace to the owner (it is not a
	// sensitive header), so the response echoes one end-to-end ID.
	st.Trace = resp.Header.Get(TraceHeader)
	return &st, nil
}

// Events fetches a job's lifecycle timeline — every state transition
// with its timestamp, fleet node, and trace ID, including transitions
// from before a server restart (replayed from the node's ledger).
func (c *Client) Events(ctx context.Context, id string) ([]JobEvent, error) {
	var out []JobEvent
	if err := c.getJSON(ctx, "/v1/jobs/"+url.PathEscape(id)+"/events", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Job fetches one job's status. Trace carries the ID this poll was
// answered under — the pinned WithTrace ID, or a per-request one.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	trace, err := c.getJSONTraced(ctx, "/v1/jobs/"+url.PathEscape(id), &st)
	if err != nil {
		return nil, err
	}
	st.Trace = trace
	return &st, nil
}

// Jobs lists jobs. In a fleet the view is cluster-merged unless the
// server is asked otherwise.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	if err := c.getJSON(ctx, "/v1/jobs", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// WaitDone polls a job until it completes, returning its final status.
// A failed job is an error carrying the job's message; bound the wait
// with the context's deadline.
func (c *Client) WaitDone(ctx context.Context, id string) (*JobStatus, error) {
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case JobDone:
			return st, nil
		case JobFailed:
			return st, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
		}
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("job %s still %s: %w", id, st.State, ctx.Err())
		case <-time.After(c.poll):
		}
	}
}

// Provenance fetches a job's lineage DAG as raw JSON.
func (c *Client) Provenance(ctx context.Context, id string) (json.RawMessage, error) {
	var out json.RawMessage
	if err := c.getJSON(ctx, "/v1/jobs/"+url.PathEscape(id)+"/provenance", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// AuditRoots fetches the serving node's published Merkle batch roots
// from its audit ledger.
func (c *Client) AuditRoots(ctx context.Context) (*AuditRoots, error) {
	var out AuditRoots
	if err := c.getJSON(ctx, "/v1/audit/roots", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AuditProof fetches the Merkle inclusion proof for one audit record
// (seq is 1-based). Call Verify on the result and compare its Root
// against an AuditRoots entry fetched separately — that comparison is
// what makes the audit independent of the node being audited.
func (c *Client) AuditProof(ctx context.Context, seq uint64) (*AuditProof, error) {
	var out AuditProof
	if err := c.getJSON(ctx, "/v1/audit/proof?seq="+strconv.FormatUint(seq, 10), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ClusterInfo reports fleet membership. jobID non-empty additionally
// resolves that job's ring owner.
func (c *Client) ClusterInfo(ctx context.Context, jobID string) (*ClusterInfo, error) {
	path := "/v1/cluster"
	if jobID != "" {
		path += "?job=" + url.QueryEscape(jobID)
	}
	var out ClusterInfo
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
