// Package client is the supported Go SDK for the draid service. It
// owns the REST API's wire types (the server serves exactly these
// structs), submits and follows jobs, and streams training batches in
// either wire format — auto-negotiating the binary frame protocol,
// falling back to NDJSON against older servers, and resuming from the
// last cursor when a stream is cut mid-flight.
package client

import (
	"time"

	"repro/internal/ledger"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// JobSpec is the submission body: which domain template to run and how
// large a synthetic input to prepare (see wire.Spec for the knobs
// and their ceilings).
type JobSpec = wire.Spec

// JobState is the lifecycle position of a submitted job.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// TrajectoryPoint is one stage of a job's readiness trajectory — the
// Table 2 walk exposed over the API.
type TrajectoryPoint struct {
	Stage     string   `json:"stage"`
	Kind      string   `json:"kind"`
	Level     int      `json:"level"`
	LevelName string   `json:"level_name"`
	Gaps      []string `json:"gaps,omitempty"`
}

// JobStatus is the JSON view of a job, as served by /v1/jobs/{id}.
type JobStatus struct {
	ID        string     `json:"id"`
	Spec      JobSpec    `json:"spec"`
	State     JobState   `json:"state"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Records   int64      `json:"records"`
	Shards    int        `json:"shards"`
	// Kind names the wire payload schema /batches streams for this
	// job's domain (see /v1/templates for the catalog), and Wires the
	// formats that schema can be streamed in ("ndjson", "frame").
	Kind       string            `json:"kind,omitempty"`
	Wires      []string          `json:"wires,omitempty"`
	Servable   bool              `json:"servable"`
	Trajectory []TrajectoryPoint `json:"trajectory,omitempty"`
	// Node is the fleet member holding the job (empty single-node).
	Node string `json:"node,omitempty"`
	// Tenant owns the job on a multi-tenant server (empty with auth
	// off, or for jobs submitted before tenancy was enabled).
	Tenant string `json:"tenant,omitempty"`
	// Trace is the request trace ID the server answered with (from the
	// X-Draid-Trace response header, not the JSON body) — the handle for
	// correlating this submission across fleet members' logs.
	Trace string `json:"-"`
}

// Lifecycle event names appearing in a job's event timeline.
const (
	EventSubmitted = "submitted" // accepted by a fleet member
	EventQueued    = "queued"    // waiting for a worker slot
	EventRunning   = "running"   // pipeline started
	EventDone      = "done"      // pipeline finished; shards servable
	EventFailed    = "failed"    // pipeline errored or was lost
	EventEvicted   = "evicted"   // retention removed the job
	EventAdopted   = "adopted"   // another member took ownership after a failure
	EventRequeued  = "requeued"  // interrupted job resubmitted for a clean rerun
)

// JobEvent is one entry in a job's lifecycle timeline, served by
// GET /v1/jobs/{id}/events. Events survive server restarts: the
// timeline is replayed from the node's ledger, so pre-restart
// transitions (with the node that performed them) remain visible.
type JobEvent struct {
	Event  string    `json:"event"`
	Time   time.Time `json:"time"`
	Node   string    `json:"node,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Trace  string    `json:"trace,omitempty"`
}

// TemplateInfo is the catalog entry served by /v1/templates. Kind
// names the payload schema /batches streams for the domain, Wires the
// negotiable wire formats, and Servable says whether completed jobs
// stream at all — discovery fields so clients pick a decoder instead
// of probing.
type TemplateInfo struct {
	Domain      string   `json:"domain"`
	Description string   `json:"description"`
	Kind        string   `json:"kind"`
	Wires       []string `json:"wires,omitempty"`
	Servable    bool     `json:"servable"`
}

// Span is one completed span of a distributed trace, as served by
// GET /v1/traces/{id}: the operation name, the node that ran it, its
// wall-clock interval, and its position in the tree (Parent is the
// span ID of the enclosing operation, empty for top-level spans).
type Span = telemetry.SpanData

// TraceSummary is one row of GET /v1/traces: the trace's root
// operation, where and when it ran, how long it took, and whether the
// tail sampler kept it as notable.
type TraceSummary = telemetry.TraceSummary

// TraceView is the assembled cross-node trace served by
// GET /v1/traces/{id}: every span any fleet member recorded under the
// trace ID, deduplicated and sorted by start time.
type TraceView struct {
	TraceID string `json:"trace"`
	Spans   []Span `json:"spans"`
}

// ClusterMember is one fleet member's row in the /v1/cluster report.
type ClusterMember struct {
	ID        string    `json:"id"`
	URL       string    `json:"url"`
	Self      bool      `json:"self,omitempty"`
	Alive     bool      `json:"alive"`
	Share     float64   `json:"share"`
	LastProbe time.Time `json:"last_probe,omitzero"`
	Failures  int       `json:"consecutive_failures,omitempty"`
}

// JobOwnership answers /v1/cluster?job=<id>: which member owns the ID.
type JobOwnership struct {
	ID    string `json:"id"`
	Owner string `json:"owner"`
	URL   string `json:"url"`
	Local bool   `json:"local"`
}

// AuditRecord is one hash-chained entry of a node's audit ledger.
type AuditRecord = ledger.Record

// AuditBatchRoot is one published Merkle batch root of the ledger —
// the anchor an inclusion proof is verified against.
type AuditBatchRoot = ledger.BatchRoot

// AuditProof is a Merkle inclusion proof for one audit record; its
// Verify method checks it end to end, and comparing its Root against
// an independently fetched AuditRoots entry completes the audit.
type AuditProof = ledger.Proof

// AuditRoots is the GET /v1/audit/roots document: which node's ledger
// answered, how many records it holds, and every batch root (the final
// entry may be a provisional root over the unsealed tail).
type AuditRoots struct {
	Node    string           `json:"node"`
	Records uint64           `json:"records"`
	Roots   []AuditBatchRoot `json:"roots"`
}

// ClusterInfo is the /v1/cluster document.
type ClusterInfo struct {
	Clustered  bool            `json:"clustered"`
	Self       string          `json:"self,omitempty"`
	VNodes     int             `json:"vnodes,omitempty"`
	Members    []ClusterMember `json:"members,omitempty"`
	JobsLocal  int             `json:"jobs_local"`
	Registered []string        `json:"registered_nodes,omitempty"`
	Job        *JobOwnership   `json:"job,omitempty"`
}
