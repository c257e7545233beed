// Cluster-aware request handling: when the server runs as a fleet
// member every job-addressed request is checked against the consistent-
// hash ring and transparently proxied (or 307-redirected on request) to
// the owning node; /v1/cluster reports membership and ownership; and
// jobs stranded by a dead member are adopted — replayed from the
// members' ledgers on the shared data dir — the moment the ring
// reassigns their hash range.
package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/ledger"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/pkg/client"
)

// clusterMode reports whether this server is a fleet member.
func (s *Server) clusterMode() bool { return s.opts.Cluster != nil }

// jobID renders a sequence number as this node's job ID: cluster IDs
// embed the allocating node so fleet members never collide, and the
// ring hashes the full ID so placement is uniform regardless of which
// node allocated it.
func (s *Server) jobID(seq int) string {
	if c := s.opts.Cluster; c != nil {
		return fmt.Sprintf("job-%s-%06d", c.Self().ID, seq)
	}
	return fmt.Sprintf("job-%06d", seq)
}

// routedElsewhere forwards or redirects a job-addressed request — a
// /v1/jobs/{id}/* read, or a submission pinned to its ID by ?job_id= —
// to the ring owner of id, returning true when the response was
// written. False means the request is ours: we own the ID, the request
// already took its one proxy hop (ring disagreement degrades to local
// best-effort, never a loop), or every peer is unreachable and we are
// the fleet of last resort. An unreachable owner is marked down on the
// spot — the passive detection path — so the ring reassigns its ranges
// at request speed and the retry lands on the new owner.
func (s *Server) routedElsewhere(w http.ResponseWriter, r *http.Request, id string) bool {
	c := s.opts.Cluster
	if c == nil || cluster.Forwarded(r) {
		return false
	}
	for range c.Nodes() {
		owner := c.Owner(id)
		if owner.ID == c.Self().ID {
			return false
		}
		if cluster.WantsRedirect(r) {
			s.metrics.clusterRedirected.Inc()
			cluster.Redirect(w, r, owner)
			return true
		}
		if err := s.forwardSpanned(w, r, owner); err == nil {
			s.metrics.clusterProxied.Inc()
			return true
		}
		s.metrics.clusterRetries.Inc()
		c.MarkDown(owner.ID) // fires adoption via OnChange before the retry
	}
	return false
}

// forwardSpanned wraps cluster.Forward in a proxy.forward client span
// and stamps it as the parent the owner's server span will link under
// (Forward clones the request headers, so overwriting X-Draid-Span
// here re-parents the downstream hop from our root to this client
// span). A body the handler buffered (r.GetBody, a submission's spec)
// is re-armed for every attempt: a failed one may have consumed it.
// That GetBody wraps bytes in memory and cannot fail. The End is
// deferred: Forward panics with http.ErrAbortHandler when the upstream
// dies mid-stream, and the span must record anyway.
func (s *Server) forwardSpanned(w http.ResponseWriter, r *http.Request, owner cluster.Node) (err error) {
	if r.GetBody != nil {
		r.Body, _ = r.GetBody()
	}
	var fwd *telemetry.Span
	if sp := telemetry.SpanFromContext(r.Context()); sp != nil {
		fwd = s.spans.StartChild("proxy.forward", sp.Context())
		fwd.SetAttr("peer", owner.ID)
		r.Header.Set(telemetry.SpanHeader, fwd.Context().String())
	}
	defer func() {
		if err != nil {
			fwd.SetError(err.Error())
		}
		fwd.End()
	}()
	return s.opts.Cluster.Forward(w, r, owner)
}

// clusterInfo is the /v1/cluster document.
type clusterInfo struct {
	Clustered bool                   `json:"clustered"`
	Self      string                 `json:"self,omitempty"`
	VNodes    int                    `json:"vnodes,omitempty"`
	Members   []cluster.MemberStatus `json:"members,omitempty"`
	JobsLocal int                    `json:"jobs_local"`
	// Registered lists node lock files seen on the shared data dir —
	// the fleet roster as the filesystem tells it, which may lag or
	// lead the probe view.
	Registered []string      `json:"registered_nodes,omitempty"`
	Job        *jobOwnership `json:"job,omitempty"`
}

// jobOwnership answers /v1/cluster?job=<id>: which member owns the ID.
type jobOwnership struct {
	ID    string `json:"id"`
	Owner string `json:"owner"`
	URL   string `json:"url"`
	Local bool   `json:"local"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	local := len(s.jobs)
	s.mu.Unlock()
	info := clusterInfo{JobsLocal: local}
	c := s.opts.Cluster
	if c == nil {
		writeJSON(w, http.StatusOK, info)
		return
	}
	info.Clustered = true
	info.Self = c.Self().ID
	info.VNodes = c.VNodes()
	info.Members = c.Status()
	info.Registered = shard.ListNodeLocks(filepath.Join(s.opts.DataDir, "nodes"))
	if id := r.URL.Query().Get("job"); id != "" {
		// Ownership lookups are scoped like the job itself: placement
		// reveals which member holds a tenant's data.
		if s.tenants != nil {
			s.mu.Lock()
			job, held := s.jobs[id]
			s.mu.Unlock()
			if held {
				if ident := tenant.FromContext(r.Context()); !ident.CanAccess(job.tenant) {
					writeError(w, http.StatusForbidden, fmt.Errorf("job %q belongs to another tenant", id))
					return
				}
			}
		}
		owner := c.Owner(id)
		info.Job = &jobOwnership{ID: id, Owner: owner.ID, URL: owner.URL, Local: owner.ID == c.Self().ID}
	}
	writeJSON(w, http.StatusOK, info)
}

// scanFleet extends s.fold with what the members' ledgers gained since
// the last scan, reading only the appended bytes. A ledger that no
// longer extends what was read — cut back by a failed commit and written
// anew by a restart, or damaged — makes the scan fold every ledger again
// from the start, once. Caller holds adoptMu, or is openDurable.
func (s *Server) scanFleet() {
	paths, _ := filepath.Glob(filepath.Join(s.opts.DataDir, "audit*.log"))
	for pass := 1; pass <= 2; pass++ {
		var broken error
		for _, p := range paths {
			if s.tails[p] == nil {
				s.tails[p] = ledger.NewTail(p)
			}
			if err := s.tails[p].Next(s.fold.add); err != nil {
				broken = err
			}
		}
		if broken == nil {
			return
		}
		s.logger.Warn("ledger scan broken", "pass", pass, "error", broken.Error())
		if pass == 1 {
			s.fold, s.tails = newJobFold(s.nodeID()), map[string]*ledger.Tail{}
		}
	}
}

// adoptOrphans folds what the members' ledgers gained into s.fold and
// takes ownership of every job the current ring assigns to
// this node but which is missing from the local table — the
// re-ownership half of failover. Dead members' completed jobs come back
// servable from their on-disk shard sets; jobs they were still running
// come back failed (or requeued under Options.Requeue, rerunning the
// deterministic spec). filterID restricts the adoption to one job (""
// adopts everything owed).
func (s *Server) adoptOrphans(filterID string) {
	if s.opts.Cluster == nil {
		return
	}
	s.adoptMu.Lock()
	defer s.adoptMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	s.scanFleet()
	s.mu.Lock()
	maps.Copy(s.evicted, s.fold.evicted)
	s.mu.Unlock()
	// A targeted adoption takes only the asked-for job and skips the
	// ring check: the request reached us because *some* member's ring
	// routed it here, and that member may have observed the owner's
	// death before we probed it — refusing until our own ring catches up
	// would 404 a servable job. A job that cannot be restored stays in
	// the fold; the next scan retries it.
	_ = s.restore(s.fold.states(filterID), filterID != "", func(job *Job) {
		s.metrics.clusterAdopted.Inc()
		s.addDurableEvent(job, client.EventAdopted, "replayed from shared ledger after ownership change")
		s.logger.Info("job adopted", "job", job.id, "trace", job.trace)
	})
}

// adoptJob is the lazy single-job adoption used on a table miss: a
// request for a job we own but never saw (its owner died and we have
// not probed that yet) replays it from the shared ledgers on the spot.
func (s *Server) adoptJob(id string) *Job {
	s.adoptOrphans(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// nodeLockStale mirrors the staleness window passed to AcquireNodeLock:
// a lock heartbeat older than this means its holder is presumed dead.
const nodeLockStale = 10 * time.Second

// nodeLockFresh reports whether a member's shared-dir lock file has a
// recent heartbeat — liveness as the filesystem tells it, which cuts
// through transient probe/ring disagreement.
func (s *Server) nodeLockFresh(nodeID string) bool {
	fi, err := os.Stat(filepath.Join(s.opts.DataDir, "nodes", nodeID+".lock"))
	return err == nil && time.Since(fi.ModTime()) <= nodeLockStale
}

// mergeClusterList fans the job list out to alive peers and merges
// their local views with ours, deduplicated by job ID (after a
// failover-and-return, two members can briefly hold the same job — the
// current ring owner's copy wins) and ordered by submission time.
// tenantID is the requesting identity, carried to each peer so its
// local view is scoped exactly as ours was ("" = admin or auth off).
func (s *Server) mergeClusterList(out []JobStatus, tenantID string) []JobStatus {
	c := s.opts.Cluster
	// A dying peer hides its jobs until adoption catches up.
	for _, peer := range fetchPeers[[]JobStatus](c, "/v1/jobs?scope=local", tenantID) {
		out = append(out, peer...)
	}
	best := make(map[string]int, len(out)) // job ID -> index of kept copy
	deduped := out[:0]
	for _, st := range out {
		i, dup := best[st.ID]
		if !dup {
			best[st.ID] = len(deduped)
			deduped = append(deduped, st)
			continue
		}
		if st.Node == c.Owner(st.ID).ID {
			deduped[i] = st
		}
	}
	out = deduped
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.Before(out[j].Submitted)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// fetchPeers GETs path from every alive peer except this node, all at
// once (one slow peer costs one timeout, not N), and decodes each answer
// as a T. FetchPeer marks each fetch as forwarded, so peers answer from
// local state and the fan-out never cascades. A peer that fails or
// answers something that does not decode contributes T's zero value.
func fetchPeers[T any](c *cluster.Cluster, path, tenantID string) []T {
	nodes := c.Nodes()
	out := make([]T, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		if n.ID == c.Self().ID || !c.Alive(n.ID) {
			continue
		}
		wg.Add(1)
		go func(i int, n cluster.Node) {
			defer wg.Done()
			b, err := c.FetchPeer(n, path, tenantID, 5*time.Second)
			if err != nil {
				return
			}
			var v T
			if json.Unmarshal(b, &v) == nil {
				out[i] = v
			}
		}(i, n)
	}
	wg.Wait()
	return out
}
