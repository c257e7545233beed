// Job model for the draid service: a submission names a domain plugin
// and synthetic-input scale; the server runs the archetype pipeline
// asynchronously on a bounded worker pool and retains the outputs
// (shard sink, manifest, readiness trajectory, provenance) for the
// serving endpoints. All per-domain behaviour — input synthesis,
// pipeline options, manifest extraction, sealed-shard opening, wire
// encoding — lives behind internal/domain plugins; this package never
// switches on core.Domain.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/domain"
	"repro/internal/ledger"
	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/pkg/client"
)

// The REST API types are owned by pkg/client — the supported SDK — so
// the server serves exactly the structs clients decode. The aliases
// keep this package's vocabulary.

// JobState is the lifecycle position of a submitted job.
type JobState = client.JobState

// Job lifecycle states.
const (
	JobQueued  = client.JobQueued
	JobRunning = client.JobRunning
	JobDone    = client.JobDone
	JobFailed  = client.JobFailed
)

// JobSpec is the submission body: which domain template to run and how
// large a synthetic input to prepare (see wire.Spec for the knobs and
// their ceilings).
type JobSpec = wire.Spec

// TrajectoryPoint is one stage of the job's readiness trajectory — the
// Table 2 walk exposed over the API.
type TrajectoryPoint = client.TrajectoryPoint

// JobStatus is the JSON view of a job.
type JobStatus = client.JobStatus

// Job is one pipeline run owned by the server.
type Job struct {
	mu         sync.Mutex
	id         string
	spec       JobSpec
	state      JobState
	err        string
	submitted  time.Time
	started    time.Time
	finished   time.Time
	trajectory []TrajectoryPoint
	records    int64

	// Populated on success.
	manifest *shard.Manifest
	store    jobStore // raw shard storage (owned; destroyed on eviction)
	servable bool     // a manifest-indexed shard set is attached
	tracker  *provenance.Tracker
	key      []byte // per-job shard secret (sealed into its done record)

	// lastAccess drives TTL/LRU eviction: completion and every batch
	// stream refresh it.
	lastAccess time.Time

	// trace is the submitting request's trace ID; events is the
	// lifecycle timeline served by /v1/jobs/{id}/events (rebuilt from
	// the ledger on replay, so it spans restarts).
	trace  string
	events []JobEvent

	// tenant owns the job ("" = submitted with auth off). Immutable
	// after construction — set before the job is published to the
	// table, so readers need no lock.
	tenant string
}

// newJob builds a job, queued, from its submitted record: a live
// submission and a replayed one start from the same code, so their
// timelines do too.
func newJob(sub jobRecord) *Job {
	return &Job{
		id: sub.Job, spec: *sub.Spec, state: JobQueued, submitted: sub.Time, lastAccess: sub.Time,
		trace: sub.Trace, tenant: sub.Tenant,
		events: []JobEvent{
			{Event: client.EventSubmitted, Time: sub.Time, Node: sub.Node, Trace: sub.Trace},
			{Event: client.EventQueued, Time: sub.Time, Node: sub.Node, Trace: sub.Trace},
		},
	}
}

// touch refreshes the eviction clock.
func (j *Job) touch() {
	j.mu.Lock()
	j.lastAccess = time.Now()
	j.mu.Unlock()
}

// Events snapshots the job's lifecycle timeline in time order.
func (j *Job) Events() []JobEvent {
	j.mu.Lock()
	out := append([]JobEvent(nil), j.events...)
	j.mu.Unlock()
	sort.SliceStable(out, func(i, k int) bool { return out[i].Time.Before(out[k].Time) })
	return out
}

// Status snapshots the job for JSON rendering.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Spec: j.spec, State: j.state, Error: j.err,
		Submitted: j.submitted, Records: j.records, Servable: j.servable,
		Trajectory: append([]TrajectoryPoint(nil), j.trajectory...),
		Tenant:     j.tenant,
	}
	if plug, err := domain.Lookup(j.spec.Domain); err == nil {
		st.Kind = plug.Codec.Kind()
		st.Wires = wire.Wires()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.manifest != nil {
		st.Shards = len(j.manifest.Shards)
	}
	return st
}

// jobResult carries a finished pipeline run back onto the Job.
type jobResult struct {
	store      jobStore  // nil when none could be allocated
	built      time.Time // when Build returned: synthesis ends, the pipeline starts
	trajectory []TrajectoryPoint
	records    int64
	manifest   *shard.Manifest // describes the stored sidecars
	tracker    *provenance.Tracker
	pipe       *pipeline.Pipeline
	key        []byte
	sealedKey  string // key sealed under the master key by commitJob
}

// runSpec resolves the domain plugin, synthesizes the input, and runs
// the archetype pipeline over one domain.SidecarSink on the job's
// store — the body of one worker-pool slot. The shard stage so stores
// each shard as its frame sidecar and nothing else, and the manifest
// the result carries describes those sidecars. The result is never
// nil: a failed run still hands back its store and whatever trajectory
// and lineage it produced.
func runSpec(spec JobSpec, store jobStore) (*jobResult, error) {
	res := &jobResult{store: store}
	plug, err := domain.Lookup(spec.Domain)
	if err != nil {
		return res, err
	}
	sink := &domain.SidecarSink{Plugin: plug, Store: store}
	run, err := plug.Build(spec, sink)
	res.built = time.Now()
	if err != nil {
		return res, err
	}
	sink.Key = run.Key
	res.pipe = run.Pipeline
	snaps, err := run.Pipeline.Run(run.Dataset)
	res.trajectory = toTrajectory(snaps)
	res.tracker = run.Pipeline.Tracker
	if err != nil {
		return res, err
	}
	res.records = run.Dataset.Records
	manifest, err := plug.Manifest(run.Dataset)
	if err == nil {
		manifest, err = sink.StoredManifest(manifest)
	}
	if err != nil {
		return res, err
	}
	res.manifest = manifest
	res.key = run.Key
	return res, nil
}

func toTrajectory(snaps []pipeline.Snapshot) []TrajectoryPoint {
	out := make([]TrajectoryPoint, len(snaps))
	for i, s := range snaps {
		out[i] = TrajectoryPoint{
			Stage:     s.StageName,
			Kind:      s.StageKind.String(),
			Level:     int(s.Assessment.Level),
			LevelName: s.Assessment.Level.String(),
			Gaps:      append([]string(nil), s.Assessment.Gaps...),
		}
	}
	return out
}

// --- lifecycle ---------------------------------------------------------
//
// A job enters the table through admit or restore, reaches the queue
// only through admit, becomes done or failed only through finish, and
// leaves through maybeEvict.

// admit is the one way onto the queue: for a new job (sub is its
// submitted record) and for a replayed job that restore requeues (sub
// nil: the job is in the table and its record in the ledger). All that
// can refuse the job is checked first, under s.mu, so a refused job has
// logged nothing: a full queue and, for a new job, a closed server, a
// taken or evicted ID or its tenant's job quota. The job then holds a
// queue slot in s.admitting while a new job's record is made durable in
// the ledger — which is its audit record too; if that fails, the slot
// and the quota are released and the job never enters the table. Only
// then is a new job published and the job queued. The send cannot
// block: every send is this one, and the slot is released only once the
// job is in the queue. A refusal returns the status code the submitter
// gets. ctx is the submitting request's, for the append's span.
func (s *Server) admit(ctx context.Context, job *Job, sub *jobRecord) (code int, err error) {
	s.mu.Lock()
	switch {
	case sub != nil && s.closed:
		code, err = http.StatusServiceUnavailable, errors.New("server is shutting down")
	case sub != nil && (s.jobs[job.id] != nil || s.admitting[job.id]):
		code, err = http.StatusConflict, fmt.Errorf("job %q already exists", job.id)
	case sub != nil && s.evicted[job.id]:
		code, err = http.StatusConflict, fmt.Errorf("job %q was evicted; job IDs are never reused", job.id)
	case len(s.queue)+len(s.admitting) >= cap(s.queue):
		code, err = http.StatusTooManyRequests, fmt.Errorf("job queue full (%d waiting)", cap(s.queue))
	case sub != nil:
		if err = s.quotaAdmit(job.tenant); err != nil {
			code = http.StatusTooManyRequests
			s.metrics.tenantQuotaRejections.Inc()
		}
	}
	if err != nil {
		s.mu.Unlock()
		return code, err
	}
	s.admitting[job.id] = true
	s.mu.Unlock()
	if sub != nil {
		if err = s.audit(ctx, sub.Type, sub.Tenant, sub.Job, string(sub.Spec.Domain), &sub.jobBody); err != nil {
			s.quotaDeactivate(job.tenant)
		}
	}
	if err == nil {
		if sub != nil {
			s.mu.Lock()
			s.jobs[job.id] = job
			s.order = append(s.order, job.id)
			s.metrics.jobsTotal.Set(float64(len(s.jobs)))
			s.mu.Unlock()
		}
		s.queue <- job
		s.metrics.jobsQueued.Add(1)
	}
	s.mu.Lock()
	delete(s.admitting, job.id)
	s.mu.Unlock()
	if err != nil {
		return http.StatusServiceUnavailable, err
	}
	return http.StatusAccepted, nil
}

// restore is the one loop that puts replayed jobs into the table, at
// startup and on fleet adoption alike. In a fleet it skips a job the
// ring gives another member — unless anyOwner: a targeted adoption was
// routed here by some member's ring, which may have seen the owner die
// before we did. It also skips a non-terminal job whose accepting
// member still heartbeats its lock file: slow, not dead, and failing
// it (or wiping its half-written shards under -requeue) would turn a
// transient ring disagreement into data loss. Terminal jobs are
// immutable on disk and always safe to take. Each job put in the table
// is charged to its tenant if done, handed to added (when non-nil) and,
// if it was replayed unfinished under Options.Requeue, requeued once
// the loop is over: its partial output is wiped so the deterministic
// rerun starts clean, and it takes its tenant's job slot unchecked — it
// was admitted under the quota before the crash — before it tries the
// queue. A requeue the queue cannot hold (more interrupted jobs than
// QueueDepth) fails through finish, the non-requeue outcome. A job that
// cannot be restored is skipped, and its error returned.
func (s *Server) restore(states []*replayState, anyOwner bool, added func(*Job)) error {
	var requeued []*Job
	var errs []error
	for _, st := range states {
		id := st.sub.Job
		if c := s.opts.Cluster; c != nil {
			if !anyOwner && !c.IsLocal(id) {
				continue
			}
			if st.term == nil && st.sub.Node != "" && st.sub.Node != s.nodeID() && s.nodeLockFresh(st.sub.Node) {
				continue
			}
		}
		// Checked before restoreJob as well as after: restoring opens the
		// job's store and, for an unfinished job, logs its loss. A job
		// admit is still making durable is held too: its record can be
		// in the ledger before the job is in the table, and it stays in
		// s.admitting until it is.
		s.mu.Lock()
		held := s.jobs[id] != nil || s.admitting[id]
		s.mu.Unlock()
		if held {
			continue
		}
		job, requeue, err := s.restoreJob(st)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		done := job.state == JobDone // read before the job is published
		s.mu.Lock()
		if held = s.jobs[id] != nil || s.admitting[id]; !held {
			s.jobs[id] = job
			s.order = append(s.order, id)
			s.metrics.jobsTotal.Set(float64(len(s.jobs)))
		}
		s.mu.Unlock()
		if held {
			continue
		}
		if done {
			s.quotaRetain(job.tenant, manifestStoredBytes(job.manifest))
		}
		if added != nil {
			added(job)
		}
		if requeue {
			requeued = append(requeued, job)
		}
	}
	for _, job := range requeued {
		if st, err := s.newStore(job.id); err == nil {
			_ = st.Destroy()
		}
		s.quotaActivate(job.tenant)
		if _, err := s.admit(context.Background(), job, nil); err != nil {
			s.finish(context.Background(), job, &jobResult{}, fmt.Errorf("requeue: %w", err))
			continue
		}
		s.addDurableEvent(job, client.EventRequeued, "interrupted job resubmitted after restart")
		s.logger.Info("job requeued", "job", job.id, "trace", job.trace)
	}
	return errors.Join(errs...)
}

// restoreJob rebuilds one job from its records. Jobs the crash
// caught queued or running come back as failed (their partial output
// is gone) — or, with Options.Requeue, as queued again (restore
// requeues them). Done jobs reattach to their on-disk shard set and
// reimport their persisted provenance DAG; one missing any shard's
// sidecar comes back failed. The timeline newJob starts
// gets the event records (adoption, requeue) and what the terminal
// record implies — running and the end — so no other transition is
// ever appended; Job.Events orders the whole.
func (s *Server) restoreJob(st *replayState) (job *Job, requeue bool, err error) {
	job = newJob(*st.sub)
	for _, ev := range st.events {
		job.events = append(job.events, JobEvent{Event: ev.Detail, Time: ev.Time, Node: ev.Node, Detail: ev.Error, Trace: ev.Trace})
	}
	rec := st.term
	if rec == nil {
		if s.opts.Requeue {
			return job, true, nil
		}
		job.state = JobFailed
		job.err = "interrupted by server restart"
		s.addEvent(job, client.EventFailed, job.err)
		// Record the loss so the next replay converges without this branch.
		_ = s.audit(context.Background(), ledger.TypeFailed, job.tenant, job.id, "", &jobBody{Error: job.err})
		return job, false, nil
	}
	if !rec.Started.IsZero() {
		job.events = append(job.events, JobEvent{Event: client.EventRunning, Time: rec.Started, Node: rec.Node, Trace: job.trace})
	}
	job.started = rec.Started
	job.finished = rec.Time
	job.lastAccess = rec.Time
	if len(rec.Provenance) > 0 {
		if tr, perr := provenance.Import(rec.Provenance); perr == nil {
			job.tracker = tr
		}
	}
	if rec.Type == ledger.TypeFailed {
		job.state = JobFailed
		job.err = rec.Error
		job.events = append(job.events, JobEvent{Event: client.EventFailed, Time: rec.Time, Node: rec.Node, Detail: rec.Error, Trace: job.trace})
		return job, false, nil
	}
	job.state = JobDone
	job.events = append(job.events, JobEvent{Event: client.EventDone, Time: rec.Time, Node: rec.Node, Trace: job.trace})
	job.records = rec.Records
	job.trajectory = rec.Traject
	// A job is servable whenever a manifest-indexed shard set exists and
	// its domain has a plugin.
	job.manifest = rec.Manifest
	plug, perr := domain.Lookup(job.spec.Domain)
	job.servable = rec.Manifest != nil && perr == nil
	if !job.servable {
		return job, false, nil
	}
	store, err := s.newStore(job.id)
	if err != nil {
		return nil, false, err
	}
	// Trust the on-store manifest over the record's copy when present:
	// it is committed atomically alongside the shards it describes.
	if m, merr := store.LoadManifest(); merr == nil {
		job.manifest = m
	}
	job.store = store
	if rec.SealedKey != "" {
		key, err := unsealJobKey(s.master, rec.SealedKey, job.id)
		if err != nil {
			job.state = JobFailed
			job.err = fmt.Sprintf("restore: %v", err)
			job.servable = false
			return job, false, nil
		}
		job.key = key
	}
	// A job is served whole or not at all: every shard's sidecar must be
	// there. A job dir from before sidecars were all a job stored also
	// holds native shards; nothing reads them, and they go with the dir.
	for _, info := range job.manifest.Shards {
		if store.Size(plug.StoredName(domain.SidecarName(info.Name), job.key != nil)) == 0 {
			job.state = JobFailed
			job.err = "restore: sidecar files missing from data dir"
			job.servable = false
			break
		}
	}
	return job, false, nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Check stop first: a blocking select alone picks randomly when
		// both channels are ready, which would keep draining a full
		// queue instead of shutting down.
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case job := <-s.queue:
			s.runJob(job)
		}
	}
}

// runJob runs one job on a worker: pipeline (which stores the
// sidecars), commit, then finish. A job's id, spec, trace, tenant and
// submission time never change once it is in the table, so they are
// read without job.mu.
func (s *Server) runJob(job *Job) {
	spec, trace, started := job.spec, job.trace, time.Now()
	job.mu.Lock()
	job.state, job.started = JobRunning, started
	job.mu.Unlock()
	s.metrics.jobsQueued.Add(-1)
	s.metrics.jobsInFlight.Add(1)
	defer s.metrics.jobsInFlight.Add(-1)
	s.addEvent(job, client.EventRunning, "")
	s.logger.Info("job running", "job", job.id, "domain", string(spec.Domain), "trace", trace)

	// Job spans live in the submission's trace but are top-level there:
	// the submission request span ended long before the worker picked the
	// job up, so parenting under it would violate interval nesting.
	var runSpan *telemetry.Span
	if telemetry.ValidTraceID(trace) {
		s.spans.Record(telemetry.SpanData{
			TraceID: trace, SpanID: telemetry.NewSpanID(), Name: "job.wait",
			Start: job.submitted, End: started,
			Attrs: map[string]string{"job": job.id},
		})
		runSpan = s.spans.StartChild("job.run", telemetry.SpanContext{TraceID: trace})
		runSpan.SetAttr("job", job.id)
		runSpan.SetAttr("domain", string(spec.Domain))
	}
	// runCtx parents job.run's children; untraced, it records none.
	runCtx := telemetry.ContextWithSpan(context.Background(), runSpan)

	res := &jobResult{}
	var pipeStart, pipeEnd time.Time
	store, err := s.newStore(job.id)
	if err == nil {
		pipeStart = time.Now()
		res, err = runSpec(spec, store)
		pipeEnd = time.Now()
		s.metrics.observeStage("job:"+string(spec.Domain), pipeEnd.Sub(pipeStart).Seconds(), 1, 0)
		if !res.built.IsZero() {
			s.recordChildSpan(runCtx, "job.synthesize", pipeStart, res.built, nil)
		}
	}
	if err == nil {
		start := time.Now()
		err = s.commitJob(job.id, res)
		s.recordChildSpan(runCtx, "job.commit", start, time.Now(), nil)
	}
	if err = s.finish(runCtx, job, res, err); err != nil {
		runSpan.SetError(err.Error())
		runSpan.End()
		return
	}

	// Fold the pipeline's per-stage timings into the stage counters so
	// /metrics aggregates stage cost across all jobs.
	for _, st := range res.pipe.Collector.ByStage() {
		s.metrics.observeStage(st.Stage, st.Total.Seconds(), int64(st.Calls), st.Bytes)
	}

	// Synthesize job.stage child spans from the pipeline's sample record:
	// samples were taken sequentially while the pipeline ran, so laying
	// them end to end from the end of Build reconstructs the stage
	// timeline (clamped so no stage outlasts the pipeline).
	if runSpan != nil {
		cursor := res.built
		for _, sm := range res.pipe.Collector.Samples() {
			end := cursor.Add(sm.Duration)
			if end.After(pipeEnd) {
				end = pipeEnd
			}
			s.recordChildSpan(runCtx, "job.stage", cursor, end, map[string]string{"stage": sm.Stage, "category": sm.Category})
			cursor = end
		}
		runSpan.End()
	}
}

// commitJob is a job's one durability point. No sidecar the pipeline
// stored has been fsynced by its writer (shard.FSSink syncs behind
// them): the barrier makes every file and its directory
// entry durable, only then is the manifest published, and only after
// this returns may finish append the terminal record. A power cut before
// that record leaves a job that replay reruns or fails; after it,
// everything the record promises is on disk.
func (s *Server) commitJob(id string, res *jobResult) (err error) {
	if err := res.store.Sync(); err != nil {
		return fmt.Errorf("commit shard set: %w", err)
	}
	if res.manifest != nil {
		if err := res.store.WriteManifest(res.manifest); err != nil {
			return err
		}
	}
	if res.key != nil {
		res.sealedKey, err = sealJobKey(s.master, res.key, id)
	}
	return err
}

// finish is the one place a live job becomes done or failed: the end
// of runJob, either way, and a requeue that found the queue full. The
// terminal record is made durable first; only then does
// the state flip and the event go out, so no client sees a job done
// that a restart would not find done. A failed append fails the job
// with an error naming the audit ledger — the ledger is sticky-failed
// by then, so a restart finds no terminal record and replays the job as
// interrupted. The record is built and appended outside job.mu, so
// status polls never wait on its fsync. The record's ledger.append span
// is a child of ctx's span (runJob's job.run). finish returns the job's
// final error: nil when it is done.
func (s *Server) finish(ctx context.Context, job *Job, res *jobResult, err error) error {
	// Only runJob writes job.started, and it is finish's caller then.
	typ, body := ledger.TypeDone, jobBody{Started: job.started}
	if err == nil {
		body.Records, body.Manifest, body.Traject, body.SealedKey = res.records, res.manifest, res.trajectory, res.sealedKey
	} else {
		typ, body.Error = ledger.TypeFailed, err.Error()
	}
	// The lineage DAG rides along on every terminal record so replayed
	// jobs keep serving /provenance (a failed run's partial lineage is
	// worth as much as a successful one's for debugging).
	if res.tracker != nil {
		if b, perr := res.tracker.Export(); perr == nil {
			body.Provenance = b
		}
	}
	if lerr := s.audit(ctx, typ, job.tenant, job.id, "", &body); lerr != nil && err == nil {
		err = lerr
	}

	now := time.Now()
	job.mu.Lock()
	job.finished, job.lastAccess = now, now
	job.store = res.store
	job.trajectory, job.tracker = res.trajectory, res.tracker
	if err != nil {
		job.state, job.err = JobFailed, err.Error()
	} else {
		job.state = JobDone
		job.records, job.manifest, job.key, job.servable = res.records, res.manifest, res.key, res.manifest != nil
	}
	job.mu.Unlock()
	s.quotaDeactivate(job.tenant)
	if err != nil {
		s.metrics.jobsFailed.Inc()
		s.addEvent(job, client.EventFailed, err.Error())
		s.logger.Info("job failed", "job", job.id, "error", err.Error(), "trace", job.trace)
	} else {
		s.quotaRetain(job.tenant, manifestStoredBytes(res.manifest))
		s.metrics.jobsDone.Inc()
		s.addEvent(job, client.EventDone, "")
		s.logger.Info("job done", "job", job.id, "records", res.records, "trace", job.trace)
	}
	s.maybeEvict()
	return err
}

// evictLoop applies TTL eviction on a timer (LRU pressure is also
// checked at every job completion).
func (s *Server) evictLoop() {
	defer s.wg.Done()
	interval := time.Second
	if ttl := s.opts.JobTTL; ttl > 0 {
		interval = min(max(ttl/4, 50*time.Millisecond), 30*time.Second)
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.maybeEvict()
		}
	}
}

// retained is a completed job as retention sees it.
type retained struct {
	job   *Job
	last  time.Time // lastAccess: completion or the latest batch stream
	bytes int64     // stored bytes its manifest pins
	owned bool      // this node is its ring owner (always, outside a fleet)
}

// retentionVictims picks what retention removes from jobs. A job this
// node does not own is released: in a fleet only the current ring owner
// may evict, since destroying a shard set out from under the member
// serving it would race on the shared dir. The owned jobs are walked
// once, oldest first (lastAccess, then ID), and a victim is one idle
// longer than ttl, one of the oldest beyond maxJobs, or — while its
// tenant's over (retained bytes minus the cap, byte-capped tenants
// only) is still positive — one that frees bytes. TTL victims are the
// oldest prefix and the maxJobs excess the next, so when the byte check
// reaches any other job its tenant's over already nets out every
// earlier victim. ttl and maxJobs <= 0 are off; over is not modified.
func retentionVictims(jobs []retained, now time.Time, ttl time.Duration, maxJobs int, over map[string]int64) (victims, released []*Job) {
	var owned []retained
	for _, r := range jobs {
		if r.owned {
			owned = append(owned, r)
		} else {
			released = append(released, r.job)
		}
	}
	slices.SortFunc(owned, func(a, b retained) int {
		return cmp.Or(a.last.Compare(b.last), strings.Compare(a.job.id, b.job.id))
	})
	left := maps.Clone(over)
	for i, r := range owned {
		expired := ttl > 0 && now.Sub(r.last) > ttl
		excess := maxJobs > 0 && i < len(owned)-maxJobs
		if expired || excess || (left[r.job.tenant] > 0 && r.bytes > 0) {
			victims = append(victims, r.job)
			if _, capped := left[r.job.tenant]; capped {
				left[r.job.tenant] -= r.bytes
			}
		}
	}
	return victims, released
}

// maybeEvict applies retention: under s.mu it collects the completed
// jobs, selects victims with retentionVictims and drops them from the
// table; then it applies the eviction outside the lock. In-flight
// streams of a victim fail on their next uncached shard read — the
// same contract as any storage eviction.
//
// The order is the contract. A victim first leaves the job table, so
// every new request for it gets 404 at once. Then its evicted record —
// its audit record too — is appended, and only once that is durable are
// its shard files destroyed: if the record cannot be written the files
// stay, and a restart re-serves the job instead of replaying one whose
// shards are gone. A 404 therefore does not mean the files are gone yet; they go
// within the same call.
func (s *Server) maybeEvict() {
	ttl, maxJobs, over := s.opts.JobTTL, s.opts.MaxJobs, s.quotaOverage()
	if ttl <= 0 && maxJobs <= 0 && len(over) == 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	var done []retained
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == JobDone || j.state == JobFailed {
			done = append(done, retained{job: j, last: j.lastAccess, bytes: manifestStoredBytes(j.manifest),
				owned: s.opts.Cluster == nil || s.opts.Cluster.IsLocal(j.id)})
		}
		j.mu.Unlock()
	}
	victims, released := retentionVictims(done, now, ttl, maxJobs, over)
	leaving := slices.Concat(victims, released)
	if len(leaving) == 0 {
		s.mu.Unlock()
		return
	}
	for _, j := range leaving {
		delete(s.jobs, j.id)
	}
	for _, j := range victims {
		s.evicted[j.id] = true
	}
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return s.jobs[id] == nil })
	s.metrics.jobsTotal.Set(float64(len(s.jobs)))
	s.mu.Unlock()

	var evicted []*Job
	for _, j := range victims {
		if err := s.audit(context.Background(), ledger.TypeEvicted, j.tenant, j.id, "retention", nil); err != nil {
			s.logger.Warn("eviction not logged; shard files kept", "job", j.id, "error", err.Error())
			continue
		}
		if j.store != nil {
			_ = j.store.Destroy()
		} else {
			// Restored jobs without an attached store (failed or
			// interrupted) may still own a shard directory.
			_ = os.RemoveAll(filepath.Join(s.opts.DataDir, "jobs", j.id))
		}
		evicted = append(evicted, j)
	}
	// Files are destroyed before the cache is invalidated: a load that
	// starts in the gap then either fails (files gone — nothing
	// inserted) or completes before DropPrefix and is swept or
	// tombstoned by it. The reverse order would let a load beginning
	// just after DropPrefix read still-present files and cache the
	// deleted job's records forever. A released copy's bytes are
	// retained by the ring owner on its side; this node stops charging
	// them here.
	for _, j := range leaving {
		s.cache.DropPrefix(j.id + "/")
		s.quotaRelease(j.tenant, manifestStoredBytes(j.manifest))
	}
	for _, j := range evicted {
		s.metrics.jobsEvicted.Inc()
		s.logger.Info("job evicted", "job", j.id)
	}
}
