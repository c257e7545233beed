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
	"sort"
	"sync"
	"time"

	"repro/internal/domain"
	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/shard"
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
// large a synthetic input to prepare (see domain.Spec for the knobs and
// their ceilings).
type JobSpec = domain.Spec

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
	store    shard.Store // raw shard storage (owned; destroyed on eviction)
	servable bool        // a manifest-indexed shard set is attached
	tracker  *provenance.Tracker
	key      []byte // per-job shard secret (sealed into the job log)

	// lastAccess drives TTL/LRU eviction: completion and every batch
	// stream refresh it.
	lastAccess time.Time

	// trace is the submitting request's trace ID; events is the
	// lifecycle timeline served by /v1/jobs/{id}/events (rebuilt from
	// the job log on replay, so it spans restarts).
	trace  string
	events []JobEvent

	// tenant owns the job ("" = submitted with auth off). Immutable
	// after construction — set before the job is published to the
	// table, so readers need no lock.
	tenant string
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
		st.Wires = domain.Wires()
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
	plug       domain.Plugin
	trajectory []TrajectoryPoint
	records    int64
	manifest   *shard.Manifest
	servable   bool
	tracker    *provenance.Tracker
	pipe       *pipeline.Pipeline
	key        []byte
}

// runSpec resolves the domain plugin, synthesizes the input, and runs
// the archetype pipeline over the job's shard store (in-memory, durable
// FSSink, or parfs, chosen by the server) — the body of one worker-pool
// slot.
func runSpec(spec JobSpec, sink shard.Store) (*jobResult, error) {
	plug, err := domain.Lookup(spec.Domain)
	if err != nil {
		return nil, err
	}
	run, err := plug.Build(spec, sink)
	if err != nil {
		return nil, err
	}
	res := &jobResult{plug: plug, pipe: run.Pipeline}
	snaps, err := run.Pipeline.Run(run.Dataset)
	res.trajectory = toTrajectory(snaps)
	res.tracker = run.Pipeline.Tracker
	if err != nil {
		return res, err
	}
	res.records = run.Dataset.Records
	manifest, err := plug.Manifest(run.Dataset)
	if err != nil {
		return res, err
	}
	res.manifest = manifest
	res.key = run.Key
	res.servable = true
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
