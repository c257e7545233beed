// Package pipeline is the staged execution engine for data-readiness
// workflows. It enforces the paper's abstracted cross-domain pattern
// (§3.5: ingest → preprocess → transform → structure → shard), times every
// stage, captures provenance, re-assesses readiness after each stage (the
// Table 2 trajectory), and supports the iterative feedback loops of
// Fig. 1 ("data preparation outcomes inform subsequent model training …
// model performance … triggers further data refinement").
package pipeline

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/provenance"
)

// Dataset is the unit of work flowing through a pipeline. Payload holds
// the domain-specific representation (grids, shot trees, record sets, …);
// Facts drive readiness assessment; Meta carries descriptive metadata
// (paper: "enhanced metadata enrichment").
type Dataset struct {
	Name    string
	Domain  core.Domain
	Payload any
	Meta    map[string]string
	Facts   core.Facts
	// Bytes and Records size the dataset for throughput accounting;
	// stages should keep them current.
	Bytes   int64
	Records int64
	rev     int
}

// NewDataset returns a raw dataset wrapper (Facts.Acquired set).
func NewDataset(name string, domain core.Domain, payload any) *Dataset {
	return &Dataset{
		Name:    name,
		Domain:  domain,
		Payload: payload,
		Meta:    make(map[string]string),
		Facts:   core.Facts{Acquired: true},
	}
}

// ID returns a revision-scoped artifact identifier for provenance capture.
func (d *Dataset) ID() provenance.ArtifactID {
	return provenance.HashBytes([]byte(fmt.Sprintf("%s|%s|rev%d", d.Domain, d.Name, d.rev)))
}

// SetMeta records a metadata field and keeps Facts.MetadataFields current.
func (d *Dataset) SetMeta(key, value string) {
	d.Meta[key] = value
	d.Facts.MetadataFields = len(d.Meta)
}

// Stage is one pipeline step. Kind tags it with its abstract processing
// stage so the engine can verify the cross-domain pattern and build the
// maturity trajectory.
type Stage interface {
	Name() string
	Kind() core.Stage
	Run(ds *Dataset) error
}

// StageFunc adapts a function to Stage.
type StageFunc struct {
	StageName string
	StageKind core.Stage
	Fn        func(ds *Dataset) error
}

// Name implements Stage.
func (s StageFunc) Name() string { return s.StageName }

// Kind implements Stage.
func (s StageFunc) Kind() core.Stage { return s.StageKind }

// Run implements Stage.
func (s StageFunc) Run(ds *Dataset) error { return s.Fn(ds) }

// Snapshot freezes the readiness state after one stage — one point of the
// dataset's trajectory across the Table 2 matrix.
type Snapshot struct {
	StageName  string
	StageKind  core.Stage
	Assessment core.Assessment
}

// Pipeline executes stages in order.
type Pipeline struct {
	name       string
	stages     []Stage
	Collector  *Collector
	Tracker    *provenance.Tracker
	Thresholds core.Thresholds
	// Category labels stage time for the curation-share experiment;
	// stages not listed default to "curation" (everything before model
	// training is data curation in the paper's accounting).
	Category map[string]string
}

// New creates a pipeline, validating that stage kinds never move backwards
// through the abstract order (the paper's C4 pattern: every domain
// workflow is a monotone walk through ingest → … → shard).
func New(name string, stages ...Stage) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, errors.New("pipeline: no stages")
	}
	prev := core.Ingest
	for i, s := range stages {
		if !s.Kind().Valid() {
			return nil, fmt.Errorf("pipeline: stage %d (%s) has invalid kind", i, s.Name())
		}
		if s.Kind() < prev {
			return nil, fmt.Errorf("pipeline: stage %d (%s, %v) regresses before %v — violates ingest→shard order",
				i, s.Name(), s.Kind(), prev)
		}
		prev = s.Kind()
	}
	return &Pipeline{
		name:       name,
		stages:     stages,
		Collector:  NewCollector(),
		Tracker:    provenance.NewTracker(),
		Thresholds: core.DefaultThresholds(),
		Category:   make(map[string]string),
	}, nil
}

// Name returns the pipeline's name.
func (p *Pipeline) Name() string { return p.name }

// Stages returns the configured stages.
func (p *Pipeline) Stages() []Stage { return p.stages }

// Run executes all stages on ds, returning the per-stage readiness
// trajectory. On stage failure it returns the snapshots so far plus the
// error.
func (p *Pipeline) Run(ds *Dataset) ([]Snapshot, error) {
	if ds == nil {
		return nil, errors.New("pipeline: nil dataset")
	}
	p.Tracker.Label(ds.ID(), ds.Name+" (raw)")
	snaps := make([]Snapshot, 0, len(p.stages))
	for _, st := range p.stages {
		inID := ds.ID()
		cat := p.Category[st.Name()]
		if cat == "" {
			cat = "curation"
		}
		err := p.Collector.Time(st.Name(), cat, ds.Bytes, ds.Records, func() error {
			return st.Run(ds)
		})
		if err != nil {
			return snaps, fmt.Errorf("pipeline %s: stage %s: %w", p.name, st.Name(), err)
		}
		ds.rev++
		if _, perr := p.Tracker.Record(provenance.Activity{
			Name:    st.Name(),
			Agent:   fmt.Sprintf("pipeline:%s", p.name),
			Params:  map[string]string{"kind": st.Kind().String()},
			Inputs:  []provenance.ArtifactID{inID},
			Outputs: []provenance.ArtifactID{ds.ID()},
		}); perr != nil {
			return snaps, fmt.Errorf("pipeline %s: provenance: %w", p.name, perr)
		}
		ds.Facts.AuditTrail = true
		snaps = append(snaps, Snapshot{
			StageName:  st.Name(),
			StageKind:  st.Kind(),
			Assessment: core.Assess(ds.Facts, p.Thresholds),
		})
	}
	return snaps, nil
}

// VerifyMonotone checks the paper's C5 claim on a trajectory: assessed
// readiness levels never decrease as stages complete.
func VerifyMonotone(snaps []Snapshot) error {
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Assessment.Level < snaps[i-1].Assessment.Level {
			return fmt.Errorf("pipeline: readiness regressed from %v to %v at stage %s",
				snaps[i-1].Assessment.Level, snaps[i].Assessment.Level, snaps[i].StageName)
		}
	}
	return nil
}

// StageKinds lists the distinct abstract kinds a pipeline walks through,
// in order (the E7 structural check that a domain pipeline instantiates
// the shared pattern).
func (p *Pipeline) StageKinds() []core.Stage {
	var kinds []core.Stage
	for _, s := range p.stages {
		if len(kinds) == 0 || kinds[len(kinds)-1] != s.Kind() {
			kinds = append(kinds, s.Kind())
		}
	}
	return kinds
}

// Iterate runs a refinement stage repeatedly until done(ds) or maxRounds —
// the Fig. 1 feedback loop (pseudo-labeling, quality-driven re-cleaning).
// It returns the number of rounds executed.
func Iterate(ds *Dataset, st Stage, done func(*Dataset) bool, maxRounds int) (int, error) {
	if maxRounds <= 0 {
		return 0, fmt.Errorf("pipeline: maxRounds=%d must be positive", maxRounds)
	}
	for round := 1; round <= maxRounds; round++ {
		if done(ds) {
			return round - 1, nil
		}
		if err := st.Run(ds); err != nil {
			return round - 1, fmt.Errorf("pipeline: feedback round %d: %w", round, err)
		}
	}
	return maxRounds, nil
}

// ForEach applies fn to indices [0,n) across `workers` goroutines —
// record-level parallelism within a stage (regridding months, encoding
// structures, …). The first error wins; all workers drain.
func ForEach(n, workers int, fn func(i int) error) error {
	if n < 0 {
		return fmt.Errorf("pipeline: negative item count %d", n)
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}
