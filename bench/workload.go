package main

import (
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/pkg/client"
)

const (
	// clients is the closed-loop load: one SDK client per core of the
	// 2-core box the bounds were measured on. The benchmark refuses to
	// run with fewer cores.
	clients = 2
	// runSeconds is the window BENCHMARK.json fixes. The contract's cap
	// (92 runs, each with three set-ups and a verify phase, inside
	// 3420 s) leaves no room for the 30 s the issue asked for.
	runSeconds = 12
	// setupReps is how many times a run sets up from scratch; setup_s
	// is the median, the last set-up serves the window.
	setupReps = 3

	scanBatch = 32 // batch_size of full scans
	seekBatch = 16 // batch_size of seek_open requests and of the cursor grid
	seekMax   = 2  // max_batches of seek_open requests
	tenantN   = 8  // registered tenants

	// prepare_mix: the submitter starts one job per submitEvery and the
	// server retains retainJobs completed jobs, the four corpus jobs
	// among them. A job takes 0.4-0.9 s of which about a third is CPU and
	// the rest fsync waits, so at one job a second the pipelines' CPU
	// demand per window is fixed; submitted back to back, it followed the
	// disk's sync latency and the reader's rate had two levels a third
	// apart (README.md). The warm-up submits retainJobs minus corpus jobs,
	// so every job that completes in the window evicts one.
	submitEvery = time.Second
	retainJobs  = 8
)

// benchDomains is the fixed domain order behind every job index, Zipf
// rank and submit cycle: index i is domain i%4, so the domain mix of a
// run does not depend on the seed.
var benchDomains = []core.Domain{core.Climate, core.Fusion, core.BioHealth, core.Materials}

// specFor is the per-domain job spec, near the domain.Spec ceilings.
// scale>1 divides the record-count knob (the smoke test runs at 16).
func specFor(d core.Domain, seed int64, scale int) domain.Spec {
	s := domain.Spec{Domain: d, Seed: seed}
	switch d {
	case core.Climate:
		s.Months, s.Lat, s.Lon = 600/scale, 32, 64
	case core.Fusion:
		s.Shots = 256 / scale
	case core.BioHealth:
		s.Subjects, s.SeqLen = 2000/scale, 2048
	case core.Materials:
		s.Structures = 5000 / scale
	}
	return s
}

// workload is one traffic mix against one corpus and cache size.
type workload struct {
	name, why string
	// seedsPerDomain sizes the corpus: jobs = 4 × seedsPerDomain.
	seedsPerDomain int
	cacheBytes     int64
	maxJobs        int
	warmup         time.Duration
	wire           string
	// zipf picks jobs by Zipf(1.1) rank instead of looping a permutation.
	zipf bool
	// seek turns every request into a two-batch read from a random cursor.
	seek bool
	// submitEvery > 0 makes client 0 a job submitter: one job in flight
	// at a time, the next one started submitEvery after the previous was,
	// or as soon as that one is done if it took longer.
	submitEvery time.Duration
}

var workloads = []workload{
	{
		name:           "warm_scan",
		why:            "hot-dataset epoch re-reads: half of a cycle is the ledger commit of the stream open, half frame-cache slicing, HTTP write and client frame decode; stores, codec encode and pipelines do nothing",
		seedsPerDomain: 1, cacheBytes: 256 << 20, warmup: time.Second, wire: client.WireFrame,
	},
	{
		name:           "cold_scan",
		why:            "first-epoch reads over a working set 4x the serve cache: store range reads, sidecar open/CRC, bio unseal and cache fill/evict dominate",
		seedsPerDomain: 5, cacheBytes: 4 << 20, warmup: 2 * time.Second, wire: client.WireFrame, zipf: true,
	},
	{
		name:           "seek_open",
		why:            "point lookups from random cursors: per-open cost (mux, auth, ledger group commit, cursor check, spans, headers) dominates, payload is negligible",
		seedsPerDomain: 1, cacheBytes: 256 << 20, warmup: time.Second, wire: client.WireFrame, seek: true,
	},
	{
		name:           "prepare_mix",
		why:            "writes beside reads: one job a second through the four pipelines, shard fsync+rename, sidecar build, job-log and ledger fsyncs, eviction, beside NDJSON serving from the decoded cache",
		seedsPerDomain: 1, cacheBytes: 256 << 20, maxJobs: retainJobs, warmup: (retainJobs - 4) * submitEvery, wire: client.WireNDJSON, submitEvery: submitEvery,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) corpusJobs() int { return len(benchDomains) * w.seedsPerDomain }

// request is one generated operation. The server only ever sees what
// is derived from it: a job spec to submit, or a job to stream from a
// cursor picked by pick.
type request struct {
	submit bool
	spec   domain.Spec // submit only
	job    int         // corpus job index
	pick   uint64      // seek only: chooses the start cursor, modulo the job's cursor grid
}

// plan is the one generator behind a run: corpus job seeds, every
// client's request stream and the probe seeds all derive from -seed
// through it, in a fixed order.
type plan struct {
	w       workload
	scale   int
	master  *rand.Rand
	clients [clients]*clientGen
}

type clientGen struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	perm   []int
	pos    int
	cycle  int // submit: position in the four-domain cycle
	submit bool
}

func newPlan(w workload, seed int64, scale int) *plan {
	p := &plan{w: w, scale: scale, master: rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))}
	for i := range p.clients {
		g := &clientGen{rng: rand.New(rand.NewPCG(p.master.Uint64(), p.master.Uint64()))}
		g.perm = g.rng.Perm(w.corpusJobs())
		if w.zipf {
			g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(w.corpusJobs()-1))
		}
		g.submit = w.submitEvery > 0 && i == 0
		p.clients[i] = g
	}
	return p
}

// jobSeed draws a fresh non-zero job seed (0 means "default" to the
// server, which would make two jobs identical).
func jobSeed(r *rand.Rand) int64 { return 1 + r.Int64N(1<<40) }

// corpusSpecs draws the corpus job specs for one set-up; job i is
// domain i%4. Each set-up repetition draws fresh seeds.
func (p *plan) corpusSpecs() []domain.Spec {
	specs := make([]domain.Spec, p.w.corpusJobs())
	for i := range specs {
		specs[i] = specFor(benchDomains[i%len(benchDomains)], jobSeed(p.master), p.scale)
	}
	return specs
}

// next generates client c's next request.
func (p *plan) next(c int) request {
	g := p.clients[c]
	switch {
	case g.submit:
		d := benchDomains[g.cycle%len(benchDomains)]
		g.cycle++
		return request{submit: true, spec: specFor(d, jobSeed(g.rng), p.scale)}
	case p.w.seek:
		return request{job: g.rng.IntN(p.w.corpusJobs()), pick: g.rng.Uint64()}
	case p.w.zipf:
		// Rank r is job r, so rank order interleaves the domains.
		return request{job: int(g.zipf.Uint64())}
	default:
		job := g.perm[g.pos%len(g.perm)]
		g.pos++
		return request{job: job}
	}
}
