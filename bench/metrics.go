package main

import (
	"encoding/json"
	"math"
	"sort"
)

// metricDef names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a trainer sees from outside, measured with tracing
// off; every workload reports every one of them. The list is short on
// purpose: on the 2-vCPU sandbox the bounds were measured on, disk sync
// latency and job run time wander 1.5-2x over minutes, and a metric
// whose ten-run spread does not stay inside its bound proves nothing.
// Tail latencies, batch gaps, the rate of an open stream and the
// job-side numbers the issue also wanted here are per-layer metrics
// (client.*) for that reason; the write path is still bounded end to end
// through setup_s, which is mostly the corpus jobs' turnaround.
// README.md has the measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "records/s", "higher", 0.25},
	{"first_batch_ms_p50", "ms", "lower", 0.25},
	{"wire_bytes_per_record", "B", "lower", 0.01},
	{"stored_bytes_per_record", "B", "lower", 0.01},
}

// The label sets the patterned per-layer names expand over. A metric
// name may not hold '/', so bio/health is "bio".
var (
	wireKinds    = []string{"samples", "fusion_windows", "materials_graphs"}
	domainLabels = []string{"climate", "fusion", "bio", "materials"}
	stageLabels  = []string{"ingest", "preprocess", "transform", "structure", "shard"}
)

// perLayer is measured from outside in the traced run: handler
// middleware, store wrapper, client spans, /metrics and /events deltas,
// and direct probes of each layer's public functions.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	each := func(prefix string, labels []string, unit, better string) {
		for _, l := range labels {
			add(prefix+"."+l, unit, better)
		}
	}
	// pkg/client
	each("client.frame_decode_ns_per_record", wireKinds, "ns", "lower")
	each("client.ndjson_decode_ns_per_record", wireKinds, "ns", "lower")
	add("client.first_batch_ms_p95", "ms", "lower")
	add("client.first_batch_ms_p99", "ms", "lower")
	add("client.stream_records_per_s", "records/s", "higher")
	add("client.batch_gap_us_p50", "us", "lower")
	add("client.batch_gap_us_p99", "us", "lower")
	add("client.job_turnaround_ms_p50", "ms", "lower")
	add("client.job_turnaround_ms_p90", "ms", "lower")
	add("client.prepared_records_per_s", "records/s", "higher")
	add("client.resumes", "count", "lower")
	// internal/server
	add("server.batches_handler_ms_p50", "ms", "lower")
	add("server.batches_handler_ms_p99", "ms", "lower")
	add("server.open_to_first_write_us_p50", "us", "lower")
	add("server.submit_handler_ms_p50", "ms", "lower")
	add("server.shard_cache_hit_ratio", "ratio", "higher")
	add("server.frame_cache_hit_ratio", "ratio", "higher")
	add("server.frame_store_hit_ratio", "ratio", "higher")
	add("server.cache_evictions", "count", "lower")
	add("server.frame_store_backfills", "count", "lower")
	add("server.queue_wait_ms_p50", "ms", "lower")
	each("server.job_run_ms_p50", domainLabels, "ms", "lower")
	add("server.evicted_jobs", "count", "lower")
	add("server.serve_errors", "count", "lower")
	add("server.replay_ms", "ms", "lower")
	// internal/domain
	each("domain.decode_ns_per_record", wireKinds, "ns", "lower")
	each("domain.frame_encode_ns_per_record", wireKinds, "ns", "lower")
	each("domain.ndjson_encode_ns_per_record", wireKinds, "ns", "lower")
	add("domain.sidecar_open_us_p50", "us", "lower")
	add("domain.sidecar_range_mib_per_s", "MiB/s", "higher")
	add("domain.unseal_mib_per_s", "MiB/s", "higher")
	each("domain.sidecar_build_ms", domainLabels, "ms", "lower")
	each("domain.build_ms", domainLabels, "ms", "lower")
	// internal/pipeline and the four archetype pipelines
	for _, d := range domainLabels {
		add("pipeline."+d+".run_ms", "ms", "lower")
		add("pipeline."+d+".records_per_s", "records/s", "higher")
		each("pipeline."+d+".stage_ms", stageLabels, "ms", "lower")
	}
	// internal/shard
	add("shard.store_read_ops", "count", "lower")
	add("shard.store_read_bytes", "B", "lower")
	add("shard.store_read_busy_ms", "ms", "lower")
	add("shard.store_write_ops", "count", "lower")
	add("shard.store_write_bytes", "B", "lower")
	add("shard.store_write_busy_ms", "ms", "lower")
	add("shard.store_errors", "count", "lower")
	add("shard.read_amplification", "ratio", "lower")
	add("shard.readall_mib_per_s", "MiB/s", "higher")
	add("shard.writer_mib_per_s", "MiB/s", "higher")
	add("shard.openrange_us_p50", "us", "lower")
	// internal/ledger
	add("ledger.append_ms_p50", "ms", "lower")
	add("ledger.append_ms_p99", "ms", "lower")
	add("ledger.prove_us_p50", "us", "lower")
	add("ledger.appends", "count", "lower")
	add("ledger.records_per_sync", "ratio", "higher")
	// internal/tenant
	add("tenant.authenticate_ns", "ns", "lower")
	add("tenant.auth_failures", "count", "lower")
	// internal/telemetry
	add("telemetry.scrape_ms_p50", "ms", "lower")
	add("telemetry.spans_recorded", "count", "lower")
	add("telemetry.spans_dropped", "count", "lower")
	// process
	add("process.cpu_s_per_mrecord", "s", "lower")
	add("process.alloc_bytes_per_record", "B", "lower")
	add("process.gc_pause_ms_total", "ms", "lower")
	add("process.heap_inuse_peak_mib", "MiB", "lower")
	add("bench.trace_overhead_share", "ratio", "lower")
	return out
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// file and the code cannot list different names or bounds (the smoke
// test compares them).
func benchmarkJSON() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static tables of strings and numbers always marshal
	}
	return append(b, '\n')
}

// percentile returns the p-th percentile (0..100) of samples by linear
// interpolation between order statistics; it sorts samples in place.
// No samples gives 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := p / 100 * float64(len(samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return samples[lo] + (samples[hi]-samples[lo])*(rank-float64(lo))
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// ratio is a/b, 0 when b is 0 (no attempts, no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
