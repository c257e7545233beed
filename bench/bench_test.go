package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/shard"
)

type smokeKey struct {
	name  string
	seed  int64
	trace bool
}

// smokeRuns keeps each smoke run for the tests that look at it from
// another side: the whole file makes eight runs, a traced and an
// untraced one per workload.
var smokeRuns = map[smokeKey]*result{}

// smokeSeed is the seed a workload's smoke runs use: two of each.
func smokeSeed(name string) int64 {
	if name == "seek_open" || name == "prepare_mix" {
		return 2
	}
	return 1
}

// smoke is a run small enough for the race detector: a 300 ms window
// on a 1/16-scale corpus, one set-up. The trace file of a traced run
// lives only as long as the first test that asked for the run.
func smoke(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	key := smokeKey{name, seed, trace}
	if res, ok := smokeRuns[key]; ok {
		return res
	}
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := run(context.Background(), config{workload: w, seed: seed, seconds: 0.3, trace: trace,
		out: t.TempDir(), scale: 16, reps: 1})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	if !res.correct() {
		t.Fatalf("%s trace=%v: %d of %d operations failed: %v", name, trace, res.failed, res.attempted, res.errors)
	}
	smokeRuns[key] = res
	return res
}

// lineMetrics parses a result line the way the driver does.
func lineMetrics(t *testing.T, res *result) map[string]string {
	t.Helper()
	var line struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(resultLine(res)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Fatalf("result line says correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	units := make(map[string]string, len(line.Metrics))
	for name, m := range line.Metrics {
		if m.Value == nil {
			t.Errorf("metric %s has no value", name)
		}
		units[name] = m.Unit
	}
	return units
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smoke(t, w.name, smokeSeed(w.name), trace)
			got := lineMetrics(t, res)
			defs := defsFor(trace)
			if len(got) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics on the result line, %d declared", w.name, trace, len(got), len(defs))
			}
			for _, d := range defs {
				if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
					t.Errorf("metric %q unit %q breaks the naming rules", d.Name, d.Unit)
				}
				if unit, ok := got[d.Name]; !ok || unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s emitted=%v with unit %q, declared %q", w.name, trace, d.Name, ok, unit, d.Unit)
				}
			}
			if trace {
				if _, err := os.Stat(res.info["trace_file"].(string)); err != nil {
					t.Errorf("%s: traced run left no trace file: %v", w.name, err)
				}
				continue
			}
			for _, d := range defs {
				if !(res.metrics[d.Name] > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, res.metrics[d.Name])
				}
			}
		}
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the code's tables; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
}

func TestSeedDrivesEveryRequestSequence(t *testing.T) {
	draw := func(w workload, seed int64) []request {
		p := newPlan(w, seed, 1)
		var reqs []request
		for i := 0; i < 64; i++ {
			for c := 0; c < clients; c++ {
				reqs = append(reqs, p.next(c))
			}
		}
		return reqs
	}
	for _, w := range workloads {
		if !reflect.DeepEqual(draw(w, 1), draw(w, 1)) {
			t.Errorf("%s: the same seed gave two request sequences", w.name)
		}
		if reflect.DeepEqual(draw(w, 1), draw(w, 2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence", w.name)
		}
		if reflect.DeepEqual(newPlan(w, 1, 1).corpusSpecs(), newPlan(w, 2, 1).corpusSpecs()) {
			t.Errorf("%s: seeds 1 and 2 gave the same corpus job seeds", w.name)
		}
	}
	// Two of the smoke test's own runs: every workload reports the same table.
	a, b := lineMetrics(t, smoke(t, "warm_scan", 1, false)), lineMetrics(t, smoke(t, "seek_open", 2, false))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seeds 1 and 2 reported different metric sets: %v vs %v", a, b)
	}
}

// A child that outlives its parent, or overlaps a sibling, takes from the
// parent's self time only the part of the parent's interval it covers.
func TestSelfTimeCountsCoveredIntervalOnce(t *testing.T) {
	r := newRecorder()
	r.on.Store(true)
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	stream := r.add("client.stream", 0, at(0), at(10), "t1")
	r.add("client.open", stream, at(0), at(4), "")
	r.add("client.drain", stream, at(4), at(9), "")
	handler := r.add("server.batches", 0, at(1), at(8), "t1")
	r.add("server.to_first_write", handler, at(1), at(3), "")
	r.link()
	want := map[string]float64{"client.stream": 1, "client.open": 1, "client.drain": 5, "server.batches": 5, "server.to_first_write": 2}
	for _, row := range r.summarize() {
		if row.SelfMs != want[row.Name] {
			t.Errorf("%s: self time %v ms, want %v", row.Name, row.SelfMs, want[row.Name])
		}
	}
}

// The traced run must take the same serving paths as the untraced one:
// the store wrapper keeps every optional interface the server asserts,
// and the sidecar tier behaves the same behind it.
func TestStoreWrapperFidelity(t *testing.T) {
	fsink, err := shard.NewFSSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var store shard.Store = &tracedStore{FSSink: fsink, rec: newRecorder()}
	if _, ok := store.(shard.RangeOpener); !ok {
		t.Error("traced store lost shard.RangeOpener: cold frame streams would read whole objects")
	}
	if _, ok := store.(interface{ WriteManifest(*shard.Manifest) error }); !ok {
		t.Error("traced store lost WriteManifest")
	}
	if _, ok := store.(interface {
		LoadManifest() (*shard.Manifest, error)
	}); !ok {
		t.Error("traced store lost LoadManifest: replay would serve from the log copy")
	}
	if _, ok := store.(interface{ Destroy() error }); !ok {
		t.Error("traced store lost Destroy: evicted jobs would keep their shards")
	}
	plain, traced := smoke(t, "cold_scan", 1, false), smoke(t, "cold_scan", 1, true)
	for _, name := range []string{"server.frame_store_hit_ratio", "server.frame_store_backfills"} {
		if plain.counters[name] != traced.counters[name] {
			t.Errorf("%s: untraced %v, traced %v", name, plain.counters[name], traced.counters[name])
		}
	}
	if plain.counters["server.frame_store_hit_ratio"] != 1 {
		t.Errorf("cold_scan filled no shard from a sidecar (hit ratio %v): the comparison above compared nothing",
			plain.counters["server.frame_store_hit_ratio"])
	}
}
