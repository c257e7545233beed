package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/domain"
	"repro/internal/ledger"
	"repro/internal/shard"
	"repro/pkg/client"
)

// Layer probes: after the window, each layer's public functions are
// called directly and timed, on a probe corpus built with the same specs
// as the served one. They say what a layer costs alone; the window says
// what the system costs together.

// probeMin is how long a repeated probe keeps going before its mean is
// taken (scaled down with the window in smoke runs).
const probeMin = 100 * time.Millisecond

// timeLoop calls fn until dur has passed and returns the mean
// nanoseconds per call.
func timeLoop(dur time.Duration, fn func() error) (float64, error) {
	start := time.Now()
	n := 0
	for {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
		if el := time.Since(start); el >= dur {
			return float64(el.Nanoseconds()) / float64(n), nil
		}
	}
}

// probeJob is one domain's pipeline product on a plain FSSink.
type probeJob struct {
	plug     domain.Plugin
	store    *shard.FSSink
	manifest *shard.Manifest
	key      []byte
}

func mib(bytes int64, ns float64) float64 { return float64(bytes) / (1 << 20) / (ns / 1e9) }

func runProbes(ctx context.Context, res *result, e *env, p *plan, dir string) error {
	m := res.metrics
	dur := scaleDuration(probeMin, res.cfg.seconds)
	jobs := make([]*probeJob, len(benchDomains))
	for d := range benchDomains {
		j, err := probePipeline(res, p, d, filepath.Join(dir, domainLabels[d]))
		if err != nil {
			return fmt.Errorf("probe %s pipeline: %w", domainLabels[d], err)
		}
		jobs[d] = j
	}
	// One probe job per wire kind: climate carries "samples".
	kindJob := map[string]int{domain.KindSamples: 0, domain.KindFusionWindows: 1, domain.KindMaterialsGraphs: 3}
	for _, kind := range wireKinds {
		if err := probeCodec(m, dur, kind, jobs[kindJob[kind]]); err != nil {
			return fmt.Errorf("probe %s codec: %w", kind, err)
		}
		if err := probeClientDecode(ctx, m, dur, kind, e, e.corpus[kindJob[kind]]); err != nil {
			return fmt.Errorf("probe %s client decode: %w", kind, err)
		}
	}
	if err := probeShard(m, dur, jobs[1], filepath.Join(dir, "writer")); err != nil {
		return fmt.Errorf("probe shard: %w", err)
	}
	if err := probeSidecars(m, []*probeJob{jobs[0], jobs[1], jobs[3]}); err != nil {
		return fmt.Errorf("probe sidecars: %w", err)
	}
	if err := probeUnseal(m, dur, jobs[2]); err != nil {
		return fmt.Errorf("probe unseal: %w", err)
	}
	if err := probeLedger(m, p, 150/res.cfg.scale+1, filepath.Join(dir, "audit.log")); err != nil {
		return fmt.Errorf("probe ledger: %w", err)
	}
	ns, err := timeLoop(dur, func() error {
		if _, ok := e.reg.Authenticate(e.token); !ok {
			return fmt.Errorf("token not recognised")
		}
		return nil
	})
	m["tenant.authenticate_ns"] = ns
	return err
}

// probePipeline builds and runs one domain's pipeline res.cfg.reps
// times with fresh seeds, reporting medians, and returns the last
// product for the codec and store probes.
func probePipeline(res *result, p *plan, d int, dir string) (*probeJob, error) {
	label := domainLabels[d]
	plug, err := domain.Lookup(benchDomains[d])
	if err != nil {
		return nil, err
	}
	var job *probeJob
	var buildMs, runMs, rate, sidecarMs []float64
	stageMs := make(map[string][]float64)
	for rep := 0; rep < res.cfg.reps; rep++ {
		store, err := shard.NewFSSink(filepath.Join(dir, fmt.Sprint(rep)))
		if err != nil {
			return nil, err
		}
		spec := specFor(benchDomains[d], jobSeed(p.master), res.cfg.scale)
		t0 := time.Now()
		run, err := plug.Build(spec, store)
		if err != nil {
			return nil, err
		}
		buildMs = append(buildMs, msSince(t0))
		t1 := time.Now()
		if _, err := run.Pipeline.Run(run.Dataset); err != nil {
			return nil, err
		}
		el := time.Since(t1)
		runMs = append(runMs, float64(el.Nanoseconds())/1e6)
		rate = append(rate, float64(run.Dataset.Records)/el.Seconds())
		kindOf := make(map[string]string)
		for _, st := range run.Pipeline.Stages() {
			kindOf[st.Name()] = strings.ToLower(st.Kind().String())
		}
		perKind := make(map[string]float64)
		for _, st := range run.Pipeline.Collector.ByStage() {
			perKind[kindOf[st.Stage]] += float64(st.Total.Nanoseconds()) / 1e6
		}
		for _, k := range stageLabels {
			stageMs[k] = append(stageMs[k], perKind[k])
		}
		manifest, err := plug.Manifest(run.Dataset)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if _, err := domain.BuildShardSidecars(plug, store, manifest, run.Key); err != nil {
			return nil, err
		}
		sidecarMs = append(sidecarMs, msSince(t2))
		job = &probeJob{plug: plug, store: store, manifest: manifest, key: run.Key}
	}
	m := res.metrics
	m["domain.build_ms."+label] = median(buildMs)
	m["domain.sidecar_build_ms."+label] = median(sidecarMs)
	m["pipeline."+label+".run_ms"] = median(runMs)
	m["pipeline."+label+".records_per_s"] = median(rate)
	for _, k := range stageLabels {
		m["pipeline."+label+".stage_ms."+k] = median(stageMs[k])
	}
	return job, nil
}

// probeCodec times the codec's three jobs over the probe job's records:
// shard record → wire record, wire records → frame, wire records →
// NDJSON line.
func probeCodec(m map[string]float64, dur time.Duration, kind string, j *probeJob) error {
	codec := j.plug.Codec
	var raw [][]byte
	err := shard.ReadAll(j.plug.Opener(j.store, j.key), j.manifest, func(_ string, rec []byte) error {
		raw = append(raw, bytes.Clone(rec))
		return nil
	})
	if err != nil {
		return err
	}
	recs := make([]any, len(raw))
	ns, err := timeLoop(dur, func() error {
		for i, r := range raw {
			if recs[i], _, err = codec.Decode(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["domain.decode_ns_per_record."+kind] = ns / float64(len(raw))
	batches := func(fn func(h domain.BatchHeader, batch []any) error) func() error {
		return func() error {
			for a, n := 0, 0; a < len(recs); a, n = a+scanBatch, n+1 {
				h := domain.BatchHeader{Batch: n, Cursor: "0:0", Kind: codec.Kind()}
				if err := fn(h, recs[a:min(a+scanBatch, len(recs))]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	ns, err = timeLoop(dur, batches(func(h domain.BatchHeader, batch []any) error {
		_, err := domain.EncodeFrame(codec, h, batch)
		return err
	}))
	if err != nil {
		return err
	}
	m["domain.frame_encode_ns_per_record."+kind] = ns / float64(len(recs))
	ns, err = timeLoop(dur, batches(func(h domain.BatchHeader, batch []any) error {
		line, err := codec.Line(h, batch)
		if err != nil {
			return err
		}
		_, err = json.Marshal(line)
		return err
	}))
	m["domain.ndjson_encode_ns_per_record."+kind] = ns / float64(len(recs))
	return err
}

// cannedTransport answers every request with one captured stream body.
type cannedTransport struct {
	wire string
	body []byte
}

func (t cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := http.Header{}
	h.Set(domain.HeaderWire, t.wire)
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: io.NopCloser(bytes.NewReader(t.body)), ContentLength: int64(len(t.body)), Request: req}, nil
}

// probeClientDecode captures one corpus job's full stream in each wire
// from the live server and replays it into the SDK's stream reader, so
// only pkg/client's decode and validation are timed.
func probeClientDecode(ctx context.Context, m map[string]float64, dur time.Duration, kind string, e *env, j *corpusJob) error {
	for _, wire := range []string{client.WireFrame, client.WireNDJSON} {
		u := fmt.Sprintf("%s/v1/jobs/%s/batches?batch_size=%d", e.url, j.id, scanBatch)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Authorization", "Bearer "+e.token)
		if wire == client.WireFrame {
			req.Header.Set("Accept", domain.ContentTypeFrame)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("capture %s stream of %s: status %d, %v", wire, j.id, resp.StatusCode, err)
		}
		httpc := &http.Client{Transport: cannedTransport{wire: wire, body: body}}
		ns, err := timeLoop(dur, func() error {
			s, err := client.OpenStreamURL(ctx, httpc, "http://probe.invalid/v1/jobs/probe/batches", "", wire, -1)
			if err != nil {
				return err
			}
			_, n, _, err := s.Drain()
			if err == nil && int(n) != j.records {
				err = fmt.Errorf("replayed %s stream of %s: %d records, want %d", wire, j.id, n, j.records)
			}
			return err
		})
		if err != nil {
			return err
		}
		m["client."+wire+"_decode_ns_per_record."+kind] = ns / float64(j.records)
	}
	return nil
}

// probeShard times the shard layer alone on the fusion product: whole-
// set verified reads, a sharded write with fsync+rename per shard, and
// the bare OpenRange the disk-tier frame path starts with.
func probeShard(m map[string]float64, dur time.Duration, j *probeJob, writeDir string) error {
	ns, err := timeLoop(dur, func() error {
		return shard.ReadAll(j.store, j.manifest, func(string, []byte) error { return nil })
	})
	if err != nil {
		return err
	}
	m["shard.readall_mib_per_s"] = mib(j.manifest.TotalStoredBytes(), ns)

	var raw [][]byte
	var rawBytes int64
	err = shard.ReadAll(j.store, j.manifest, func(_ string, rec []byte) error {
		raw = append(raw, bytes.Clone(rec))
		rawBytes += int64(len(rec))
		return nil
	})
	if err != nil {
		return err
	}

	sink, err := shard.NewFSSink(writeDir)
	if err != nil {
		return err
	}
	start := time.Now()
	w, err := shard.NewWriter(sink, shard.Options{Prefix: "probe", TargetBytes: 16 << 10})
	if err != nil {
		return err
	}
	for _, r := range raw {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if _, err := w.Close(); err != nil {
		return err
	}
	m["shard.writer_mib_per_s"] = mib(rawBytes, float64(time.Since(start).Nanoseconds()))

	var openUs []float64
	for _, info := range j.manifest.Shards {
		t0 := time.Now()
		ra, _, err := j.store.OpenRange(domain.SidecarName(info.Name))
		if err != nil {
			return err
		}
		ra.Close()
		openUs = append(openUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["shard.openrange_us_p50"] = percentile(openUs, 50)
	return nil
}

// probeSidecars times what a cold frame read does per shard on the
// plaintext domains: open + parse + CRC-verify the sidecar, then stream
// its whole payload range.
func probeSidecars(m map[string]float64, jobs []*probeJob) error {
	var openUs []float64
	var rangeBytes int64
	var rangeNs float64
	for _, j := range jobs {
		for _, info := range j.manifest.Shards {
			t0 := time.Now()
			ra, size, err := j.store.OpenRange(domain.SidecarName(info.Name))
			if err != nil {
				return err
			}
			sc, err := domain.OpenSidecar(ra, size)
			if err == nil {
				err = sc.VerifyPayload()
			}
			t1 := time.Now()
			if err == nil {
				err = sc.WriteRange(io.Discard, 0, sc.Count())
			}
			t2 := time.Now()
			ra.Close()
			if err != nil {
				return err
			}
			openUs = append(openUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
			rangeBytes += sc.PayloadLen()
			rangeNs += float64(t2.Sub(t1).Nanoseconds())
		}
	}
	m["domain.sidecar_open_us_p50"] = percentile(openUs, 50)
	m["domain.sidecar_range_mib_per_s"] = mib(rangeBytes, rangeNs)
	return nil
}

// probeUnseal reads every sealed bio shard through the decrypting
// opener: plaintext MiB per second of AES-GCM open.
func probeUnseal(m map[string]float64, dur time.Duration, j *probeJob) error {
	open := j.plug.Opener(j.store, j.key)
	var plain int64
	ns, err := timeLoop(dur, func() error {
		plain = 0
		for _, info := range j.manifest.Shards {
			rc, err := open.Open(info.Name)
			if err != nil {
				return err
			}
			n, err := io.Copy(io.Discard, rc)
			rc.Close()
			if err != nil {
				return err
			}
			plain += n
		}
		return nil
	})
	m["domain.unseal_mib_per_s"] = mib(plain, ns)
	return err
}

// probeLedger appends perAppender records from each of two goroutines
// to a ledger at its default configuration (2 ms group-commit window),
// as two clients opening streams do, then times inclusion proofs.
func probeLedger(m map[string]float64, p *plan, perAppender int, path string) error {
	l, err := ledger.Open(ledger.Config{Path: path})
	if err != nil {
		return err
	}
	defer l.Close()
	lat := make([][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for a := 0; a < clients; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perAppender && errs[a] == nil; i++ {
				t0 := time.Now()
				_, errs[a] = l.Append(ledger.TypeStream, "lab0", "job-probe", "cursor=0:0 batch_size=32")
				lat[a] = append(lat[a], msSince(t0))
			}
		}()
	}
	wg.Wait()
	var all []float64
	for a := range lat {
		if errs[a] != nil {
			return errs[a]
		}
		all = append(all, lat[a]...)
	}
	m["ledger.append_ms_p50"] = percentile(all, 50)
	m["ledger.append_ms_p99"] = percentile(all, 99)
	rng := rand.New(rand.NewPCG(p.master.Uint64(), p.master.Uint64()))
	var proveUs []float64
	for i := 0; i < 200; i++ {
		seq := 1 + rng.Uint64N(l.Len())
		t0 := time.Now()
		if _, err := l.Prove(seq); err != nil {
			return err
		}
		proveUs = append(proveUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["ledger.prove_us_p50"] = percentile(proveUs, 50)
	return nil
}
