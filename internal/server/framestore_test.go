// Acceptance tests for the disk tier of the zero-copy frame path:
// fully-cold frame streams served from shard sidecars must be
// byte-identical to encode-per-request, make zero codec calls, lazily
// backfill sidecars for replayed pre-sidecar jobs, and survive torn or
// corrupt sidecars by falling back — never by serving bad bytes.
package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
)

// buildJobs runs one job per spec on a fresh server over dataDir and
// returns the job IDs. The server is closed before returning, so the
// shard sets (and, unless disableStore, their sidecars) are on disk.
func buildJobs(t *testing.T, dataDir string, disableStore bool, specs []JobSpec) []string {
	t.Helper()
	s, err := New(Options{Workers: 4, DataDir: dataDir, CacheBytes: 32 << 20, DisableFrameStore: disableStore})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer s.Close()
	defer ts.Close()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		id, err := SubmitAndWait(ts.URL, spec, 120*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", spec.Domain, err)
		}
		ids[i] = id
	}
	return ids
}

// sidecarFiles lists the .fpay objects (sealed or not) under a job's
// shard directory.
func sidecarFiles(t *testing.T, dataDir, id string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dataDir, "jobs", id))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.Contains(e.Name(), domain.SidecarSuffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestFrameDiskByteExact is the disk tier's wire-invisibility proof:
// for every codec — including the sealed bio domain, whose sidecars
// are encrypted under the per-job key — a fully-cold frame stream
// served from sidecars is byte-identical to the encode-per-request
// reference, across batch sizes, cursor resume, and ?max_kbps= pacing.
func TestFrameDiskByteExact(t *testing.T) {
	dataDir := t.TempDir()
	ids := buildJobs(t, dataDir, false, []JobSpec{
		{Domain: core.Climate, Seed: 3, Months: 24, Lat: 16, Lon: 32},
		{Domain: core.Fusion, Seed: 3, Shots: 8},
		{Domain: core.Materials, Seed: 3, Structures: 16},
		{Domain: core.BioHealth, Seed: 3, Subjects: 16},
	})
	doms := []core.Domain{core.Climate, core.Fusion, core.Materials, core.BioHealth}
	for i, id := range ids {
		if len(sidecarFiles(t, dataDir, id)) == 0 {
			t.Fatalf("%s: job completed without sidecars on disk", doms[i])
		}
	}

	// Reference bytes from a replay server with the frame store off —
	// a true encode-per-request server.
	ref, err := New(Options{Workers: 2, DataDir: dataDir, CacheBytes: 32 << 20, DisableFrameStore: true})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	type refStreams struct {
		full   []byte // batch_size=2
		odd    []byte // batch_size=3
		cursor string // mid-stream resume point
		resume []byte // batch_size=2 from cursor
	}
	refs := make([]refStreams, len(ids))
	for i, id := range ids {
		url := refTS.URL + "/v1/jobs/" + id + "/batches"
		refs[i].full = rawFrameStream(t, url+"?batch_size=2")
		refs[i].odd = rawFrameStream(t, url+"?batch_size=3")
		cursors := frameCursors(t, refs[i].full)
		if len(cursors) < 3 {
			t.Fatalf("%s: only %d batches", doms[i], len(cursors))
		}
		refs[i].cursor = cursors[len(cursors)/2]
		refs[i].resume = rawFrameStream(t, url+"?batch_size=2&cursor="+refs[i].cursor)
	}
	if hits := ref.metrics.frameStoreHits.Value(); hits != 0 {
		t.Fatalf("DisableFrameStore server recorded %v sidecar hits", hits)
	}
	refTS.Close()
	ref.Close()

	// The disk server runs with both caches off: every stream below is
	// fully cold and must be served from the sidecars.
	disk, err := New(Options{Workers: 2, DataDir: dataDir, CacheBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	diskTS := httptest.NewServer(disk.Handler())
	t.Cleanup(diskTS.Close)
	t.Cleanup(disk.Close)

	for i, id := range ids {
		dom := doms[i]
		url := diskTS.URL + "/v1/jobs/" + id + "/batches"
		if got := rawFrameStream(t, url+"?batch_size=2"); !bytes.Equal(got, refs[i].full) {
			t.Fatalf("%s: disk-served stream differs from reference (%d vs %d bytes)", dom, len(got), len(refs[i].full))
		}
		if got := rawFrameStream(t, url+"?batch_size=3"); !bytes.Equal(got, refs[i].odd) {
			t.Fatalf("%s: batch_size=3 disk-served stream differs from reference", dom)
		}
		if got := rawFrameStream(t, url+"?batch_size=2&cursor="+refs[i].cursor); !bytes.Equal(got, refs[i].resume) {
			t.Fatalf("%s: resumed disk-served stream differs from reference", dom)
		}
		kbps := len(refs[i].full)/1024 + 1
		if got := rawFrameStream(t, fmt.Sprintf("%s?batch_size=2&max_kbps=%d", url, kbps)); !bytes.Equal(got, refs[i].full) {
			t.Fatalf("%s: paced disk-served stream differs from reference", dom)
		}
	}
	if hits := disk.metrics.frameStoreHits.Value(); hits == 0 {
		t.Fatal("no stream was sidecar-served")
	}
	if misses := disk.metrics.frameStoreMisses.Value(); misses != 0 {
		t.Fatalf("%v sidecar misses on a fully-sidecared job set", misses)
	}
	if errs := disk.metrics.frameStoreErrors.Value(); errs != 0 {
		t.Fatalf("%v sidecar errors on pristine sidecars", errs)
	}
}

// countingCodec wraps a real codec and counts every Encode/Decode-side
// call, so a test can prove a serving path never touched the codec.
type countingCodec struct {
	domain.Codec
	calls atomic.Int64
}

func (c *countingCodec) Decode(rec []byte) (any, int64, error) {
	c.calls.Add(1)
	return c.Codec.Decode(rec)
}

func (c *countingCodec) Line(h domain.BatchHeader, recs []any) (any, error) {
	c.calls.Add(1)
	return c.Codec.Line(h, recs)
}

func (c *countingCodec) AppendFramePayload(buf []byte, recs []any) ([]byte, error) {
	c.calls.Add(1)
	return c.Codec.AppendFramePayload(buf, recs)
}

func (c *countingCodec) DecodeFramePayload(payload []byte, count int) ([]any, error) {
	c.calls.Add(1)
	return c.Codec.DecodeFramePayload(payload, count)
}

// TestFrameDiskZeroCodecCalls pins the acceptance criterion directly:
// a fully-cold frame stream over a job with sidecars performs zero
// codec Encode/Decode calls on the serving path. The fusion plugin's
// codec is swapped for a counting wrapper after the job is built, so
// any decode, line build, or payload encode during serving trips the
// counter.
func TestFrameDiskZeroCodecCalls(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, false, []JobSpec{{Domain: core.Fusion, Seed: 4, Shots: 8}})[0]

	plug, err := domain.Lookup(core.Fusion)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingCodec{Codec: plug.Codec}
	wrapped := plug
	wrapped.Codec = counting
	if err := domain.Register(wrapped); err != nil {
		t.Fatal(err)
	}
	defer domain.Register(plug)

	s, err := New(Options{Workers: 2, DataDir: dataDir, CacheBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=3"
	stream := rawFrameStream(t, url)
	if len(stream) == 0 {
		t.Fatal("empty frame stream")
	}
	if n := counting.calls.Load(); n != 0 {
		t.Fatalf("cold sidecar-served frame stream made %d codec calls, want 0", n)
	}
	if hits := s.metrics.frameStoreHits.Value(); hits == 0 {
		t.Fatal("stream was not sidecar-served")
	}
	// Sanity: the counter does trip on paths that must use the codec.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/batches?batch_size=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if counting.calls.Load() == 0 {
		t.Fatal("NDJSON stream made no codec calls — counting codec is not wired in")
	}
}

// TestSidecarBackfillReplayedJobs: a job built before the disk tier
// existed (simulated with DisableFrameStore) has no sidecars; the
// first frame access on a current server backfills them, and the next
// cold stream is served from disk.
func TestSidecarBackfillReplayedJobs(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, true, []JobSpec{{Domain: core.Materials, Seed: 5, Structures: 16}})[0]
	if files := sidecarFiles(t, dataDir, id); len(files) != 0 {
		t.Fatalf("DisableFrameStore build still wrote sidecars: %v", files)
	}

	s, err := New(Options{Workers: 2, DataDir: dataDir, CacheBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=2"
	first := rawFrameStream(t, url)
	if v := s.metrics.frameStoreMisses.Value(); v == 0 {
		t.Fatal("first stream over a sidecar-less job recorded no misses")
	}
	if v := s.metrics.frameStoreBackfills.Value(); v == 0 {
		t.Fatal("first frame access did not backfill sidecars")
	}
	if files := sidecarFiles(t, dataDir, id); len(files) == 0 {
		t.Fatal("no .fpay files on disk after backfill")
	}
	hitsBefore := s.metrics.frameStoreHits.Value()
	second := rawFrameStream(t, url)
	if !bytes.Equal(first, second) {
		t.Fatal("backfilled stream differs from the encode-per-request stream")
	}
	if v := s.metrics.frameStoreHits.Value(); v <= hitsBefore {
		t.Fatal("second stream was not served from the backfilled sidecars")
	}
}

// TestSidecarCorruptionFallback: torn, bit-flipped, or deleted
// sidecars must never surface on the wire — streams stay byte-exact
// via decode+encode fallback, and the error counter records each
// rejected sidecar. A deleted sidecar counts as absent and is lazily
// re-backfilled.
func TestSidecarCorruptionFallback(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, false, []JobSpec{{Domain: core.Fusion, Seed: 6, Shots: 8}})[0]
	jobDir := filepath.Join(dataDir, "jobs", id)
	files := sidecarFiles(t, dataDir, id)
	if len(files) == 0 {
		t.Fatal("no sidecars on disk")
	}
	pristine := make(map[string][]byte, len(files))
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(jobDir, f))
		if err != nil {
			t.Fatal(err)
		}
		pristine[f] = b
	}

	ref, err := New(Options{Workers: 2, DataDir: dataDir, CacheBytes: 32 << 20, DisableFrameStore: true})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	want := rawFrameStream(t, refTS.URL+"/v1/jobs/"+id+"/batches?batch_size=2")
	refTS.Close()
	ref.Close()

	corrupt := map[string]func(b []byte) []byte{
		"bitflip":  func(b []byte) []byte { m := append([]byte(nil), b...); m[len(m)/2] ^= 0x01; return m },
		"truncate": func(b []byte) []byte { return b[:len(b)*2/3] },
		"deleted":  nil, // removed from disk instead of rewritten
	}
	// Each corruption mode runs against both cold serving modes: direct
	// sidecar streaming (no caches) and frame-cache fill.
	caches := map[string]Options{
		"disk":  {Workers: 2, DataDir: dataDir, CacheBytes: 0},
		"cache": {Workers: 2, DataDir: dataDir, CacheBytes: 32 << 20, FrameCacheBytes: 64 << 20},
	}
	for mode, mutate := range corrupt {
		for cacheName, opts := range caches {
			t.Run(mode+"/"+cacheName, func(t *testing.T) {
				for f, b := range pristine {
					if mutate == nil {
						if err := os.Remove(filepath.Join(jobDir, f)); err != nil {
							t.Fatal(err)
						}
						continue
					}
					if err := os.WriteFile(filepath.Join(jobDir, f), mutate(b), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				t.Cleanup(func() {
					for f, b := range pristine {
						if err := os.WriteFile(filepath.Join(jobDir, f), b, 0o644); err != nil {
							t.Fatal(err)
						}
					}
				})
				s, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(s.Handler())
				t.Cleanup(ts.Close)
				t.Cleanup(s.Close)
				got := rawFrameStream(t, ts.URL+"/v1/jobs/"+id+"/batches?batch_size=2")
				if !bytes.Equal(got, want) {
					t.Fatalf("stream over %s sidecars differs from reference (%d vs %d bytes)", mode, len(got), len(want))
				}
				if mode == "deleted" {
					// Absent means lost, not corrupt: lazily rebuilt.
					if v := s.metrics.frameStoreBackfills.Value(); v == 0 {
						t.Fatal("deleted sidecars were not backfilled")
					}
				} else if v := s.metrics.frameStoreErrors.Value(); v == 0 {
					t.Fatalf("%s sidecars were served without tripping the error counter", mode)
				}
			})
		}
	}
}

// TestUnusableSidecarReplacedOnce: a sidecar the CRCs reject — or an
// empty one, which reads as absent but still holds the name — is
// deleted and rebuilt by the first stream that trips over it. The
// damage is counted once and the second cold stream is all disk hits.
func TestUnusableSidecarReplacedOnce(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, false, []JobSpec{{Domain: core.Fusion, Seed: 6, Shots: 8}})[0]
	files := sidecarFiles(t, dataDir, id)
	if len(files) == 0 {
		t.Fatal("no sidecars on disk")
	}
	victim := filepath.Join(dataDir, "jobs", id, files[0])
	pristine, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)/2] ^= 0x01
	damage := map[string][]byte{
		"bitflip":  flipped,
		"truncate": pristine[:len(pristine)*2/3],
		"empty":    {},
	}
	var want []byte
	t.Run("intact", func(t *testing.T) {
		_, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, CacheBytes: 0})
		want = rawFrameStream(t, ts.URL+"/v1/jobs/"+id+"/batches?batch_size=2")
	})
	for mode, bad := range damage {
		t.Run(mode, func(t *testing.T) {
			if err := os.WriteFile(victim, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, CacheBytes: 0})
			url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=2"
			if first := rawFrameStream(t, url); !bytes.Equal(first, want) {
				t.Fatalf("stream over a %s sidecar differs (%d vs %d bytes)", mode, len(first), len(want))
			}
			if errs, fills := s.metrics.frameStoreErrors.Value(), s.metrics.frameStoreBackfills.Value(); errs != 1 || fills != 1 {
				t.Fatalf("first stream: %v errors, %v backfills, want 1 and 1", errs, fills)
			}
			if rebuilt, err := os.ReadFile(victim); err != nil || !bytes.Equal(rebuilt, pristine) {
				t.Fatalf("sidecar not rebuilt to its original bytes (err %v, %d bytes)", err, len(rebuilt))
			}
			hits, misses := s.metrics.frameStoreHits.Value(), s.metrics.frameStoreMisses.Value()
			if second := rawFrameStream(t, url); !bytes.Equal(second, want) {
				t.Fatal("second stream differs")
			}
			if got := s.metrics.frameStoreHits.Value() - hits; got != float64(len(files)) {
				t.Fatalf("second stream hit %v of %d sidecars", got, len(files))
			}
			if s.metrics.frameStoreMisses.Value() != misses || s.metrics.frameStoreErrors.Value() != 1 {
				t.Fatalf("second stream still paid for the damage: %v misses, %v errors",
					s.metrics.frameStoreMisses.Value()-misses, s.metrics.frameStoreErrors.Value())
			}
		})
	}
}
