// Acceptance tests for the disk tier of the zero-copy frame path:
// fully-cold frame streams served from shard sidecars must be
// byte-identical to encode-per-request, make zero codec calls, lazily
// backfill sidecars for replayed pre-sidecar jobs, and survive torn or
// corrupt sidecars by falling back — never by serving bad bytes.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/loader"
	"repro/internal/shard"
	"repro/internal/wire"
)

// buildJobs runs one job per spec on a fresh server over dataDir and
// returns the job IDs. The server is closed before returning, so the
// shard sets and their sidecars are on disk.
func buildJobs(t *testing.T, dataDir string, specs []JobSpec) []string {
	t.Helper()
	s, err := New(Options{Workers: 4, DataDir: dataDir})
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

// noSidecarStore is an FSSink without the frame store: sidecar objects
// read as absent — to Size, Open and OpenRange alike, since a cold read
// opens the sidecar without a stat first — and can be neither created
// nor removed. A server over it encodes every cold frame stream per
// request — the reference the byte-exactness tests compare the cache
// and disk tiers against — and leaves the real sidecars in a shared
// data dir untouched.
type noSidecarStore struct{ *shard.FSSink }

func isSidecar(name string) bool { return strings.Contains(name, domain.SidecarSuffix) }

func (s noSidecarStore) Size(name string) int64 {
	if isSidecar(name) {
		return 0
	}
	return s.FSSink.Size(name)
}

func (s noSidecarStore) Open(name string) (io.ReadCloser, error) {
	if isSidecar(name) {
		return nil, fs.ErrNotExist
	}
	return s.FSSink.Open(name)
}

func (s noSidecarStore) OpenRange(name string) (shard.ReaderAtCloser, int64, error) {
	if isSidecar(name) {
		return nil, 0, fs.ErrNotExist
	}
	return s.FSSink.OpenRange(name)
}

func (s noSidecarStore) Create(name string) (io.WriteCloser, error) {
	if isSidecar(name) {
		return nil, errors.New("no frame store")
	}
	return s.FSSink.Create(name)
}

func (s noSidecarStore) Remove(name string) error {
	if isSidecar(name) {
		return errors.New("no frame store")
	}
	return s.FSSink.Remove(name)
}

// noFrameStore is the Options.NewStore of an encode-per-request
// reference server over dataDir.
func noFrameStore(dataDir string) func(string) (shard.Store, error) {
	return func(id string) (shard.Store, error) {
		fs, err := shard.NewFSSink(filepath.Join(dataDir, "jobs", id))
		if err != nil {
			return nil, err
		}
		return noSidecarStore{fs}, nil
	}
}

// byteExactCase is one row of a byte-exactness table: a /batches query
// and the reference streams it must reproduce on each wire.
type byteExactCase struct {
	query string
	want  []byte // the frame stream
	// wantLines is the NDJSON stream: every batch of want as
	// json.Marshal(Codec.Line(header, records)) plus "\n".
	wantLines []byte
}

// referenceCases streams the byte-exactness table from a reference
// server: two batch sizes, a mid-stream cursor resume, two max_batches
// caps, and a ?max_kbps= pacing row (pacing charges the bytes but must
// not change them). url ends in "/batches?".
func referenceCases(t *testing.T, url string) []byteExactCase {
	t.Helper()
	full := rawFrameStream(t, url+"batch_size=2")
	cursors := frameCursors(t, full)
	if len(cursors) < 3 {
		t.Fatalf("%s: only %d batches", url, len(cursors))
	}
	var cases []byteExactCase
	for _, q := range []string{
		"batch_size=2",
		"batch_size=3",
		"batch_size=2&cursor=" + cursors[len(cursors)/2],
		"batch_size=2&max_batches=1",
		"batch_size=3&max_batches=2",
	} {
		frames := rawFrameStream(t, url+q)
		cases = append(cases, byteExactCase{q, frames, marshalLines(t, frames)})
	}
	return append(cases, byteExactCase{fmt.Sprintf("batch_size=2&max_kbps=%d", len(full)/1024+1), full, marshalLines(t, full)})
}

// marshalLines re-encodes a frame stream the reference NDJSON way:
// each frame decoded, its records boxed as the codec's own, and put
// through the codec's Line and json.Marshal.
func marshalLines(t *testing.T, frames []byte) []byte {
	t.Helper()
	var out []byte
	var dec wire.Decoder
	for rest := frames; len(rest) > 0; {
		body, r := splitFrame(t, rest)
		b, err := dec.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		codec := codecFor(t, b.Kind)
		h := wire.BatchHeader{Batch: b.Batch, Cursor: b.Cursor, Kind: b.Kind}
		line, err := codec.Line(h, boxRecords(b))
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, j...), '\n')
		rest = r
	}
	return out
}

// codecFor returns the registered codec serving a wire kind.
func codecFor(t *testing.T, kind string) domain.Codec {
	t.Helper()
	for _, p := range domain.Plugins() {
		if p.Codec.Kind() == kind {
			return p.Codec
		}
	}
	t.Fatalf("no codec for kind %q", kind)
	return nil
}

// boxRecords turns a decoded batch back into its codec's records, the
// input of the reference Line.
func boxRecords(b *wire.Batch) []any {
	recs := make([]any, b.Count())
	for i := range recs {
		switch b.Kind {
		case wire.KindSamples:
			recs[i] = &loader.Sample{Features: b.Features[i], Label: int32(b.Labels[i])}
		case wire.KindFusionWindows:
			recs[i] = &domain.FusionWindow{Signal: b.Signals[i], Shot: b.Shots[i], Start: b.Starts[i],
				Label: b.Labels[i], Horizon: b.Horizons[i]}
		case wire.KindMaterialsGraphs:
			g := b.Graphs[i]
			recs[i] = &g
		}
	}
	return recs
}

// checkCase streams one table row from url ("/batches?"-terminated) on
// both wires and requires the reference bytes of each.
func checkCase(t *testing.T, url string, c byteExactCase) {
	t.Helper()
	u := url + c.query
	if got := rawFrameStream(t, u); !bytes.Equal(got, c.want) {
		t.Fatalf("%s: frame stream differs from reference (%d vs %d bytes)", u, len(got), len(c.want))
	}
	if got := rawNDJSONStream(t, u); !bytes.Equal(got, c.wantLines) {
		t.Fatalf("%s: NDJSON stream differs from Line+json.Marshal (%d vs %d bytes)\n got  %.200s\n want %.200s",
			u, len(got), len(c.wantLines), got, c.wantLines)
	}
}

// TestFrameDiskByteExact is the disk tier's wire-invisibility proof:
// for every codec — including the sealed bio domain, whose sidecars
// are encrypted under the per-job key — a fully-cold frame stream
// served from sidecars is byte-identical to the encode-per-request
// reference, across batch sizes, cursor resume, max_batches caps, and
// ?max_kbps= pacing. With the serving cache off, every NDJSON line
// (fragments encoded per stream) equals Line+json.Marshal too.
func TestFrameDiskByteExact(t *testing.T) {
	dataDir := t.TempDir()
	ids := buildJobs(t, dataDir, []JobSpec{
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

	// Reference bytes from a replay server that cannot see the
	// sidecars — a true encode-per-request server.
	ref, err := New(Options{Workers: 2, DataDir: dataDir, NewStore: noFrameStore(dataDir)})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	cases := make([][]byteExactCase, len(ids))
	for i, id := range ids {
		cases[i] = referenceCases(t, refTS.URL+"/v1/jobs/"+id+"/batches?")
	}
	if hits := ref.metrics.frameStoreHits.Value(); hits != 0 {
		t.Fatalf("reference server recorded %v sidecar hits", hits)
	}
	refTS.Close()
	ref.Close()

	// The disk server runs with the serving cache off: every stream below is
	// fully cold and must be served from the sidecars.
	disk, err := New(Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	diskTS := httptest.NewServer(disk.Handler())
	t.Cleanup(diskTS.Close)
	t.Cleanup(disk.Close)

	for i, id := range ids {
		for _, c := range cases[i] {
			checkCase(t, diskTS.URL+"/v1/jobs/"+id+"/batches?", c)
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
	if ls := disk.cache.Stats(wireLines); ls.Entries != 0 || ls.Misses == 0 {
		t.Fatalf("line cache with a zero budget: %+v", ls)
	}
}

// countingCodec wraps a real codec and counts every call but Kind —
// native decode, reference line, payload encode — so a test can prove
// a serving path never touched the codec.
type countingCodec struct {
	domain.Codec
	calls atomic.Int64
}

func (c *countingCodec) Decode(rec []byte) (any, int64, error) {
	c.calls.Add(1)
	return c.Codec.Decode(rec)
}

func (c *countingCodec) Line(h wire.BatchHeader, recs []any) (any, error) {
	c.calls.Add(1)
	return c.Codec.Line(h, recs)
}

func (c *countingCodec) AppendFramePayload(buf []byte, recs []any) ([]byte, error) {
	c.calls.Add(1)
	return c.Codec.AppendFramePayload(buf, recs)
}

// TestFrameDiskZeroCodecCalls pins the acceptance criterion directly:
// frame streams over a job with sidecars perform zero codec
// Encode/Decode calls on the serving path, in both cache modes — a
// fully-cold stream with the serving cache off (every sidecar read for
// the stream), and with the cache on, both the cold stream that
// fills the frame cache from sidecars and the warm stream that slices
// the cached payloads. The fusion plugin's codec is swapped for a
// counting wrapper after the job is built, so any decode, line build,
// or payload encode during serving trips the counter.
func TestFrameDiskZeroCodecCalls(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, []JobSpec{{Domain: core.Fusion, Seed: 4, Shots: 8}})[0]

	plug, err := domain.Lookup(core.Fusion)
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Register(plug)

	for _, tc := range []struct {
		name       string
		cacheBytes int64
	}{
		{"disk", 0},
		{"cache", 64 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counting := &countingCodec{Codec: plug.Codec}
			wrapped := plug
			wrapped.Codec = counting
			if err := domain.Register(wrapped); err != nil {
				t.Fatal(err)
			}

			s, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: tc.cacheBytes})
			url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=3"
			cold := rawFrameStream(t, url)
			if len(cold) == 0 {
				t.Fatal("empty frame stream")
			}
			if n := counting.calls.Load(); n != 0 {
				t.Fatalf("cold frame stream made %d codec calls, want 0", n)
			}
			if hits := s.metrics.frameStoreHits.Value(); hits == 0 {
				t.Fatal("cold stream was not sidecar-served")
			}
			if tc.cacheBytes > 0 {
				diskHits := s.metrics.frameStoreHits.Value()
				if warm := rawFrameStream(t, url); !bytes.Equal(warm, cold) {
					t.Fatal("warm frame-cache stream differs from the cold stream")
				}
				if n := counting.calls.Load(); n != 0 {
					t.Fatalf("warm frame-cache stream made %d codec calls, want 0", n)
				}
				if fs := s.cache.Stats(wireFrames); fs.Hits == 0 {
					t.Fatalf("warm stream took no frame-cache hits: %+v", fs)
				}
				if s.metrics.frameStoreHits.Value() != diskHits {
					t.Fatal("warm stream went back to the sidecars instead of the frame cache")
				}
			}
			// Sanity: the counter does trip on the path that must use the
			// codec. A shard whose sidecar is gone is decoded natively and
			// its sidecar rebuilt and written back, for the next subtest.
			gone := sidecarFiles(t, dataDir, id)[0]
			if err := os.Remove(filepath.Join(dataDir, "jobs", id, gone)); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if counting.calls.Load() == 0 {
				t.Fatal("sidecar rebuild made no codec calls — counting codec is not wired in")
			}
			if _, err := os.Stat(filepath.Join(dataDir, "jobs", id, gone)); err != nil {
				t.Fatalf("rebuilt sidecar not written back: %v", err)
			}
		})
	}
}

// TestSidecarBackfillReplayedJobs: a job built before the disk tier
// existed (simulated by deleting its sidecars) has no sidecars; the
// first frame access on a current server backfills them, and the next
// cold stream is served from disk.
func TestSidecarBackfillReplayedJobs(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, []JobSpec{{Domain: core.Materials, Seed: 5, Structures: 16}})[0]
	files := sidecarFiles(t, dataDir, id)
	if len(files) == 0 {
		t.Fatal("job completed without sidecars on disk")
	}
	for _, f := range files {
		if err := os.Remove(filepath.Join(dataDir, "jobs", id, f)); err != nil {
			t.Fatal(err)
		}
	}

	s, err := New(Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
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
	id := buildJobs(t, dataDir, []JobSpec{{Domain: core.Fusion, Seed: 6, Shots: 8}})[0]
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

	ref, err := New(Options{Workers: 2, DataDir: dataDir, NewStore: noFrameStore(dataDir)})
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
		"disk":  {Workers: 2, DataDir: dataDir, ServeCacheBytes: 0},
		"cache": {Workers: 2, DataDir: dataDir, ServeCacheBytes: 64 << 20},
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
// A sealed (bio) sidecar whose bytes do not decrypt is damage too. It
// is rebuilt under a fresh nonce, so only a plaintext sidecar can be
// compared with its original bytes.
func TestUnusableSidecarReplacedOnce(t *testing.T) {
	dataDir := t.TempDir()
	ids := buildJobs(t, dataDir, []JobSpec{
		{Domain: core.Fusion, Seed: 6, Shots: 8},
		{Domain: core.BioHealth, Seed: 6},
	})
	for i, id := range ids {
		prefix := []string{"", "sealed/"}[i] // subtest name prefix
		files := sidecarFiles(t, dataDir, id)
		if len(files) == 0 {
			t.Fatal("no sidecars on disk")
		}
		victim := filepath.Join(dataDir, "jobs", id, files[0])
		sealed := strings.HasSuffix(victim, ".enc")
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
		t.Run(prefix+"intact", func(t *testing.T) {
			_, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
			want = rawFrameStream(t, ts.URL+"/v1/jobs/"+id+"/batches?batch_size=2")
		})
		for mode, bad := range damage {
			t.Run(prefix+mode, func(t *testing.T) {
				if err := os.WriteFile(victim, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				s, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
				url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=2"
				if first := rawFrameStream(t, url); !bytes.Equal(first, want) {
					t.Fatalf("stream over a %s sidecar differs (%d vs %d bytes)", mode, len(first), len(want))
				}
				if errs, fills := s.metrics.frameStoreErrors.Value(), s.metrics.frameStoreBackfills.Value(); errs != 1 || fills != 1 {
					t.Fatalf("first stream: %v errors, %v backfills, want 1 and 1", errs, fills)
				}
				rebuilt, err := os.ReadFile(victim)
				if err != nil || len(rebuilt) != len(pristine) || !sealed && !bytes.Equal(rebuilt, pristine) {
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
}

// TestNDJSONFillsFromSidecar: an NDJSON cache miss fills from the
// shard's sidecar, as a frame miss does, so NDJSON readers get the
// sidecar's CRCs and its backfill. For every kind, sealed bio included:
// with a job's sidecars deleted, a cold NDJSON stream equals
// Line+json.Marshal and backfills every sidecar; with one payload byte
// of one sidecar flipped, the stream is still byte-exact, the damage
// counts once, the sidecar is rebuilt, and the next cold stream reads
// only sidecars.
func TestNDJSONFillsFromSidecar(t *testing.T) {
	dataDir := t.TempDir()
	specs := []JobSpec{
		{Domain: core.Climate, Seed: 8, Months: 24, Lat: 16, Lon: 32},
		{Domain: core.Fusion, Seed: 8, Shots: 8},
		{Domain: core.Materials, Seed: 8, Structures: 16},
		{Domain: core.BioHealth, Seed: 8, Subjects: 16},
	}
	ids := buildJobs(t, dataDir, specs)
	const query = "/batches?batch_size=3"
	// The reference lines: Line+json.Marshal over the records of each
	// job's frame stream, read while its sidecars are intact.
	want := make([][]byte, len(ids))
	t.Run("reference", func(t *testing.T) {
		_, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
		for i, id := range ids {
			want[i] = marshalLines(t, rawFrameStream(t, ts.URL+"/v1/jobs/"+id+query))
		}
	})
	for i, id := range ids {
		jobDir := filepath.Join(dataDir, "jobs", id)
		files := sidecarFiles(t, dataDir, id)
		if len(files) == 0 {
			t.Fatalf("%s: no sidecars on disk", specs[i].Domain)
		}
		pristine := make(map[string][]byte, len(files))
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(jobDir, f))
			if err != nil {
				t.Fatal(err)
			}
			pristine[f] = b
		}
		// stream serves the job's NDJSON stream cold on a fresh server
		// and requires the reference lines.
		stream := func(t *testing.T) *Server {
			s, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
			if got := rawNDJSONStream(t, ts.URL+"/v1/jobs/"+id+query); !bytes.Equal(got, want[i]) {
				t.Fatalf("NDJSON stream differs from Line+json.Marshal (%d vs %d bytes)", len(got), len(want[i]))
			}
			return s
		}
		// rebuilt requires every sidecar back on disk: a plaintext one
		// byte for byte, a sealed one (fresh nonce) at its original size.
		rebuilt := func(t *testing.T) {
			for f, b := range pristine {
				got, err := os.ReadFile(filepath.Join(jobDir, f))
				if err != nil || len(got) != len(b) || strings.HasSuffix(f, domain.SidecarSuffix) && !bytes.Equal(got, b) {
					t.Fatalf("sidecar %s not rebuilt (err %v, %d of %d bytes)", f, err, len(got), len(b))
				}
			}
		}
		name := strings.ReplaceAll(string(specs[i].Domain), "/", "_")
		t.Run(name+"/deleted", func(t *testing.T) {
			for f := range pristine {
				if err := os.Remove(filepath.Join(jobDir, f)); err != nil {
					t.Fatal(err)
				}
			}
			s := stream(t)
			if fills := s.metrics.frameStoreBackfills.Value(); fills < float64(len(files)) {
				t.Fatalf("NDJSON stream backfilled %v of %d sidecars", fills, len(files))
			}
			rebuilt(t)
		})
		t.Run(name+"/bitflip", func(t *testing.T) {
			victim := files[0]
			bad := append([]byte(nil), pristine[victim]...)
			at := len(bad) / 2 // inside a sealed image's ciphertext
			if strings.HasSuffix(victim, domain.SidecarSuffix) {
				at = 6 + int(bad[5]) // the first payload byte: after magic, version, kind length and kind
			}
			bad[at] ^= 0x01
			if err := os.WriteFile(filepath.Join(jobDir, victim), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			s := stream(t)
			if errs, fills := s.metrics.frameStoreErrors.Value(), s.metrics.frameStoreBackfills.Value(); errs != 1 || fills != 1 {
				t.Fatalf("NDJSON stream over a flipped sidecar: %v errors, %v backfills, want 1 and 1", errs, fills)
			}
			rebuilt(t)
			s = stream(t)
			if hits, misses := s.metrics.frameStoreHits.Value(), s.metrics.frameStoreMisses.Value(); hits != float64(len(files)) || misses != 0 {
				t.Fatalf("next cold stream: %v sidecar hits of %d, %v misses", hits, len(files), misses)
			}
		})
	}
}

// flakyRangeStore is an FSSink whose next fail sidecar OpenRange calls
// fail with EIO — an I/O error, not a missing object.
type flakyRangeStore struct {
	*shard.FSSink
	fail *atomic.Int64
}

func (s flakyRangeStore) OpenRange(name string) (shard.ReaderAtCloser, int64, error) {
	if isSidecar(name) && s.fail.Add(-1) >= 0 {
		return nil, 0, fmt.Errorf("open %s: %w", name, syscall.EIO)
	}
	return s.FSSink.OpenRange(name)
}

// TestSidecarIOErrorKeepsFile: a sidecar that cannot be opened this
// time is not damage. The stream falls back to decode+encode and stays
// byte-exact, the failure counts one store error, the file is neither
// deleted nor rewritten, and the next cold read is a store hit.
func TestSidecarIOErrorKeepsFile(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, []JobSpec{{Domain: core.Fusion, Seed: 6, Shots: 8}})[0]
	files := sidecarFiles(t, dataDir, id)
	if len(files) == 0 {
		t.Fatal("no sidecars on disk")
	}
	jobDir := filepath.Join(dataDir, "jobs", id)
	pristine := make(map[string][]byte, len(files))
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(jobDir, f))
		if err != nil {
			t.Fatal(err)
		}
		pristine[f] = b
	}
	var want []byte
	t.Run("intact", func(t *testing.T) {
		_, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
		want = rawFrameStream(t, ts.URL+"/v1/jobs/"+id+"/batches?batch_size=2")
	})

	var fail atomic.Int64
	fail.Store(1)
	s, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0,
		NewStore: func(jobID string) (shard.Store, error) {
			fs, err := shard.NewFSSink(filepath.Join(dataDir, "jobs", jobID))
			if err != nil {
				return nil, err
			}
			return flakyRangeStore{fs, &fail}, nil
		}})
	url := ts.URL + "/v1/jobs/" + id + "/batches?batch_size=2"
	if got := rawFrameStream(t, url); !bytes.Equal(got, want) {
		t.Fatalf("stream past an unreadable sidecar differs (%d vs %d bytes)", len(got), len(want))
	}
	m := s.metrics
	if errs, misses, fills := m.frameStoreErrors.Value(), m.frameStoreMisses.Value(), m.frameStoreBackfills.Value(); errs != 1 || misses != 1 || fills != 0 {
		t.Fatalf("first stream: %v errors, %v misses, %v backfills; want 1, 1, 0", errs, misses, fills)
	}
	for f, b := range pristine {
		if got, err := os.ReadFile(filepath.Join(jobDir, f)); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("sidecar %s was removed or changed by an I/O error (err %v)", f, err)
		}
	}
	hits := m.frameStoreHits.Value()
	if got := rawFrameStream(t, url); !bytes.Equal(got, want) {
		t.Fatal("second stream differs")
	}
	if got := m.frameStoreHits.Value() - hits; got != float64(len(files)) {
		t.Fatalf("second stream hit %v of %d sidecars", got, len(files))
	}
	if m.frameStoreMisses.Value() != 1 || m.frameStoreErrors.Value() != 1 {
		t.Fatalf("second stream missed the store: %v misses, %v errors", m.frameStoreMisses.Value(), m.frameStoreErrors.Value())
	}
}

// rangeCountingStore is an FSSink that counts the OpenRange handles
// open at once and the most ever open together.
type rangeCountingStore struct {
	*shard.FSSink
	live, peak *atomic.Int64
}

func (s rangeCountingStore) OpenRange(name string) (shard.ReaderAtCloser, int64, error) {
	ra, size, err := s.FSSink.OpenRange(name)
	if err != nil {
		return nil, 0, err
	}
	n := s.live.Add(1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	return countedHandle{ra, s.live}, size, nil
}

type countedHandle struct {
	shard.ReaderAtCloser
	live *atomic.Int64
}

func (h countedHandle) Close() error {
	h.live.Add(-1)
	return h.ReaderAtCloser.Close()
}

// TestColdFrameStreamReleasesStoreHandles: with the cache off, a frame
// stream reads every shard's sidecar through its own store handle. Each
// handle is closed once the sidecar is read and checked, before any of
// its bytes are written — so one is open at a time, even while a batch
// spans a shard boundary, and a paced stream over a K-shard job never
// holds files open while it waits on its client.
func TestColdFrameStreamReleasesStoreHandles(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, []JobSpec{{Domain: core.Fusion, Seed: 7, Shots: 16}})[0]
	var live, peak atomic.Int64
	s, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir, ServeCacheBytes: 0,
		NewStore: func(jobID string) (shard.Store, error) {
			fs, err := shard.NewFSSink(filepath.Join(dataDir, "jobs", jobID))
			if err != nil {
				return nil, err
			}
			return rangeCountingStore{fs, &live, &peak}, nil
		}})
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK || st.Shards < 4 {
		t.Fatalf("job status %d with %d shards; the test needs at least 4", code, st.Shards)
	}
	rawFrameStream(t, ts.URL+"/v1/jobs/"+id+"/batches?batch_size=3")
	if hits := s.metrics.frameStoreHits.Value(); hits != float64(st.Shards) {
		t.Fatalf("%v of %d shards served from sidecars", hits, st.Shards)
	}
	if p := peak.Load(); p > 1 {
		t.Fatalf("stream held %d store handles open at once, want at most 1", p)
	}
	if n := live.Load(); n != 0 {
		t.Fatalf("%d store handles still open after the stream ended", n)
	}
}
