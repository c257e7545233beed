// Acceptance tests for the disk tier of the zero-copy frame path: a
// job stores one sidecar per shard and nothing else, fully-cold
// streams served from those sidecars are byte-identical to the records
// the library pipeline writes encoded per batch, make zero codec calls,
// and a missing, unreadable, torn or corrupt sidecar ends its stream
// with an in-band error — counted, the file left as it is, and never a
// bad byte.
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

func isSidecar(name string) bool { return strings.Contains(name, domain.SidecarSuffix) }

// byteExactCase is one row of a byte-exactness table: a /batches query
// and the reference streams it must reproduce on each wire.
type byteExactCase struct {
	query string
	want  []byte // the frame stream
	// wantLines is the NDJSON stream: every batch of want as
	// json.Marshal(Codec.Line(header, records)) plus "\n".
	wantLines []byte
}

// libraryRecords runs spec the library way — the plugin's pipeline
// over an in-memory store that keeps its native shards — and decodes
// each shard's records with the codec: what the job must serve, found
// without the server's sidecar sink.
func libraryRecords(t *testing.T, spec JobSpec) (domain.Codec, [][]any) {
	t.Helper()
	plug, err := domain.Lookup(spec.Domain)
	if err != nil {
		t.Fatal(err)
	}
	store := shard.NewMemSink()
	run, err := plug.Build(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Pipeline.Run(run.Dataset); err != nil {
		t.Fatal(err)
	}
	m, err := plug.Manifest(run.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]any, len(m.Shards))
	for i, info := range m.Shards {
		one := &shard.Manifest{Prefix: m.Prefix, Compressed: m.Compressed, Shards: []shard.Info{info}}
		err := shard.ReadAll(plug.Opener(store, run.Key), one, func(_ string, rec []byte) error {
			r, _, err := plug.Codec.Decode(rec)
			shards[i] = append(shards[i], r)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return plug.Codec, shards
}

// referenceFrames is the frame stream a /batches request must return
// over shards: from start, batches of size records (a batch may span
// shards), at most maxBatches of them (0: all), each encoded by the codec
// under its header — the batch number in this stream and the cursor
// after its last record.
func referenceFrames(t *testing.T, codec domain.Codec, shards [][]any, size int, start Cursor, maxBatches int) []byte {
	t.Helper()
	var out []byte
	var recs []any
	batch := 0
	emit := func(after Cursor) bool {
		f, err := domain.EncodeFrame(codec, wire.BatchHeader{Batch: batch, Cursor: after.String(), Kind: codec.Kind()}, recs)
		if err != nil {
			t.Fatal(err)
		}
		out, recs = append(out, f...), recs[:0]
		batch++
		return maxBatches > 0 && batch == maxBatches
	}
	after := start
	for si := start.Shard; si < len(shards); si++ {
		j := 0
		if si == start.Shard {
			j = start.Record
		}
		for ; j < len(shards[si]); j++ {
			recs = append(recs, shards[si][j])
			after = Cursor{Shard: si, Record: j + 1}
			if j+1 == len(shards[si]) {
				after = Cursor{Shard: si + 1}
			}
			if len(recs) == size && emit(after) {
				return out
			}
		}
	}
	if len(recs) > 0 {
		emit(after)
	}
	return out
}

// referenceCases builds the byte-exactness table for spec's job from
// libraryRecords: two batch sizes, a mid-stream cursor resume, two
// max_batches caps, and a ?max_kbps= pacing row (pacing charges the
// bytes but must not change them).
func referenceCases(t *testing.T, spec JobSpec) []byteExactCase {
	t.Helper()
	codec, shards := libraryRecords(t, spec)
	full := referenceFrames(t, codec, shards, 2, Cursor{}, 0)
	cursors := frameCursors(t, full)
	if len(cursors) < 3 {
		t.Fatalf("%s: only %d batches", spec.Domain, len(cursors))
	}
	mid, err := ParseCursor(cursors[len(cursors)/2])
	if err != nil {
		t.Fatal(err)
	}
	var cases []byteExactCase
	for _, row := range []struct {
		query            string
		size, maxBatches int
		start            Cursor
	}{
		{"batch_size=2", 2, 0, Cursor{}},
		{"batch_size=3", 3, 0, Cursor{}},
		{"batch_size=2&cursor=" + mid.String(), 2, 0, mid},
		{"batch_size=2&max_batches=1", 2, 1, Cursor{}},
		{"batch_size=3&max_batches=2", 3, 2, Cursor{}},
	} {
		frames := referenceFrames(t, codec, shards, row.size, row.start, row.maxBatches)
		cases = append(cases, byteExactCase{row.query, frames, marshalLines(t, frames)})
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
// served from sidecars is byte-identical to the library pipeline's
// records encoded per batch, across batch sizes, cursor resume,
// max_batches caps, and ?max_kbps= pacing. With the serving cache off,
// every NDJSON line (fragments encoded per stream) equals
// Line+json.Marshal too.
func TestFrameDiskByteExact(t *testing.T) {
	dataDir := t.TempDir()
	specs := []JobSpec{
		{Domain: core.Climate, Seed: 3, Months: 24, Lat: 16, Lon: 32},
		{Domain: core.Fusion, Seed: 3, Shots: 8},
		{Domain: core.Materials, Seed: 3, Structures: 16},
		{Domain: core.BioHealth, Seed: 3, Subjects: 16},
	}
	ids := buildJobs(t, dataDir, specs)
	cases := make([][]byteExactCase, len(ids))
	for i, id := range ids {
		if len(sidecarFiles(t, dataDir, id)) == 0 {
			t.Fatalf("%s: job completed without sidecars on disk", specs[i].Domain)
		}
		cases[i] = referenceCases(t, specs[i])
	}

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
// counting wrapper before the job is built, so the counter first shows
// it is wired in — the job's sidecar sink decodes and packs every
// record through it — and then that serving never touches it.
func TestFrameDiskZeroCodecCalls(t *testing.T) {
	plug, err := domain.Lookup(core.Fusion)
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Register(plug)
	counting := &countingCodec{Codec: plug.Codec}
	wrapped := plug
	wrapped.Codec = counting
	if err := domain.Register(wrapped); err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, []JobSpec{{Domain: core.Fusion, Seed: 4, Shots: 8}})[0]
	if counting.calls.Load() == 0 {
		t.Fatal("the job made no codec calls — counting codec is not wired in")
	}

	for _, tc := range []struct {
		name       string
		cacheBytes int64
	}{
		{"disk", 0},
		{"cache", 64 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counting.calls.Store(0)
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
		})
	}
}

// readFiles reads the named files of dir.
func readFiles(t *testing.T, dir string, names []string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(names))
	for _, f := range names {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		out[f] = b
	}
	return out
}

// requireFiles requires every file of want in dir with exactly its
// bytes; a nil value requires the file to be absent.
func requireFiles(t *testing.T, dir string, want map[string][]byte) {
	t.Helper()
	for f, b := range want {
		got, err := os.ReadFile(filepath.Join(dir, f))
		if b == nil {
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s: want it absent, read %d bytes (err %v)", f, len(got), err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("%s was removed or changed (err %v, %d of %d bytes)", f, err, len(got), len(b))
		}
	}
}

// splitAtError cuts a raw stream of either wire before its in-band
// error, which must be its last frame or line, and returns what came
// before it and the error's message ("" when the stream has none).
func splitAtError(t *testing.T, stream []byte, wireName string) (good []byte, msg string) {
	t.Helper()
	if wireName == wire.WireNDJSON {
		for at := 0; at < len(stream); {
			end := at + bytes.IndexByte(stream[at:], '\n') + 1
			if end == at {
				t.Fatalf("NDJSON stream ends inside a line: %.80q", stream[at:])
			}
			var e struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(stream[at:end], &e) == nil && e.Error != "" {
				if end != len(stream) {
					t.Fatalf("NDJSON stream goes on after its error line %q", e.Error)
				}
				return stream[:at], e.Error
			}
			at = end
		}
		return stream, ""
	}
	for rest := stream; len(rest) > 0; {
		body, r := splitFrame(t, rest)
		var se *wire.StreamError
		if _, _, _, err := wire.ParseFrameHeader(body); errors.As(err, &se) {
			if len(r) != 0 {
				t.Fatalf("frame stream goes on after its error frame %q", se.Msg)
			}
			return stream[:len(stream)-len(rest)], se.Msg
		}
		rest = r
	}
	return stream, ""
}

// requireInBandError streams url on one wire and requires it to end in
// an in-band error naming shardName after a prefix of want — a
// stream cut short, never one serving a byte the intact sidecars do
// not hold.
func requireInBandError(t *testing.T, url, wireName string, want []byte, shardName string) {
	t.Helper()
	good, msg := splitAtError(t, rawStream(t, url, wireName), wireName)
	if msg == "" {
		t.Fatalf("%s stream over a damaged sidecar ended without an in-band error", wireName)
	}
	if !strings.Contains(msg, shardName) {
		t.Fatalf("%s stream error %q does not name shard %s", wireName, msg, shardName)
	}
	if !bytes.HasPrefix(want, good) {
		t.Fatalf("%s stream served %d bytes that are not a prefix of the intact stream", wireName, len(good))
	}
}

// shardOf is the shard a sidecar object belongs to.
func shardOf(sidecar string) string {
	name, _, _ := strings.Cut(sidecar, domain.SidecarSuffix)
	return name
}

// TestParentFormatJobServesSidecars: a job dir written before a job
// stored only its sidecars also holds the native shards, under a
// manifest describing them. Such a job is served from its sidecars
// alone — its native shards are never opened — and byte for byte as
// before.
func TestParentFormatJobServesSidecars(t *testing.T) {
	dataDir := t.TempDir()
	spec := JobSpec{Domain: core.Materials, Seed: 5, Structures: 16}
	id := buildJobs(t, dataDir, []JobSpec{spec})[0]
	var want []byte
	t.Run("intact", func(t *testing.T) {
		_, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
		want = rawFrameStream(t, ts.URL+"/v1/jobs/"+id+"/batches?batch_size=2")
	})

	// Write the native shards beside the sidecars, and their manifest
	// over the job's, as the job's pipeline wrote them before.
	jobDir := filepath.Join(dataDir, "jobs", id)
	native, err := shard.NewFSSink(jobDir)
	if err != nil {
		t.Fatal(err)
	}
	plug, err := domain.Lookup(spec.Domain)
	if err != nil {
		t.Fatal(err)
	}
	run, err := plug.Build(spec, native)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Pipeline.Run(run.Dataset); err != nil {
		t.Fatal(err)
	}
	m, err := plug.Manifest(run.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if err := native.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := native.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	for _, info := range m.Shards {
		if native.Size(info.Name) == 0 {
			t.Fatalf("native shard %s not written", info.Name)
		}
	}

	var opened atomic.Int64
	s, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0,
		NewStore: func(jobID string) (shard.Store, error) {
			fs, err := shard.NewFSSink(filepath.Join(dataDir, "jobs", jobID))
			if err != nil {
				return nil, err
			}
			return nativeOpenCountingStore{fs, &opened}, nil
		}})
	if got := rawFrameStream(t, ts.URL+"/v1/jobs/"+id+"/batches?batch_size=2"); !bytes.Equal(got, want) {
		t.Fatalf("stream of a job with native shards differs (%d vs %d bytes)", len(got), len(want))
	}
	if n := opened.Load(); n != 0 {
		t.Fatalf("serving opened %d native shards", n)
	}
	if hits := s.metrics.frameStoreHits.Value(); hits != float64(len(m.Shards)) {
		t.Fatalf("%v of %d shards served from sidecars", hits, len(m.Shards))
	}
}

// nativeOpenCountingStore is an FSSink that counts every open of an
// object that is not a sidecar.
type nativeOpenCountingStore struct {
	*shard.FSSink
	opened *atomic.Int64
}

func (s nativeOpenCountingStore) Open(name string) (io.ReadCloser, error) {
	if !isSidecar(name) {
		s.opened.Add(1)
	}
	return s.FSSink.Open(name)
}

func (s nativeOpenCountingStore) OpenRange(name string) (shard.ReaderAtCloser, int64, error) {
	if !isSidecar(name) {
		s.opened.Add(1)
	}
	return s.FSSink.OpenRange(name)
}

// TestSidecarCorruptionFallback: what a stream falls back to over a
// torn, bit-flipped or deleted sidecar is an in-band error. On both
// wires and in both cold serving modes (no cache, and a frame-cache
// fill) the stream serves the shards before the damaged one byte for
// byte and then ends with an error naming it; each stream counts one
// store error, and the damage is left as it is.
func TestSidecarCorruptionFallback(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, []JobSpec{{Domain: core.Fusion, Seed: 6, Shots: 8}})[0]
	jobDir := filepath.Join(dataDir, "jobs", id)
	files := sidecarFiles(t, dataDir, id)
	if len(files) < 3 {
		t.Fatalf("%d sidecars on disk; the test needs at least 3", len(files))
	}
	victim := files[2]
	pristine := readFiles(t, jobDir, files)
	const query = "/batches?batch_size=2"
	var want, wantLines []byte
	t.Run("intact", func(t *testing.T) {
		_, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
		want = rawFrameStream(t, ts.URL+"/v1/jobs/"+id+query)
		wantLines = rawNDJSONStream(t, ts.URL+"/v1/jobs/"+id+query)
	})

	corrupt := map[string]func(b []byte) []byte{
		"bitflip":  func(b []byte) []byte { m := append([]byte(nil), b...); m[len(m)/2] ^= 0x01; return m },
		"truncate": func(b []byte) []byte { return b[:len(b)*2/3] },
		"deleted":  nil, // removed from disk instead of rewritten
	}
	caches := map[string]int64{"disk": 0, "cache": 64 << 20}
	for mode, mutate := range corrupt {
		for cacheName, cacheBytes := range caches {
			t.Run(mode+"/"+cacheName, func(t *testing.T) {
				// The server starts over intact sidecars: restore refuses
				// a job missing one, so the damage happens while it serves.
				s, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: cacheBytes})
				damaged := map[string][]byte{victim: nil}
				if mutate != nil {
					damaged[victim] = mutate(pristine[victim])
					if err := os.WriteFile(filepath.Join(jobDir, victim), damaged[victim], 0o644); err != nil {
						t.Fatal(err)
					}
				} else if err := os.Remove(filepath.Join(jobDir, victim)); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					if err := os.WriteFile(filepath.Join(jobDir, victim), pristine[victim], 0o644); err != nil {
						t.Fatal(err)
					}
				})
				url := ts.URL + "/v1/jobs/" + id + query
				requireInBandError(t, url, wire.WireFrame, want, shardOf(victim))
				requireInBandError(t, url, wire.WireNDJSON, wantLines, shardOf(victim))
				if errs := s.metrics.frameStoreErrors.Value(); errs != 2 {
					t.Fatalf("%v store errors over two streams, want 2", errs)
				}
				if v := s.metrics.serveErrors.Value(); v != 2 {
					t.Fatalf("%v serve errors over two streams, want 2", v)
				}
				requireFiles(t, jobDir, damaged)
			})
		}
	}
}

// TestUnusableSidecarReplacedOnce: a sidecar the CRCs reject — or an
// empty one — fails every cold stream that reaches it, on both wires,
// and is never deleted or rebuilt by the server: each stream counts
// one store error and the damaged bytes stay as they are. Once the
// file is replaced with its intact bytes, the next cold stream is
// byte-exact again and reads only sidecars. A sealed (bio) sidecar
// whose bytes do not decrypt is damage too.
func TestUnusableSidecarReplacedOnce(t *testing.T) {
	dataDir := t.TempDir()
	ids := buildJobs(t, dataDir, []JobSpec{
		{Domain: core.Fusion, Seed: 6, Shots: 8},
		{Domain: core.BioHealth, Seed: 6},
	})
	const query = "/batches?batch_size=2"
	for i, id := range ids {
		prefix := []string{"", "sealed/"}[i] // subtest name prefix
		files := sidecarFiles(t, dataDir, id)
		if len(files) == 0 {
			t.Fatal("no sidecars on disk")
		}
		jobDir := filepath.Join(dataDir, "jobs", id)
		victim := files[0]
		pristine := readFiles(t, jobDir, files)[victim]
		flipped := append([]byte(nil), pristine...)
		flipped[len(flipped)/2] ^= 0x01
		damage := map[string][]byte{
			"bitflip":  flipped,
			"truncate": pristine[:len(pristine)*2/3],
			"empty":    {},
		}
		var want, wantLines []byte
		t.Run(prefix+"intact", func(t *testing.T) {
			_, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
			want = rawFrameStream(t, ts.URL+"/v1/jobs/"+id+query)
			wantLines = rawNDJSONStream(t, ts.URL+"/v1/jobs/"+id+query)
		})
		for mode, bad := range damage {
			t.Run(prefix+mode, func(t *testing.T) {
				s, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
				if err := os.WriteFile(filepath.Join(jobDir, victim), bad, 0o644); err != nil {
					t.Fatal(err)
				}
				url := ts.URL + "/v1/jobs/" + id + query
				for round := 1; round <= 2; round++ {
					requireInBandError(t, url, wire.WireFrame, want, shardOf(victim))
					requireInBandError(t, url, wire.WireNDJSON, wantLines, shardOf(victim))
					if errs := s.metrics.frameStoreErrors.Value(); errs != float64(2*round) {
						t.Fatalf("round %d: %v store errors, want %d", round, errs, 2*round)
					}
					requireFiles(t, jobDir, map[string][]byte{victim: bad})
				}
				if err := os.WriteFile(filepath.Join(jobDir, victim), pristine, 0o644); err != nil {
					t.Fatal(err)
				}
				hits := s.metrics.frameStoreHits.Value()
				if got := rawFrameStream(t, url); !bytes.Equal(got, want) {
					t.Fatal("stream after the sidecar was replaced differs")
				}
				if got := s.metrics.frameStoreHits.Value() - hits; got != float64(len(files)) {
					t.Fatalf("stream after the replacement hit %v of %d sidecars", got, len(files))
				}
				if s.metrics.frameStoreErrors.Value() != 4 {
					t.Fatalf("stream after the replacement still failed: %v errors", s.metrics.frameStoreErrors.Value())
				}
			})
		}
	}
}

// TestNDJSONFillsFromSidecar: an NDJSON cache miss fills from the
// shard's sidecar, as a frame miss does, so NDJSON readers get the
// sidecar's CRCs. For every kind, sealed bio included: a cold NDJSON
// stream over intact sidecars equals Line+json.Marshal; with the
// sidecars deleted, or one payload byte of the first flipped, it ends
// with an in-band error naming the first shard before any line, the
// damage counts once, and the files are left as they are.
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
			if got := rawNDJSONStream(t, ts.URL+"/v1/jobs/"+id+query); !bytes.Equal(got, want[i]) {
				t.Fatalf("%s: NDJSON stream differs from Line+json.Marshal (%d vs %d bytes)", specs[i].Domain, len(got), len(want[i]))
			}
		}
	})
	for i, id := range ids {
		jobDir := filepath.Join(dataDir, "jobs", id)
		files := sidecarFiles(t, dataDir, id)
		if len(files) == 0 {
			t.Fatalf("%s: no sidecars on disk", specs[i].Domain)
		}
		pristine := readFiles(t, jobDir, files)
		restore := func(t *testing.T) {
			for f, b := range pristine {
				if err := os.WriteFile(filepath.Join(jobDir, f), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		// stream starts a cold server over the intact sidecars, damages
		// them with damage, and requires one NDJSON stream to fail on the
		// first shard, counted once, with the damage left in place.
		stream := func(t *testing.T, damage func() map[string][]byte) *Server {
			t.Cleanup(func() { restore(t) })
			s, ts := newTestServer(t, Options{Workers: 2, DataDir: dataDir, ServeCacheBytes: 0})
			damaged := damage()
			good, msg := splitAtError(t, rawNDJSONStream(t, ts.URL+"/v1/jobs/"+id+query), wire.WireNDJSON)
			if len(good) != 0 || !strings.Contains(msg, shardOf(files[0])) {
				t.Fatalf("NDJSON stream: %d bytes, then error %q; want only an error naming %s", len(good), msg, shardOf(files[0]))
			}
			if errs := s.metrics.frameStoreErrors.Value(); errs != 1 {
				t.Fatalf("%v store errors, want 1", errs)
			}
			requireFiles(t, jobDir, damaged)
			return s
		}
		name := strings.ReplaceAll(string(specs[i].Domain), "/", "_")
		t.Run(name+"/deleted", func(t *testing.T) {
			s := stream(t, func() map[string][]byte {
				gone := make(map[string][]byte, len(files))
				for _, f := range files {
					if err := os.Remove(filepath.Join(jobDir, f)); err != nil {
						t.Fatal(err)
					}
					gone[f] = nil
				}
				return gone
			})
			if misses := s.metrics.frameStoreMisses.Value(); misses != 1 {
				t.Fatalf("%v store misses, want 1", misses)
			}
		})
		t.Run(name+"/bitflip", func(t *testing.T) {
			victim := files[0]
			s := stream(t, func() map[string][]byte {
				bad := append([]byte(nil), pristine[victim]...)
				at := len(bad) / 2 // inside a sealed image's ciphertext
				if strings.HasSuffix(victim, domain.SidecarSuffix) {
					at = 6 + int(bad[5]) // the first payload byte: after magic, version, kind length and kind
				}
				bad[at] ^= 0x01
				if err := os.WriteFile(filepath.Join(jobDir, victim), bad, 0o644); err != nil {
					t.Fatal(err)
				}
				return map[string][]byte{victim: bad}
			})
			if misses := s.metrics.frameStoreMisses.Value(); misses != 0 {
				t.Fatalf("a damaged sidecar counted %v misses, want 0", misses)
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
// time fails the stream that met it with an in-band error and counts
// one store error (not a miss); the file is neither deleted nor
// rewritten, and the next cold stream is byte-exact and all store hits.
func TestSidecarIOErrorKeepsFile(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, []JobSpec{{Domain: core.Fusion, Seed: 6, Shots: 8}})[0]
	files := sidecarFiles(t, dataDir, id)
	if len(files) == 0 {
		t.Fatal("no sidecars on disk")
	}
	jobDir := filepath.Join(dataDir, "jobs", id)
	pristine := readFiles(t, jobDir, files)
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
	requireInBandError(t, url, wire.WireFrame, want, shardOf(files[0]))
	m := s.metrics
	if errs, misses := m.frameStoreErrors.Value(), m.frameStoreMisses.Value(); errs != 1 || misses != 0 {
		t.Fatalf("first stream: %v errors, %v misses; want 1, 0", errs, misses)
	}
	requireFiles(t, jobDir, pristine)
	hits := m.frameStoreHits.Value()
	if got := rawFrameStream(t, url); !bytes.Equal(got, want) {
		t.Fatal("second stream differs")
	}
	if got := m.frameStoreHits.Value() - hits; got != float64(len(files)) {
		t.Fatalf("second stream hit %v of %d sidecars", got, len(files))
	}
	if m.frameStoreMisses.Value() != 0 || m.frameStoreErrors.Value() != 1 {
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
