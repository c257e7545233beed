// What a job stores: one sidecar per shard and its manifest, nothing
// else; the manifest describes those sidecars, byte for byte what the
// library builds; the byte quota charges them; a store that refuses
// them fails the job; and a job missing any of them is never served.
package server

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/shard"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// goldenSpecs are seed 1 of the scale-16 specs the served-bytes golden
// file pins (internal/domain's goldenSpec).
var goldenSpecs = []JobSpec{
	{Domain: core.BioHealth, Seed: 1, Subjects: 125, SeqLen: 2048},
	{Domain: core.Climate, Seed: 1, Months: 37, Lat: 32, Lon: 64},
	{Domain: core.Fusion, Seed: 1, Shots: 16},
	{Domain: core.Materials, Seed: 1, Structures: 312},
}

// goldenShard is one shard line of the served-bytes golden file.
type goldenShard struct {
	name    string
	records int
	sidecar string // SHA-256 of the sidecar's plaintext image
}

// readGolden reads the shards the golden file records for each domain
// at seed 1.
func readGolden(t *testing.T) map[core.Domain][]goldenShard {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "domain", "testdata", "served_bytes.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[core.Domain][]goldenShard)
	var cur *core.Domain
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 4 && fields[2] == "manifest":
			cur = nil
			if fields[1] == "seed=1" {
				d := core.Domain(fields[0])
				cur = &d
			}
		case len(fields) == 6 && fields[2] == "sidecar" && cur != nil:
			n, err := strconv.Atoi(strings.TrimPrefix(fields[1], "records="))
			if err != nil {
				t.Fatal(err)
			}
			out[*cur] = append(out[*cur], goldenShard{name: fields[0], records: n, sidecar: fields[3]})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerStoredBytesGolden pins what a server job stores: for every
// plugin at seed 1 of the golden specs, each manifest shard's sha256 is
// the sidecar digest the served-bytes golden file records for it, and
// the job dir holds MANIFEST.json and one sidecar per shard — sealed
// for bio — and nothing else.
func TestServerStoredBytesGolden(t *testing.T) {
	golden := readGolden(t)
	dataDir := t.TempDir()
	ids := buildJobs(t, dataDir, goldenSpecs)
	for i, id := range ids {
		spec := goldenSpecs[i]
		want := golden[spec.Domain]
		if len(want) == 0 {
			t.Fatalf("%s: no seed-1 shards in the golden file", spec.Domain)
		}
		jobDir := filepath.Join(dataDir, "jobs", id)
		b, err := os.ReadFile(filepath.Join(jobDir, shard.ManifestFile))
		if err != nil {
			t.Fatal(err)
		}
		m, err := shard.DecodeManifest(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Shards) != len(want) {
			t.Fatalf("%s: %d shards, golden %d", spec.Domain, len(m.Shards), len(want))
		}
		files := []string{shard.ManifestFile}
		for k, info := range m.Shards {
			g := want[k]
			if info.Name != g.name || info.Records != g.records || info.SHA256 != g.sidecar {
				t.Fatalf("%s shard %d: %s records=%d sha256 %s; golden %s records=%d sidecar %s",
					spec.Domain, k, info.Name, info.Records, info.SHA256, g.name, g.records, g.sidecar)
			}
			name := domain.SidecarName(info.Name)
			if spec.Domain == core.BioHealth {
				name += ".enc"
			}
			files = append(files, name)
		}
		entries, err := os.ReadDir(jobDir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		slices.Sort(files)
		if !slices.Equal(got, files) {
			t.Fatalf("%s: job dir holds %v, want %v", spec.Domain, got, files)
		}
	}
}

// TestQuotaChargesStoredBytes: a tenant's retained bytes after a job
// are what the job keeps on disk — the sizes of every object in its
// dir but MANIFEST.json — for a plaintext and a sealed job alike.
func TestQuotaChargesStoredBytes(t *testing.T) {
	reg := testRegistry(t, &tenant.Tenant{ID: "alice", Token: "alice-secret-token"})
	dataDir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, Tenants: reg, DataDir: dataDir})
	var want int64
	for _, spec := range []JobSpec{
		{Domain: core.Fusion, Seed: 2, Shots: 8},
		{Domain: core.BioHealth, Seed: 2},
	} {
		st, code := authedSubmit(t, ts.URL, "alice-secret-token", spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		if done := waitDoneAuthed(t, ts.URL, "alice-secret-token", st.ID, 60*time.Second); done.State != JobDone {
			t.Fatalf("%s: %s (%s)", spec.Domain, done.State, done.Error)
		}
		entries, err := os.ReadDir(filepath.Join(dataDir, "jobs", st.ID))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() == shard.ManifestFile {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			want += fi.Size()
		}
		if got := s.tenantRetained("alice"); got != want {
			t.Fatalf("after the %s job: %d retained bytes, the job dirs hold %d", spec.Domain, got, want)
		}
	}
}

// sidecarRefusingStore is an FSSink that refuses to create sidecars.
type sidecarRefusingStore struct{ *shard.FSSink }

func (s sidecarRefusingStore) Create(name string) (io.WriteCloser, error) {
	if isSidecar(name) {
		return nil, errors.New("sidecars refused")
	}
	return s.FSSink.Create(name)
}

// TestSidecarWriteFailureFailsJob: a store that refuses a job's sidecar
// fails the job with an error naming the shard — plaintext and sealed
// alike — and no job is reported done.
func TestSidecarWriteFailureFailsJob(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir,
		NewStore: func(id string) (shard.Store, error) {
			fs, err := shard.NewFSSink(filepath.Join(dataDir, "jobs", id))
			if err != nil {
				return nil, err
			}
			return sidecarRefusingStore{fs}, nil
		}})
	for _, tc := range []struct {
		spec  JobSpec
		shard string
	}{
		{JobSpec{Domain: core.Fusion, Seed: 2, Shots: 8}, "fusion-train-00000"},
		{JobSpec{Domain: core.BioHealth, Seed: 2}, "bio-train-00000"},
	} {
		st, code := postJob(t, ts.URL, tc.spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		got := awaitState(t, ts.URL, st.ID, JobFailed)
		if !strings.Contains(got.Error, tc.shard) || !strings.Contains(got.Error, "sidecars refused") {
			t.Fatalf("%s: job error %q does not name shard %s and the refusal", tc.spec.Domain, got.Error, tc.shard)
		}
	}
	if n := metricValue(t, ts.URL, "draid_jobs_done_total"); n != 0 {
		t.Fatalf("%d jobs reported done", n)
	}
}

// TestRestoreFailsJobMissingSidecar: a done job whose third sidecar is
// gone comes back from a restart failed, with a reason naming the
// missing sidecars, and no stream of it starts.
func TestRestoreFailsJobMissingSidecar(t *testing.T) {
	dataDir := t.TempDir()
	id := buildJobs(t, dataDir, []JobSpec{{Domain: core.Fusion, Seed: 7, Shots: 16}})[0]
	files := sidecarFiles(t, dataDir, id)
	if len(files) < 3 {
		t.Fatalf("%d sidecars; the test needs at least 3", len(files))
	}
	if err := os.Remove(filepath.Join(dataDir, "jobs", id, files[2])); err != nil {
		t.Fatal(err)
	}
	var live, peak atomic.Int64
	s, ts := newTestServer(t, Options{Workers: 1, DataDir: dataDir,
		NewStore: func(jobID string) (shard.Store, error) {
			fs, err := shard.NewFSSink(filepath.Join(dataDir, "jobs", jobID))
			if err != nil {
				return nil, err
			}
			return rangeCountingStore{fs, &live, &peak}, nil
		}})
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	const reason = "restore: sidecar files missing from data dir"
	if st.State != JobFailed || st.Error != reason || st.Servable {
		t.Fatalf("restored job: state %s, error %q, servable %v; want failed, %q", st.State, st.Error, st.Servable, reason)
	}
	for _, wireName := range wire.Wires() {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/batches", nil)
		if err != nil {
			t.Fatal(err)
		}
		if wireName == wire.WireFrame {
			req.Header.Set("Accept", wire.ContentTypeFrame)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), reason) {
			t.Fatalf("%s batches of the failed job: status %d, %s", wireName, resp.StatusCode, body)
		}
	}
	if n := peak.Load(); n != 0 || s.metrics.frameStoreHits.Value() != 0 {
		t.Fatalf("a stream of the failed job read %d sidecars", n)
	}
}
