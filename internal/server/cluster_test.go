package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/pkg/client"
)

// fleetNode is one in-process draid fleet member under httptest.
type fleetNode struct {
	id string
	s  *Server
	ts *httptest.Server
}

func (f *fleetNode) kill() {
	f.ts.Close()
	f.s.Close()
}

// startFleet stands up n cluster members over one shared data dir. The
// chicken-and-egg of needing peer URLs before the servers exist is cut
// with swappable handlers: listeners first, handlers wired in after.
func startFleet(t *testing.T, dataDir string, n int, modify func(i int, o *Options)) []*fleetNode {
	t.Helper()
	holders := make([]atomic.Pointer[http.Handler], n)
	fleet := make([]*fleetNode, n)
	nodes := make([]cluster.Node, n)
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := holders[i].Load()
			if h == nil {
				http.Error(w, "node starting", http.StatusServiceUnavailable)
				return
			}
			(*h).ServeHTTP(w, r)
		}))
		fleet[i] = &fleetNode{id: fmt.Sprintf("n%d", i+1), ts: ts}
		nodes[i] = cluster.Node{ID: fleet[i].id, URL: ts.URL}
	}
	for i := 0; i < n; i++ {
		cl, err := cluster.New(cluster.Config{
			Self:          fleet[i].id,
			Nodes:         nodes,
			ProbeInterval: 50 * time.Millisecond,
			ProbeTimeout:  500 * time.Millisecond,
			FailAfter:     2,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Workers: 2, DataDir: dataDir, Cluster: cl}
		if modify != nil {
			modify(i, &opts)
		}
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		fleet[i].s = s
		h := s.Handler()
		holders[i].Store(&h)
		t.Cleanup(func() { fleet[i].kill() })
	}
	return fleet
}

// fleetInfo decodes the parts of /v1/cluster the tests assert on.
type fleetInfo struct {
	Clustered bool                   `json:"clustered"`
	Self      string                 `json:"self"`
	Members   []cluster.MemberStatus `json:"members"`
	Job       *struct {
		Owner string `json:"owner"`
		URL   string `json:"url"`
		Local bool   `json:"local"`
	} `json:"job"`
}

func ownerOf(t *testing.T, fleet []*fleetNode, askIdx int, jobID string) (idx int) {
	t.Helper()
	var info fleetInfo
	if code := getJSON(t, fleet[askIdx].ts.URL+"/v1/cluster?job="+jobID, &info); code != http.StatusOK {
		t.Fatalf("cluster info status %d", code)
	}
	for i, f := range fleet {
		if f.id == info.Job.Owner {
			return i
		}
	}
	t.Fatalf("owner %q of %s is not a fleet member", info.Job.Owner, jobID)
	return -1
}

// TestClusterFleet is the 3-node acceptance path: a job submitted to
// any node lands on its hash owner, every node agrees who that is, and
// a batch stream proxied through a non-owner is byte-identical to the
// owner-direct stream.
func TestClusterFleet(t *testing.T) {
	fleet := startFleet(t, t.TempDir(), 3, nil)

	ids := make([]string, len(fleet))
	for i := range fleet {
		id, err := SubmitAndWait(fleet[i].ts.URL, JobSpec{
			Domain: core.Climate, Name: fmt.Sprintf("c%d", i), Seed: int64(i + 1),
		}, 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if node, _, ok := parseJobID(id); !ok || node != fleet[i].id {
			t.Fatalf("job submitted via %s got ID %q; want that node's namespace", fleet[i].id, id)
		}
	}

	owners := make([]int, len(ids))
	for i, id := range ids {
		// Every member must agree on the owner.
		owners[i] = ownerOf(t, fleet, 0, id)
		for ask := 1; ask < len(fleet); ask++ {
			if got := ownerOf(t, fleet, ask, id); got != owners[i] {
				t.Fatalf("fleet disagrees on owner of %s: %s vs %s", id, fleet[owners[i]].id, fleet[got].id)
			}
		}
		// And the owner must actually hold it locally — nobody else.
		for j, f := range fleet {
			var local []JobStatus
			if code := getJSON(t, f.ts.URL+"/v1/jobs?scope=local", &local); code != http.StatusOK {
				t.Fatalf("local list status %d", code)
			}
			holds := false
			for _, st := range local {
				if st.ID == id {
					holds = true
					if st.Node != f.id {
						t.Fatalf("status of %s on %s stamped node %q", id, f.id, st.Node)
					}
				}
			}
			if holds != (j == owners[i]) {
				t.Fatalf("job %s held by %s (owner is %s)", id, f.id, fleet[owners[i]].id)
			}
		}
	}

	// The merged list view shows all jobs from any node.
	var merged []JobStatus
	if code := getJSON(t, fleet[2].ts.URL+"/v1/jobs", &merged); code != http.StatusOK {
		t.Fatalf("merged list status %d", code)
	}
	if len(merged) != len(ids) {
		t.Fatalf("merged list has %d jobs, want %d", len(merged), len(ids))
	}

	for i, id := range ids {
		owner := fleet[owners[i]]
		direct := streamAll(t, owner.ts.URL+"/v1/jobs/"+id+"/batches?batch_size=4")
		if len(direct) == 0 {
			t.Fatalf("empty direct stream for %s", id)
		}
		for j, f := range fleet {
			if j == owners[i] {
				continue
			}
			// Default routing: transparent proxy, identical bytes.
			proxied := streamAll(t, f.ts.URL+"/v1/jobs/"+id+"/batches?batch_size=4")
			if string(proxied) != string(direct) {
				t.Fatalf("stream of %s proxied via %s differs from owner-direct (%d vs %d bytes)",
					id, f.id, len(proxied), len(direct))
			}
			// Client-selected routing: a 307 pointing at the owner.
			req, _ := http.NewRequest(http.MethodGet, f.ts.URL+"/v1/jobs/"+id, nil)
			req.Header.Set(cluster.HeaderRoute, cluster.RouteRedirect)
			resp, err := http.DefaultTransport.RoundTrip(req) // no auto-follow
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusTemporaryRedirect {
				t.Fatalf("redirect-routed request via %s got %d", f.id, resp.StatusCode)
			}
			if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, owner.ts.URL) {
				t.Fatalf("redirect Location %q does not point at owner %s", loc, owner.ts.URL)
			}
		}
		// Provenance must be servable wherever the request lands.
		resp, err := http.Get(fleet[(owners[i]+1)%len(fleet)].ts.URL + "/v1/jobs/" + id + "/provenance")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("proxied provenance status %d", resp.StatusCode)
		}
	}
}

// TestClusterFailoverMidStream kills a job's owner while a client is
// partway through its batch stream and requires the same cursor to
// resume against a survivor — served from the shared data dir via
// job-log adoption, completing the stream byte-for-byte.
func TestClusterFailoverMidStream(t *testing.T) {
	fleet := startFleet(t, t.TempDir(), 3, nil)

	id, err := SubmitAndWait(fleet[0].ts.URL, JobSpec{Domain: core.Climate, Name: "fo", Seed: 7}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ownerIdx := ownerOf(t, fleet, 0, id)
	survivorIdx := (ownerIdx + 1) % len(fleet)
	survivor := fleet[survivorIdx]

	streamURL := survivor.ts.URL + "/v1/jobs/" + id + "/batches?batch_size=4"
	full := streamAll(t, streamURL)
	fullLines := strings.Split(strings.TrimSuffix(string(full), "\n"), "\n")
	if len(fullLines) < 3 {
		t.Fatalf("job too small for a mid-stream kill: %d batches", len(fullLines))
	}

	// Read two batches through the survivor (proxied from the owner),
	// keeping the cursor the way a disconnected client would.
	_, _, _, cursor, err := StreamBatchesFrom(streamURL+"&max_batches=2", "")
	if err != nil {
		t.Fatal(err)
	}
	if cursor == "" {
		t.Fatal("no cursor after partial stream")
	}

	fleet[ownerIdx].kill()

	// Resume the same cursor against the survivor: its first forward
	// attempt fails, the owner is marked down, the ring reassigns the
	// range, and the job is adopted from the shared logs.
	resumed := streamAll(t, streamURL+"&cursor="+cursor)
	got := append([]string{fullLines[0], fullLines[1]}, renumberFrom(t, resumed, 2)...)
	if len(got) != len(fullLines) {
		t.Fatalf("resumed stream yields %d total batches, want %d", len(got), len(fullLines))
	}
	for i := range got {
		if got[i] != fullLines[i] {
			t.Fatalf("batch %d differs after failover:\n pre-kill: %s\n resumed:  %s", i, fullLines[i], got[i])
		}
	}

	// The fleet has converged: the survivor reports the dead member
	// down, a living member owns the job, and that member holds it
	// locally (adopted from the shared logs, not proxied).
	var info fleetInfo
	if code := getJSON(t, survivor.ts.URL+"/v1/cluster?job="+id, &info); code != http.StatusOK {
		t.Fatalf("cluster info status %d", code)
	}
	if info.Job.Owner == fleet[ownerIdx].id {
		t.Fatalf("job %s still owned by dead member %s", id, fleet[ownerIdx].id)
	}
	for _, m := range info.Members {
		if m.ID == fleet[ownerIdx].id && m.Alive {
			t.Fatalf("dead member %s still reported alive by %s", m.ID, survivor.id)
		}
	}
	var adopterLocal []JobStatus
	for _, f := range fleet {
		if f.id != info.Job.Owner {
			continue
		}
		if code := getJSON(t, f.ts.URL+"/v1/jobs?scope=local", &adopterLocal); code != http.StatusOK {
			t.Fatalf("adopter local list status %d", code)
		}
	}
	found := false
	for _, st := range adopterLocal {
		if st.ID == id && st.State == JobDone {
			found = true
		}
	}
	if !found {
		t.Fatalf("new owner %s does not hold adopted job %s locally", info.Job.Owner, id)
	}
}

// renumberFrom reparses a resumed stream and renumbers its batch
// indices to continue the original stream's count, so the two can be
// compared line-for-line.
func renumberFrom(t *testing.T, rest []byte, start int) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(string(rest), "\n"), "\n") {
		if line == "" {
			continue
		}
		var wire client.BatchWire
		if err := json.Unmarshal([]byte(line), &wire); err != nil {
			t.Fatalf("resumed stream line unparsable: %v (%q)", err, line)
		}
		wire.Batch = start
		start++
		b, _ := json.Marshal(&wire)
		out = append(out, string(b))
	}
	return out
}
