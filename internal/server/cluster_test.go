package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/telemetry"
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

// TestSubmitRedirectRouting: a submission that asks for redirects and
// lands on a non-owner gets a 307 to the owner's /v1/jobs?job_id=<id>,
// the ID the entry node allocated. Following it creates the job on the
// owner under that ID, carrying the client's trace.
func TestSubmitRedirectRouting(t *testing.T) {
	fleet := startFleet(t, t.TempDir(), 3, nil)
	const trace = "submit-redirect.1"
	body := `{"domain":"climate","months":2,"lat":4,"lon":8,"seed":5}`
	post := func(url string, redirect bool) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(telemetry.TraceHeader, trace)
		if redirect {
			req.Header.Set(cluster.HeaderRoute, cluster.RouteRedirect)
		}
		resp, err := http.DefaultTransport.RoundTrip(req) // no auto-follow
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for attempt := 0; attempt < 20; attempt++ {
		resp := post(fleet[0].ts.URL+"/v1/jobs", true)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			continue // the entry node owns the ID it allocated
		}
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("redirect-routed submit: status %d, want 307", resp.StatusCode)
		}
		loc, err := url.Parse(resp.Header.Get("Location"))
		if err != nil {
			t.Fatal(err)
		}
		id := loc.Query().Get("job_id")
		if node, _, ok := parseJobID(id); !ok || node != fleet[0].id {
			t.Fatalf("Location %s pre-assigns %q; want an ID in %s's namespace", loc, id, fleet[0].id)
		}
		owner := fleet[ownerOf(t, fleet, 0, id)]
		if want := owner.ts.URL + "/v1/jobs?job_id=" + id; loc.String() != want {
			t.Fatalf("Location %s, want %s", loc, want)
		}

		resp = post(loc.String(), true)
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("followed 307: status %d, %v", resp.StatusCode, err)
		}
		if st.ID != id || st.Node != owner.id {
			t.Fatalf("followed 307 made job %s on %s; want %s on %s", st.ID, st.Node, id, owner.id)
		}
		var local []JobStatus
		if code := getJSON(t, owner.ts.URL+"/v1/jobs?scope=local", &local); code != http.StatusOK {
			t.Fatalf("owner local list status %d", code)
		}
		if !slices.ContainsFunc(local, func(s JobStatus) bool { return s.ID == id }) {
			t.Fatalf("owner %s does not hold %s locally", owner.id, id)
		}
		var events []JobEvent
		if code := getJSON(t, owner.ts.URL+"/v1/jobs/"+id+"/events", &events); code != http.StatusOK ||
			len(events) == 0 || events[0].Event != client.EventSubmitted || events[0].Trace != trace {
			t.Fatalf("events of %s on its owner: status %d, %+v; want submitted under trace %q", id, code, events, trace)
		}
		return
	}
	t.Fatal("20 submissions all hashed to the entry node; cannot exercise the redirect")
}

// TestSubmitRetryResendsBody: a member whose ring still names a stopped
// owner proxies a submission there, fails, marks the owner down and
// retries on the survivor the ring names next. The retry must carry the
// whole spec again — the first attempt may have consumed the body.
func TestSubmitRetryResendsBody(t *testing.T) {
	// No probing: the entry node learns of the dead owner only from its
	// failed forward.
	fleet := startFleet(t, t.TempDir(), 3, func(i int, o *Options) {
		cl, err := cluster.New(cluster.Config{Self: o.Cluster.Self().ID, Nodes: o.Cluster.Nodes(),
			ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		o.Cluster = cl
	})
	// Pre-assign an ID that n2 owns and that n3 owns once n2 is down, so
	// the retry leaves the entry node.
	survivors := cluster.NewRing([]string{fleet[0].id, fleet[2].id}, cluster.DefaultVNodes)
	var id string
	for seq := 1; id == ""; seq++ {
		cand := fmt.Sprintf("job-%s-%06d", fleet[0].id, seq)
		if fleet[0].s.opts.Cluster.Owner(cand).ID == fleet[1].id && survivors.Owner(cand) == fleet[2].id {
			id = cand
		}
	}
	fleet[1].kill()

	spec := JobSpec{Domain: core.Climate, Name: "resent", Seed: 11, Months: 2, Lat: 4, Lon: 8}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fleet[0].ts.URL+"/v1/jobs?job_id="+id, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit past a stopped owner: status %d, %v (%+v)", resp.StatusCode, err, st)
	}
	if st.ID != id || st.Node != fleet[2].id {
		t.Fatalf("job %s landed on %q; want %s on the survivor %s", st.ID, st.Node, id, fleet[2].id)
	}
	if st.Spec != spec {
		t.Fatalf("survivor ran spec %+v; want the full submitted spec %+v", st.Spec, spec)
	}
}

// TestSubmitPreassignedIDOnce: concurrent submissions pre-assigning one
// ID race through admission, whose record append runs outside the
// server lock. Exactly one is accepted; the rest are 409s.
func TestSubmitPreassignedIDOnce(t *testing.T) {
	fleet := startFleet(t, t.TempDir(), 1, nil)
	const racers = 8
	codes := make([]int, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(fleet[0].ts.URL+"/v1/jobs?job_id=job-n1-000007", "application/json",
				strings.NewReader(`{"domain":"climate","months":2,"lat":4,"lon":8}`))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	close(start)
	wg.Wait()
	accepted := 0
	for _, code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusConflict:
		default:
			t.Errorf("racing submission: status %d", code)
		}
	}
	var local []JobStatus
	if code := getJSON(t, fleet[0].ts.URL+"/v1/jobs?scope=local", &local); code != http.StatusOK {
		t.Fatalf("local list status %d", code)
	}
	if accepted != 1 || len(local) != 1 {
		t.Fatalf("%d of %d racing submissions of one ID accepted, %d jobs listed; want 1 and 1", accepted, racers, len(local))
	}
}

// TestAdoptionSkipsJobBeingAdmitted: a new job's submitted record is in
// its ledger before the job is in the table. An adoption scan in
// that window must leave the job to its admission: not fail it as
// interrupted, and under Requeue not queue it a second time.
func TestAdoptionSkipsJobBeingAdmitted(t *testing.T) {
	for _, requeue := range []bool{false, true} {
		t.Run(fmt.Sprintf("requeue=%v", requeue), func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			var hold sync.Once
			onLogSync(t, "audit-n1.log", func(int) error {
				hold.Do(func() {
					close(entered)
					<-release
				})
				return nil
			})
			dataDir := t.TempDir()
			fleet := startFleet(t, dataDir, 1, func(_ int, o *Options) { o.Requeue = requeue })
			const id = "job-n1-000001"
			codes := make(chan int, 1)
			go func() {
				resp, err := http.Post(fleet[0].ts.URL+"/v1/jobs", "application/json",
					strings.NewReader(`{"domain":"climate","months":2,"lat":4,"lon":8}`))
				if err != nil {
					codes <- 0
					return
				}
				resp.Body.Close()
				codes <- resp.StatusCode
			}()
			<-entered
			adopted := make(chan struct{})
			go func() {
				fleet[0].s.adoptOrphans("")
				close(adopted)
			}()
			select {
			case <-adopted:
			case <-time.After(2 * time.Second): // the scan waits on the held log to fail the job
			}
			close(release)
			<-adopted
			if code := <-codes; code != http.StatusAccepted {
				t.Fatalf("submit status %d, want 202", code)
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				var st JobStatus
				if code := getJSON(t, fleet[0].ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
					t.Fatalf("poll %s: status %d", id, code)
				}
				if st.State == client.JobFailed {
					t.Fatalf("job failed: %s", st.Error)
				}
				if st.State == client.JobDone {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job not done: %+v", st)
				}
				time.Sleep(20 * time.Millisecond)
			}
			time.Sleep(200 * time.Millisecond) // room for a second run to land
			count := map[string]int{}
			for _, rec := range readRecords(t, filepath.Join(dataDir, "audit-n1.log")) {
				if rec.Job == id {
					count[rec.Type+rec.Detail]++
				}
			}
			if count[ledger.TypeSubmitted+"climate"] != 1 || count[ledger.TypeDone] != 1 || len(count) != 2 {
				t.Fatalf("ledger records for %s: %v; want one submitted and one done", id, count)
			}
			s := fleet[0].s
			s.mu.Lock()
			listed := 0
			for _, o := range s.order {
				if o == id {
					listed++
				}
			}
			s.mu.Unlock()
			if listed != 1 {
				t.Fatalf("job %s listed %d times, want once", id, listed)
			}
		})
	}
}

// TestSubmitEvictedIDRefused: eviction is forever, so a submission that
// pre-assigns an evicted job's ID (a client re-sending an old redirect)
// is refused, by the member that evicted it and after a restart.
func TestSubmitEvictedIDRefused(t *testing.T) {
	dataDir := t.TempDir()
	fleet := startFleet(t, dataDir, 1, func(_ int, o *Options) { o.JobTTL = 100 * time.Millisecond })
	const spec = `{"domain":"climate","months":2,"lat":4,"lon":8}`
	submit := func(base string) int {
		t.Helper()
		resp, err := http.Post(base+"/v1/jobs?job_id=job-n2-000003", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := submit(fleet[0].ts.URL); code != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want 202", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for getJSON(t, fleet[0].ts.URL+"/v1/jobs/job-n2-000003", nil) != http.StatusNotFound {
		if time.Now().After(deadline) {
			t.Fatal("job not evicted after its TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code := submit(fleet[0].ts.URL); code != http.StatusConflict {
		t.Fatalf("resubmitted evicted ID: status %d, want 409", code)
	}
	fleet[0].kill()
	fleet = startFleet(t, dataDir, 1, nil)
	if code := submit(fleet[0].ts.URL); code != http.StatusConflict {
		t.Fatalf("resubmitted evicted ID after restart: status %d, want 409", code)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "jobs", "job-n2-000003")); !os.IsNotExist(err) {
		t.Fatalf("evicted job's dir: %v; want it gone", err)
	}
}
