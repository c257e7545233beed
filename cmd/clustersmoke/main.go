// Command clustersmoke is the fleet end-to-end check CI runs on every
// push: it launches three real draid processes sharing one data dir,
// submits a job through every node via the pkg/client SDK, verifies the
// fleet agrees on consistent-hash ownership and that proxied streams
// match owner-direct streams byte for byte, then SIGKILLs one job's
// owner mid-stream and requires the same cursor to resume against a
// survivor until every job's stream completes. The -wire flag selects
// the stream encoding; CI runs the smoke once per wire format, so both
// the NDJSON and the binary frame path cross the proxy, survive
// failover, and resume by cursor.
//
// With -tenancy the smoke instead exercises the multi-tenant fleet:
// every node runs with a -tenants registry, and the smoke requires
// cross-tenant 403s to hold on the owner-direct, proxied, AND
// redirected paths (identity must survive fleet hops), admin tokens to
// see across tenants, and the owner's audit ledger — its one log — to
// hold the job's submitted record and the stream record with inclusion
// proofs that verify against its published Merkle roots.
//
// Usage:
//
//	go build -o /tmp/draid ./cmd/draid
//	go run ./cmd/clustersmoke -draid /tmp/draid -wire frame
//	go run ./cmd/clustersmoke -draid /tmp/draid -tenancy
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/ledger"
	"repro/internal/wire"
	"repro/pkg/client"
)

type node struct {
	id   string
	url  string
	cli  *client.Client
	cmd  *exec.Cmd
	dead bool
}

var (
	streamWire  string
	verifyTrace bool
)

// smokeTrace is the pinned trace ID for raw streams; every hop must
// echo it back exactly once (a duplicate means a proxy re-stamped it).
const smokeTrace = "clustersmoke-trace.1"

func main() {
	draid := flag.String("draid", "", "path to a built draid binary (required)")
	basePort := flag.Int("base-port", 18081, "first of three consecutive listen ports")
	keep := flag.Bool("keep", false, "keep the data dir for inspection")
	tenancy := flag.Bool("tenancy", false, "run the multi-tenant smoke instead (auth, cross-tenant 403s across proxy and redirect, audit proofs)")
	flag.StringVar(&streamWire, "wire", wire.WireNDJSON, "stream wire format to exercise (ndjson|frame)")
	flag.BoolVar(&verifyTrace, "verify-trace", true, "assert X-Draid-Trace IDs survive every fleet hop")
	flag.Parse()
	log.SetFlags(0)
	if *draid == "" {
		log.Fatal("clustersmoke: -draid is required")
	}
	if streamWire != wire.WireNDJSON && streamWire != wire.WireFrame {
		log.Fatalf("clustersmoke: unknown -wire %q (want ndjson|frame)", streamWire)
	}

	dataDir, err := os.MkdirTemp("", "clustersmoke-")
	if err != nil {
		log.Fatal(err)
	}
	if !*keep {
		defer os.RemoveAll(dataDir)
	}
	log.Printf("clustersmoke: shared data dir %s, wire %s", dataDir, streamWire)

	nodes := make([]*node, 3)
	var peers []string
	for i := range nodes {
		id := fmt.Sprintf("n%d", i+1)
		url := fmt.Sprintf("http://127.0.0.1:%d", *basePort+i)
		nodes[i] = &node{id: id, url: url,
			cli: client.New(url, client.WithWire(streamWire), client.WithTrace("smoke-"+id))}
		peers = append(peers, id+"="+url)
	}
	var tenantsPath string
	if *tenancy {
		tenantsPath = filepath.Join(dataDir, "tenants.json")
		writeTenantsFile(tenantsPath)
	}
	peerFlag := strings.Join(peers, ",")
	for i, n := range nodes {
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", *basePort+i),
			"-data-dir", dataDir,
			"-node-id", n.id,
			"-peers", peerFlag,
			"-probe-interval", "200ms",
			"-workers", "2",
		}
		if *tenancy {
			args = append(args, "-tenants", tenantsPath)
		}
		n.cmd = exec.Command(*draid, args...)
		n.cmd.Stdout = os.Stderr
		n.cmd.Stderr = os.Stderr
		if err := n.cmd.Start(); err != nil {
			log.Fatalf("clustersmoke: start %s: %v", n.id, err)
		}
	}
	defer func() {
		for _, n := range nodes {
			if !n.dead && n.cmd.Process != nil {
				_ = n.cmd.Process.Kill()
				_, _ = n.cmd.Process.Wait()
			}
		}
	}()

	for _, n := range nodes {
		waitHealthy(n)
	}
	log.Printf("clustersmoke: fleet of %d healthy", len(nodes))
	ctx := context.Background()

	if *tenancy {
		tenancySmoke(ctx, nodes)
		return
	}

	// One job submitted through each member via the SDK; completion
	// polled through the same member (routing hides where it runs).
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		cctx, cancel := context.WithTimeout(ctx, 120*time.Second)
		st, err := n.cli.SubmitJob(cctx, client.JobSpec{
			Domain: "climate", Name: fmt.Sprintf("smoke-%d", i), Seed: int64(i + 1),
		})
		if err == nil {
			st, err = n.cli.WaitDone(cctx, st.ID)
		}
		cancel()
		if err != nil {
			log.Fatalf("clustersmoke: job via %s: %v", n.id, err)
		}
		if verifyTrace && st.Trace != "smoke-"+n.id {
			log.Fatalf("clustersmoke: submission via %s surfaced trace %q, want %q",
				n.id, st.Trace, "smoke-"+n.id)
		}
		ids[i] = st.ID
		log.Printf("clustersmoke: %s done (submitted via %s, trace %s)", st.ID, n.id, st.Trace)
	}

	// Fleet-wide ownership agreement, owner-direct == proxied bytes,
	// and a validated decode of every stream in the selected wire.
	fullStreams := make(map[string][]byte, len(ids))
	decoded := make(map[string][]client.BatchWire, len(ids))
	owners := make(map[string]*node, len(ids))
	for _, id := range ids {
		owner := ""
		for _, n := range nodes {
			info, err := n.cli.ClusterInfo(ctx, id)
			if err != nil || info.Job == nil || info.Job.Owner == "" {
				log.Fatalf("clustersmoke: cluster info via %s: %v (%+v)", n.id, err, info)
			}
			if owner == "" {
				owner = info.Job.Owner
			} else if info.Job.Owner != owner {
				log.Fatalf("clustersmoke: fleet disagrees on owner of %s: %s vs %s", id, owner, info.Job.Owner)
			}
		}
		for _, n := range nodes {
			if n.id == owner {
				owners[id] = n
			}
		}
		direct := streamBytes(owners[id].url, id, "")
		for _, n := range nodes {
			if n.id == owner {
				continue
			}
			proxied := streamBytes(n.url, id, "")
			if string(proxied) != string(direct) {
				log.Fatalf("clustersmoke: %s stream of %s via %s differs from owner-direct", streamWire, id, n.id)
			}
		}
		fullStreams[id] = direct
		decoded[id] = streamDecoded(owners[id].cli, id, "")
		log.Printf("clustersmoke: %s owned by %s; proxied %s streams byte-identical (%d batches)",
			id, owner, streamWire, len(decoded[id]))
	}

	// Redirect path: a 307 hop must land on the owner with the client's
	// trace intact (Go's client re-sends custom headers on 307).
	if verifyTrace {
		var nonOwner *node
		for _, n := range nodes {
			if n.id != owners[ids[0]].id {
				nonOwner = n
				break
			}
		}
		req, err := http.NewRequest(http.MethodGet, nonOwner.url+"/v1/jobs/"+ids[0], nil)
		if err != nil {
			log.Fatalf("clustersmoke: redirect probe: %v", err)
		}
		req.Header.Set(client.TraceHeader, smokeTrace)
		req.Header.Set("X-Draid-Route", "redirect")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatalf("clustersmoke: redirect probe: %v", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("clustersmoke: redirect probe status %d", resp.StatusCode)
		}
		if got := resp.Header.Get(client.TraceHeader); got != smokeTrace {
			log.Fatalf("clustersmoke: redirected trace %q, want %q", got, smokeTrace)
		}
		log.Printf("clustersmoke: trace IDs verified across submissions, proxied streams, and redirects")
		verifyAssembledTrace(ctx, nodes, owners[ids[0]], ids[0])
	}

	// Kill the owner of the first job mid-stream, then resume the same
	// cursor against a survivor.
	victim := owners[ids[0]]
	var survivor *node
	for _, n := range nodes {
		if n.id != victim.id {
			survivor = n
			break
		}
	}
	const prefixBatches = 2
	partial, err := survivor.cli.StreamBatches(ctx, ids[0],
		client.StreamOptions{BatchSize: 4, MaxBatches: prefixBatches, MaxResumes: -1})
	if err != nil {
		log.Fatalf("clustersmoke: partial stream: %v", err)
	}
	if _, _, _, err := partial.Drain(); err != nil {
		log.Fatalf("clustersmoke: partial stream: %v", err)
	}
	cursor := partial.Cursor()
	if err := victim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		log.Fatalf("clustersmoke: kill %s: %v", victim.id, err)
	}
	_, _ = victim.cmd.Process.Wait()
	victim.dead = true
	log.Printf("clustersmoke: SIGKILLed %s (owner of %s); resuming cursor %s via %s",
		victim.id, ids[0], cursor, survivor.id)

	resumed := streamDecoded(survivor.cli, ids[0], cursor)
	checkResume(decoded[ids[0]], resumed, prefixBatches, ids[0])
	log.Printf("clustersmoke: cursor resume after owner death is exact in %s wire", streamWire)

	// Every job — including any others the victim owned — must still
	// stream completely (and byte-identically) via the survivors.
	for _, id := range ids {
		for _, n := range nodes {
			if n.dead {
				continue
			}
			got := streamBytes(n.url, id, "")
			if string(got) != string(fullStreams[id]) {
				log.Fatalf("clustersmoke: post-kill stream of %s via %s differs (%d vs %d bytes)",
					id, n.id, len(got), len(fullStreams[id]))
			}
		}
	}
	log.Printf("clustersmoke: all %d jobs fully streamable via survivors (%s wire) — PASS", len(ids), streamWire)
}

// Tenancy smoke tokens — throwaway credentials for the local fleet the
// smoke itself launches.
const (
	aliceToken = "smoke-alice-token-1"
	bobToken   = "smoke-bob-token-22"
	rootToken  = "smoke-root-token-33"
)

// writeTenantsFile writes the -tenants registry for the tenancy smoke:
// two plain tenants and an admin, 0600 as the server demands.
func writeTenantsFile(path string) {
	cfg := `[
  {"id": "alice", "token": "` + aliceToken + `", "weight": 3},
  {"id": "bob", "token": "` + bobToken + `"},
  {"id": "root", "token": "` + rootToken + `", "admin": true}
]`
	if err := os.WriteFile(path, []byte(cfg), 0o600); err != nil {
		log.Fatalf("clustersmoke: write tenants file: %v", err)
	}
}

// authedStatus performs one request with a bearer token (empty sends
// none) and optional route header, draining the body and returning the
// status code. The default client follows 307s, re-sending the
// Authorization header because every hop shares a hostname.
func authedStatus(url, token, route string) int {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		log.Fatalf("clustersmoke: %s: %v", url, err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if route != "" {
		req.Header.Set("X-Draid-Route", route)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatalf("clustersmoke: %s: %v", url, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// tenancySmoke is the -tenancy variant: a three-node authenticated
// fleet where tenant isolation must hold on every routing path and the
// audit ledger must certify what happened.
func tenancySmoke(ctx context.Context, nodes []*node) {
	alice := client.New(nodes[0].url, client.WithToken(aliceToken))
	cctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	st, err := alice.SubmitJob(cctx, client.JobSpec{Domain: "climate", Name: "tenancy-smoke", Seed: 1})
	if err != nil {
		log.Fatalf("clustersmoke: alice submit: %v", err)
	}
	if _, err := alice.WaitDone(cctx, st.ID); err != nil {
		log.Fatalf("clustersmoke: alice job: %v", err)
	}
	info, err := alice.ClusterInfo(ctx, st.ID)
	if err != nil || info.Job == nil || info.Job.Owner == "" {
		log.Fatalf("clustersmoke: cluster info: %v (%+v)", err, info)
	}
	var owner, proxy *node
	for _, n := range nodes {
		if n.id == info.Job.Owner {
			owner = n
		} else if proxy == nil {
			proxy = n
		}
	}
	if owner == nil || proxy == nil {
		log.Fatalf("clustersmoke: owner %s not in fleet", info.Job.Owner)
	}
	log.Printf("clustersmoke: tenancy job %s owned by %s; probing via proxy %s", st.ID, owner.id, proxy.id)

	// The contract, on every routing path: no credential 401s, bob's
	// credential 403s, alice's 200s. "proxy" hits a non-owner that
	// forwards to the owner (identity rides the peer hop), "redirect"
	// forces the 307 path (the client re-presents its own credential to
	// the owner).
	jobPath := "/v1/jobs/" + st.ID
	for _, probe := range []struct {
		name  string
		base  string
		route string
	}{
		{"owner-direct", owner.url, ""},
		{"proxied", proxy.url, ""},
		{"redirected", proxy.url, "redirect"},
	} {
		if got := authedStatus(probe.base+jobPath, "", probe.route); got != http.StatusUnauthorized {
			log.Fatalf("clustersmoke: %s unauthenticated read: status %d, want 401", probe.name, got)
		}
		if got := authedStatus(probe.base+jobPath, bobToken, probe.route); got != http.StatusForbidden {
			log.Fatalf("clustersmoke: %s cross-tenant read as bob: status %d, want 403", probe.name, got)
		}
		if got := authedStatus(probe.base+jobPath+"/batches?max_batches=1", bobToken, probe.route); got != http.StatusForbidden {
			log.Fatalf("clustersmoke: %s cross-tenant stream as bob: status %d, want 403", probe.name, got)
		}
		if got := authedStatus(probe.base+jobPath, aliceToken, probe.route); got != http.StatusOK {
			log.Fatalf("clustersmoke: %s owner-tenant read as alice: status %d, want 200", probe.name, got)
		}
	}
	log.Printf("clustersmoke: cross-tenant 403s hold owner-direct, proxied, and redirected")

	// Alice's stream flows end to end through the proxy with her token
	// riding every hop (including resumes).
	aliceViaProxy := client.New(proxy.url, client.WithToken(aliceToken))
	stream, err := aliceViaProxy.StreamBatches(ctx, st.ID, client.StreamOptions{BatchSize: 4, MaxResumes: -1})
	if err != nil {
		log.Fatalf("clustersmoke: alice proxied stream: %v", err)
	}
	batches, _, _, err := stream.Drain()
	if err != nil || batches == 0 {
		log.Fatalf("clustersmoke: alice proxied stream: %d batches, err %v", batches, err)
	}
	log.Printf("clustersmoke: alice streamed %d batches through the proxy", batches)

	// Listings scope: bob sees nothing anywhere, the admin sees alice's
	// job from every node (the cluster-merged view carries tenant
	// ownership across the fleet).
	for _, n := range nodes {
		bobJobs, err := client.New(n.url, client.WithToken(bobToken)).Jobs(ctx)
		if err != nil || len(bobJobs) != 0 {
			log.Fatalf("clustersmoke: bob list via %s: %d jobs, err %v (want 0)", n.id, len(bobJobs), err)
		}
		rootJobs, err := client.New(n.url, client.WithToken(rootToken)).Jobs(ctx)
		if err != nil || len(rootJobs) == 0 {
			log.Fatalf("clustersmoke: admin list via %s: %d jobs, err %v (want >=1)", n.id, len(rootJobs), err)
		}
	}
	log.Printf("clustersmoke: listings scoped (bob empty, admin cluster-wide)")

	// The owner's audit ledger certifies the submission and the stream
	// open, each with an inclusion proof that verifies against the
	// published Merkle roots; bob cannot prove alice's records.
	rootCli := client.New(owner.url, client.WithToken(rootToken))
	sub := findAuditSmoke(ctx, rootCli, ledger.TypeSubmitted, st.ID)
	str := findAuditSmoke(ctx, rootCli, ledger.TypeStream, st.ID)
	for _, rec := range []*client.AuditProof{sub, str} {
		if rec.Record.Tenant != "alice" {
			log.Fatalf("clustersmoke: audit %s record tenant %q, want alice", rec.Record.Type, rec.Record.Tenant)
		}
	}
	proofURL := fmt.Sprintf("%s/v1/audit/proof?seq=%d", owner.url, sub.Record.Seq)
	if got := authedStatus(proofURL, bobToken, ""); got != http.StatusForbidden {
		log.Fatalf("clustersmoke: bob proving alice's audit record: status %d, want 403", got)
	}
	log.Printf("clustersmoke: audit trail verified on %s (submitted seq %d, stream seq %d) — tenancy PASS",
		owner.id, sub.Record.Seq, str.Record.Seq)
}

// findAuditSmoke scans the node's audit ledger through the SDK for the
// first record of the given type and job, verifying every inclusion
// proof against the published roots on the way. Polls briefly: audit
// appends are asynchronous with respect to the HTTP responses that
// caused them.
func findAuditSmoke(ctx context.Context, cli *client.Client, typ, job string) *client.AuditProof {
	deadline := time.Now().Add(10 * time.Second)
	for {
		roots, err := cli.AuditRoots(ctx)
		if err != nil {
			log.Fatalf("clustersmoke: audit roots: %v", err)
		}
		byBatch := make(map[int]client.AuditBatchRoot, len(roots.Roots))
		for _, r := range roots.Roots {
			byBatch[r.Batch] = r
		}
		for seq := uint64(1); seq <= roots.Records; seq++ {
			proof, err := cli.AuditProof(ctx, seq)
			if err != nil {
				log.Fatalf("clustersmoke: audit proof seq %d: %v", seq, err)
			}
			if err := proof.Verify(); err != nil {
				log.Fatalf("clustersmoke: audit proof seq %d: %v", seq, err)
			}
			if root, ok := byBatch[proof.Batch]; !ok || root.Root != proof.Root {
				log.Fatalf("clustersmoke: audit proof seq %d: root %s not among published roots", seq, proof.Root)
			}
			if proof.Record.Type == typ && proof.Record.Job == job {
				return proof
			}
		}
		if time.Now().After(deadline) {
			log.Fatalf("clustersmoke: no %s audit record for job %s among %d records", typ, job, roots.Records)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// verifyAssembledTrace streams one job through a non-owner node under
// a fresh pinned trace ID, then fetches the fleet-assembled span tree
// from a third node and requires (a) spans from both the proxying node
// and the owner under the one trace ID, and (b) the owner's server
// span to be parented under the proxy's client span — the cross-node
// propagation contract, exercised against real processes.
func verifyAssembledTrace(ctx context.Context, nodes []*node, owner *node, jobID string) {
	const spanTrace = "clustersmoke-span.1"
	var proxy, third *node
	for _, n := range nodes {
		if n.id == owner.id {
			continue
		}
		if proxy == nil {
			proxy = n
		} else if third == nil {
			third = n
		}
	}
	if third == nil {
		third = owner // 2-node fleets: ask the owner instead
	}
	req, err := http.NewRequest(http.MethodGet, proxy.url+"/v1/jobs/"+jobID+"/batches?batch_size=4", nil)
	if err != nil {
		log.Fatalf("clustersmoke: trace stream: %v", err)
	}
	if streamWire == wire.WireFrame {
		req.Header.Set("Accept", wire.ContentTypeFrame)
	}
	req.Header.Set(client.TraceHeader, spanTrace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatalf("clustersmoke: trace stream: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("clustersmoke: trace stream status %d", resp.StatusCode)
	}

	// The proxy's root span records just after the response completes —
	// poll briefly rather than assuming perfect ordering.
	var view *client.TraceView
	deadline := time.Now().Add(5 * time.Second)
	for {
		view, err = third.cli.Trace(ctx, spanTrace)
		if err == nil && spanNodes(view)[proxy.id] && spanNodes(view)[owner.id] {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("clustersmoke: assembled trace %s missing spans (err %v, view %+v): want nodes %s and %s",
				spanTrace, err, view, proxy.id, owner.id)
		}
		time.Sleep(100 * time.Millisecond)
	}
	spans := make(map[string]client.Span, len(view.Spans))
	for _, sp := range view.Spans {
		if sp.TraceID != spanTrace {
			log.Fatalf("clustersmoke: assembled trace mixes IDs: %s in view of %s", sp.TraceID, spanTrace)
		}
		spans[sp.SpanID] = sp
	}
	// The owner's server span must hang off the proxy's client span,
	// and every resolvable child must nest inside its parent.
	linked := false
	for _, sp := range view.Spans {
		if sp.Node == owner.id && sp.Name == "http.request" {
			if p, ok := spans[sp.Parent]; ok && p.Node == proxy.id && p.Name == "proxy.forward" {
				linked = true
			}
		}
		if p, ok := spans[sp.Parent]; ok {
			if sp.Start.Before(p.Start) || sp.End.After(p.End) {
				log.Fatalf("clustersmoke: span %s [%s] escapes its parent %s [%s]",
					sp.Name, sp.Node, p.Name, p.Node)
			}
		}
	}
	if !linked {
		log.Fatalf("clustersmoke: owner %s server span not parented under proxy %s client span:\n%s",
			owner.id, proxy.id, view.RenderTree())
	}
	log.Printf("clustersmoke: assembled trace verified via %s (%d spans across %d nodes):\n%s",
		third.id, len(view.Spans), len(spanNodes(view)), view.RenderTree())
}

// spanNodes is the set of fleet node IDs appearing in a trace view.
func spanNodes(view *client.TraceView) map[string]bool {
	out := make(map[string]bool)
	if view == nil {
		return out
	}
	for _, sp := range view.Spans {
		out[sp.Node] = true
	}
	return out
}

func waitHealthy(n *node) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(n.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			log.Fatalf("clustersmoke: %s not healthy after 15s", n.id)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// streamBytes fetches one raw stream body in the selected wire — the
// byte-level transparency check that the SDK's decoder sits above.
func streamBytes(baseURL, jobID, cursor string) []byte {
	url := baseURL + "/v1/jobs/" + jobID + "/batches?batch_size=4"
	if cursor != "" {
		url += "&cursor=" + cursor
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		log.Fatalf("clustersmoke: stream %s: %v", jobID, err)
	}
	if streamWire == wire.WireFrame {
		req.Header.Set("Accept", wire.ContentTypeFrame)
	}
	req.Header.Set(client.TraceHeader, smokeTrace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatalf("clustersmoke: stream %s: %v", jobID, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("clustersmoke: stream %s: %v", jobID, err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("clustersmoke: stream %s: status %d: %s", jobID, resp.StatusCode, body)
	}
	if got := resp.Header.Get(wire.HeaderWire); got != streamWire {
		log.Fatalf("clustersmoke: stream %s negotiated wire %q, want %q", jobID, got, streamWire)
	}
	if verifyTrace {
		if got := resp.Header.Values(client.TraceHeader); len(got) != 1 || got[0] != smokeTrace {
			log.Fatalf("clustersmoke: stream %s via %s returned trace header %v, want exactly one %q",
				jobID, baseURL, got, smokeTrace)
		}
	}
	return body
}

// streamDecoded drains one job's stream through the SDK, validating
// every batch (an in-band error fails the smoke).
func streamDecoded(cli *client.Client, jobID, cursor string) []client.BatchWire {
	st, err := cli.StreamBatches(context.Background(), jobID,
		client.StreamOptions{BatchSize: 4, Cursor: cursor, MaxResumes: -1})
	if err != nil {
		log.Fatalf("clustersmoke: stream %s: %v", jobID, err)
	}
	var out []client.BatchWire
	for {
		b, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			log.Fatalf("clustersmoke: stream %s: %v", jobID, err)
		}
		out = append(out, *b)
	}
}

// checkResume verifies prefix batches of the original stream plus the
// renumbered resumed stream reproduce the original record-for-record.
func checkResume(full, resumed []client.BatchWire, prefixBatches int, jobID string) {
	if len(full) <= prefixBatches {
		log.Fatalf("clustersmoke: %s too small to test resume (%d batches)", jobID, len(full))
	}
	if len(resumed) != len(full)-prefixBatches {
		log.Fatalf("clustersmoke: resume of %s yields %d batches, want %d",
			jobID, len(resumed), len(full)-prefixBatches)
	}
	for i, b := range resumed {
		b.Batch += prefixBatches
		got, _ := json.Marshal(&b)
		want, _ := json.Marshal(&full[prefixBatches+i])
		if string(got) != string(want) {
			log.Fatalf("clustersmoke: batch %d of %s differs after failover:\n got  %s\n want %s",
				prefixBatches+i, jobID, got, want)
		}
	}
}
