// Quickstart: raw synthetic climate data → fully AI-ready training
// batches, served. A draid server runs in-process; the pkg/client SDK
// discovers the domain templates, submits a climate job, prints the
// Table 2 readiness trajectory the pipeline walked, and streams
// training batches back over both wire formats — the negotiated binary
// frame protocol and the debuggable NDJSON fallback — proving they
// carry identical records.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/pkg/client"
)

func main() {
	log.SetFlags(0)

	// 1. Run the dataset-readiness service (in-process here; cmd/draid
	// serves the same handler over a real listener).
	srv, err := server.New(server.Options{Workers: 2, ServeCacheBytes: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cli := client.New(ts.URL)

	// 2. Discover what the facility can prepare.
	tpls, err := cli.Templates(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("domain templates:")
	for _, tpl := range tpls {
		fmt.Printf("  %-10s kind=%-17s wires=%v  %s\n", tpl.Domain, tpl.Kind, tpl.Wires, tpl.Description)
	}

	// 3. Submit a climate job and wait for readiness.
	st, err := cli.SubmitJob(ctx, client.JobSpec{Domain: core.Climate, Name: "quickstart", Seed: 1, Months: 24, Lat: 16, Lon: 32})
	if err != nil {
		log.Fatal(err)
	}
	done, err := cli.WaitDone(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\njob %s done: %d records in %d shards\n", done.ID, done.Records, done.Shards)
	fmt.Println("readiness trajectory:")
	for _, p := range done.Trajectory {
		fmt.Printf("  after %-18s (%-10s) -> %s\n", p.Stage, p.Kind, p.LevelName)
	}

	// 4. Consume the batches the way a trainer would — the SDK
	// negotiates the binary frame wire automatically.
	stream, err := cli.StreamBatches(ctx, done.ID, client.StreamOptions{BatchSize: 8})
	if err != nil {
		log.Fatal(err)
	}
	batches, samples := 0, 0
	for {
		b, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		batches++
		samples += b.Count()
	}
	fmt.Printf("\ntrainer consumed %d batches (%d samples) over the %q wire, %d bytes\n",
		batches, samples, stream.Wire(), stream.Bytes())

	// 5. The same stream in NDJSON (curl-friendly) carries the same
	// records — frames just carry them cheaper.
	nd, err := cli.StreamBatches(ctx, done.ID, client.StreamOptions{BatchSize: 8, Wire: client.WireNDJSON})
	if err != nil {
		log.Fatal(err)
	}
	ndBatches, ndSamples := 0, 0
	for {
		b, err := nd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		ndBatches++
		ndSamples += b.Count()
	}
	if ndBatches != batches || ndSamples != samples {
		log.Fatalf("wire formats disagree: %d/%d batches, %d/%d samples", batches, ndBatches, samples, ndSamples)
	}
	fmt.Printf("NDJSON fallback streams the identical %d batches in %d bytes (%.1fx the frame size)\n",
		ndBatches, nd.Bytes(), float64(nd.Bytes())/float64(stream.Bytes()))

	// 6. Provenance: the full lineage DAG rides the API too.
	prov, err := cli.Provenance(ctx, done.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprovenance document: %d bytes of lineage DAG\n", len(prov))
}
