// fusion_disruption reproduces the DIII-D-style disruption-prediction
// data preparation — served. A draid server runs in-process; the
// pkg/client SDK submits the fusion archetype job, follows its
// readiness trajectory, and streams the prepared windows over the
// negotiated binary frame wire (zero per-float JSON cost) straight
// into a small kNN disruption classifier — the "ready-to-train" proof,
// consumed the way a remote trainer would consume it. The curation-
// time accounting the paper quotes ("70% of time on data curation")
// closes the loop.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/label"
	"repro/internal/server"
	"repro/pkg/client"
)

func main() {
	log.SetFlags(0)

	// A real draid service, in-process.
	srv, err := server.New(server.Options{Workers: 2, ServeCacheBytes: 32 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cli := client.New(ts.URL)

	// Submit the fusion archetype job: a 24-shot synthetic campaign,
	// windowed, labeled, and sharded to TFRecords server-side.
	st, err := cli.SubmitJob(ctx, client.JobSpec{Domain: core.Fusion, Name: "campaign", Shots: 24, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	done, err := cli.WaitDone(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s: %d windows in %d shards, wire kind %q (formats %v)\n",
		done.ID, done.Records, done.Shards, done.Kind, done.Wires)
	fmt.Println("readiness trajectory:")
	for _, p := range done.Trajectory {
		fmt.Printf("  after %-18s (%-10s) -> %s\n", p.Stage, p.Kind, p.LevelName)
	}

	// Stream the windows. The SDK negotiates the binary frame wire and
	// falls back to NDJSON against servers that predate it.
	stream, err := cli.StreamBatches(ctx, done.ID, client.StreamOptions{BatchSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	var features [][]float64
	var labels []int
	disrupted := 0
	for {
		b, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		for i, sig := range b.Signals {
			// Compact summary features per window.
			minV, maxV, sum := sig[0], sig[0], float64(0)
			for _, v := range sig {
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
				sum += float64(v)
			}
			features = append(features, []float64{float64(minV), float64(maxV), sum / float64(len(sig))})
			labels = append(labels, int(b.Labels[i]))
			disrupted += int(b.Labels[i])
		}
	}
	fmt.Printf("\nstreamed %d windows over the %q wire (%d bytes, %.1f%% disruption-positive)\n",
		len(features), stream.Wire(), stream.Bytes(), 100*float64(disrupted)/float64(len(features)))

	// Train a quick kNN disruption detector on the streamed windows —
	// the data arrives genuinely ready-to-train.
	knn := label.NewKNN(5)
	if err := knn.Fit(features, labels); err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i := range features {
		if c, _ := knn.Predict(features[i]); c == labels[i] {
			correct++
		}
	}
	fmt.Printf("kNN self-fit accuracy on streamed windows: %.1f%% (%d windows)\n",
		100*float64(correct)/float64(len(features)), len(features))

	// The curation-time experiment (paper §3.2).
	fmt.Println()
	cur, err := experiments.RunCuration(8, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cur.Render())
}
