package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/pkg/client"
)

// verify is the correctness and durability check after the window. The
// server is closed and reopened on the same data directory (the time
// server.New takes to replay it is server.replay_ms: one sample, or in
// a traced run the median of as many as there were set-ups), then every
// corpus job is re-scanned over both wires and compared record for
// record to the digests the set-up took: a job the log replay lost, a
// shard that did not survive the restart, a wire that decodes
// differently, a wrong count or final cursor each count as a failed
// operation.
func (e *env) verify(ctx context.Context, res *result) (replayMs float64) {
	reopens := 1
	if e.rec != nil {
		reopens = res.cfg.reps
	}
	var samples []float64
	for i := 0; i < reopens; i++ {
		e.stop()
		if err := e.start(); err != nil {
			res.attempted++
			res.fail("reopen on %s: %v", e.dir, err)
			return 0
		}
		samples = append(samples, e.newMs)
	}
	var mu sync.Mutex
	// Every job is checked whatever happened to the others, so failures
	// are recorded, not returned.
	_ = shareJobs(len(e.corpus), func(c, i int) error {
		for _, wire := range []string{client.WireFrame, client.WireNDJSON} {
			err := e.rescan(ctx, c, e.corpus[i], wire)
			mu.Lock()
			res.attempted++
			if err != nil {
				res.fail("verify %s over %s: %v", e.corpus[i].id, wire, err)
			}
			mu.Unlock()
		}
		return nil
	})
	return median(samples)
}

func (e *env) rescan(ctx context.Context, c int, j *corpusJob, wire string) error {
	st, err := e.cs[c].Job(ctx, j.id)
	if err != nil {
		return err
	}
	if st.State != client.JobDone || st.Shards != j.shards || st.Records != j.statusRecords {
		return fmt.Errorf("after restart: state %s, %d shards, %d records; before: done, %d, %d",
			st.State, st.Shards, st.Records, j.shards, j.statusRecords)
	}
	digests := make([]uint64, 0, len(j.digests))
	ss, err := runStream(ctx, e.cs[c], j.id, client.StreamOptions{BatchSize: scanBatch, Wire: wire},
		func(w *client.BatchWire, _ time.Time) { digests = appendDigests(digests, w) })
	if err != nil {
		return err
	}
	if ss.records != j.records || ss.cursor != endCursor(j.shards) {
		return fmt.Errorf("%d records ending at %q, want %d ending at %q", ss.records, ss.cursor, j.records, endCursor(j.shards))
	}
	for i, d := range digests {
		if d != j.digests[i] {
			return fmt.Errorf("record %d differs from the set-up reference", i)
		}
	}
	return nil
}
