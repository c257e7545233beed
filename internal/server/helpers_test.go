package server

import (
	"context"
	"time"

	"repro/pkg/client"
)

// SubmitAndWait posts a job spec to a running draid server and polls it
// until done, returning the job ID — a thin wrapper over the pkg/client
// SDK.
func SubmitAndWait(baseURL string, spec JobSpec, timeout time.Duration) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	c := client.New(baseURL, client.WithPollInterval(5*time.Millisecond))
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		return "", err
	}
	done, err := c.WaitDone(ctx, st.ID)
	if err != nil {
		return "", err
	}
	return done.ID, nil
}

// StreamBatches consumes one NDJSON batch stream, validating every
// line, and returns (batches, samples, bytes).
func StreamBatches(url string) (batches, samples, n int64, err error) {
	batches, samples, n, _, err = StreamBatchesFrom(url, "")
	return batches, samples, n, err
}

// StreamBatchesFrom streams like StreamBatches but resumes from the
// given cursor (empty starts at the beginning) and returns the cursor
// after the last batch received — the value a reconnecting client
// passes back to continue the stream.
func StreamBatchesFrom(url, cursor string) (batches, samples, n int64, last string, err error) {
	return streamConsume(url, cursor, client.WireNDJSON)
}

// streamConsume drains one batch stream through the SDK in the given
// wire format, with automatic resume disabled so tests see transport
// failures instead of silent reconnects.
func streamConsume(url, cursor, wire string) (batches, samples, n int64, last string, err error) {
	last = cursor
	st, err := client.OpenStreamURL(context.Background(), nil, url, cursor, wire, -1)
	if err != nil {
		return 0, 0, 0, last, err
	}
	defer st.Close()
	batches, samples, n, err = st.Drain()
	if c := st.Cursor(); c != "" {
		last = c
	}
	return batches, samples, n, last, err
}
