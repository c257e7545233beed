// Bandwidth pacing for batch streams: a token bucket per stream, and
// weighted-fair sharing of one global budget between them. With
// -serve-budget-kbps set, the server holds ONE global byte budget and
// splits it hierarchically: first across the tenants with at least one
// active stream, proportionally to their configured weights, then
// evenly across each tenant's streams. A lone tenant gets the whole
// budget; a second tenant opening a stream instantly halves it (at
// equal weights) — no idle reservation, no per-stream config. Each
// stream's pacer re-reads its fair share on every pace call, so rates
// adapt mid-stream as streams open and close.
package server

import (
	"context"
	"sync"
	"time"
)

// fairShare tracks active streams per tenant and computes each
// stream's current fair rate from the global budget.
type fairShare struct {
	budget float64 // bytes per second, the global pool

	mu      sync.Mutex
	streams map[string]*tenantStreams // tenant ID ("" = unauthenticated) -> live streams
	active  int                       // total active streams, for the gauge
}

type tenantStreams struct {
	weight  int
	streams int
}

func newFairShare(budgetBytes int64) *fairShare {
	return &fairShare{
		budget:  float64(budgetBytes),
		streams: make(map[string]*tenantStreams),
	}
}

// acquire registers one stream for a tenant and returns the stream's
// dynamic rate function plus a release callback for stream end. The
// rate function is safe to call concurrently and reflects the live
// stream population at each call.
func (f *fairShare) acquire(tenantID string, weight int) (rate func() float64, release func()) {
	if weight <= 0 {
		weight = 1
	}
	f.mu.Lock()
	ts := f.streams[tenantID]
	if ts == nil {
		ts = &tenantStreams{}
		f.streams[tenantID] = ts
	}
	// The latest-seen weight wins; weights come from one registry, so
	// concurrent streams of a tenant always agree anyway.
	ts.weight = weight
	ts.streams++
	f.active++
	f.mu.Unlock()

	rate = func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		totalWeight := 0
		for _, t := range f.streams {
			if t.streams > 0 {
				totalWeight += t.weight
			}
		}
		if totalWeight == 0 || ts.streams == 0 {
			return f.budget // released stream draining its last pace call
		}
		tenantShare := f.budget * float64(ts.weight) / float64(totalWeight)
		return tenantShare / float64(ts.streams)
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			f.mu.Lock()
			ts.streams--
			f.active--
			if ts.streams <= 0 {
				delete(f.streams, tenantID)
			}
			f.mu.Unlock()
		})
	}
	return rate, release
}

// activeStreams reports the live stream count (the
// draid_tenant_active_streams gauge).
func (f *fairShare) activeStreams() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.active
}

// pacer is a per-stream token bucket with a small burst so short
// streams are not over-delayed by rounding. Its rate is re-read on
// every pace call: a weighted-fair share moves as streams open and
// close, and the bucket follows without restarting the stream.
type pacer struct {
	rate      func() float64 // bytes per second, > 0
	tokens    float64
	last      time.Time
	throttled bool
}

func newPacer(rate func() float64) *pacer {
	return &pacer{rate: rate, tokens: pacerBurst(rate()), last: time.Now()}
}

// pace charges n bytes against the bucket and sleeps off any deficit,
// calling send first: nothing the stream has buffered waits out the
// sleep. A failed send ends the stream without sleeping. The sleep
// aborts when ctx ends (client disconnect), returning the context's
// error so the caller stops streaming instead of pinning a handler
// goroutine — a huge batch at a tiny rate would otherwise sleep
// unbounded for a reader that may already be gone.
func (p *pacer) pace(ctx context.Context, n int64, send func() error) error {
	rate := p.rate()
	now := time.Now()
	p.tokens = min(p.tokens+now.Sub(p.last).Seconds()*rate, pacerBurst(rate))
	p.last = now
	p.tokens -= float64(n)
	if p.tokens < 0 {
		p.throttled = true
		if err := send(); err != nil {
			return err
		}
		t := time.NewTimer(time.Duration(-p.tokens / rate * float64(time.Second)))
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// pacerBurst is the bucket capacity for a rate: a quarter-second of
// rate, clamped to [4 KiB, 256 KiB], so pacing engages quickly without
// punishing tiny responses.
func pacerBurst(rate float64) float64 {
	burst := rate / 4
	if burst < 4<<10 {
		burst = 4 << 10
	}
	if burst > 256<<10 {
		burst = 256 << 10
	}
	return burst
}
