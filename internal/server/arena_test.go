// Tests for the unified serve-cache arena: one -serve-cache-mb budget
// shared by the NDJSON line cache and the encoded-frame cache, with
// weighted eviction that sheds frame payloads first — they are cheap
// to refill from sidecars — and line entries (the "decoded" side of
// the subtest names: refilling one decodes the shard) only when frames
// alone can't pay.
package server

import (
	"fmt"
	"testing"
)

// stubArenaCache is a minimal arenaCache: a FIFO of entry sizes.
type stubArenaCache struct {
	entries []int64
	evicted int
}

func (s *stubArenaCache) usedBytes() int64 {
	var n int64
	for _, e := range s.entries {
		n += e
	}
	return n
}

func (s *stubArenaCache) evictOne() bool {
	if len(s.entries) == 0 {
		return false
	}
	s.entries = s.entries[1:]
	s.evicted++
	return true
}

func TestArenaRebalance(t *testing.T) {
	t.Run("under budget is untouched", func(t *testing.T) {
		frames := &stubArenaCache{entries: []int64{40, 40}}
		lines := &stubArenaCache{entries: []int64{100}}
		a := &cacheArena{budget: 200, frames: frames, lines: lines}
		a.rebalance()
		if frames.evicted != 0 || lines.evicted != 0 {
			t.Fatalf("evicted %d frames / %d lines under budget", frames.evicted, lines.evicted)
		}
	})
	t.Run("frames are shed first", func(t *testing.T) {
		// Frames dominate: weighted preference evicts only frames until
		// the combined usage fits.
		frames := &stubArenaCache{entries: []int64{100, 100, 100, 100}}
		lines := &stubArenaCache{entries: []int64{100}}
		a := &cacheArena{budget: 300, frames: frames, lines: lines}
		a.rebalance()
		if got := frames.usedBytes() + lines.usedBytes(); got > 300 {
			t.Fatalf("still %d bytes over a 300-byte budget", got)
		}
		if lines.evicted != 0 {
			t.Fatalf("evicted %d line entries while frames could pay", lines.evicted)
		}
		if frames.evicted == 0 {
			t.Fatal("no frame entries evicted")
		}
	})
	t.Run("decoded evicts when frames are already small", func(t *testing.T) {
		// frames*frameEvictWeight < lines: the lines side pays.
		frames := &stubArenaCache{entries: []int64{10}}
		lines := &stubArenaCache{entries: []int64{100, 100, 100}}
		a := &cacheArena{budget: 150, frames: frames, lines: lines}
		a.rebalance()
		if got := frames.usedBytes() + lines.usedBytes(); got > 150 {
			t.Fatalf("still %d bytes over a 150-byte budget", got)
		}
		if lines.evicted == 0 {
			t.Fatal("no line entries evicted")
		}
		if frames.usedBytes() == 0 {
			t.Fatal("small frame side was drained instead of the lines side")
		}
	})
	t.Run("empty decoded falls back to frames", func(t *testing.T) {
		frames := &stubArenaCache{entries: []int64{10, 10, 10, 10}}
		lines := &stubArenaCache{}
		a := &cacheArena{budget: 20, frames: frames, lines: lines}
		a.rebalance()
		if got := frames.usedBytes(); got > 20 {
			t.Fatalf("frames still hold %d bytes over a 20-byte budget", got)
		}
	})
	t.Run("unpayable budget terminates", func(t *testing.T) {
		// Both sides empty but budget zero: rebalance must return, not spin.
		a := &cacheArena{budget: 0, frames: &stubArenaCache{entries: []int64{5}}, lines: &stubArenaCache{}}
		a.rebalance()
		if a.frames.usedBytes() != 0 {
			t.Fatal("lone frame entry not evicted under zero budget")
		}
		a.rebalance() // both empty now; must still terminate
	})
}

// TestArenaSharedBudget wires two real ShardCaches into one arena and
// checks the invariant the flag promises: combined bytes never stay
// above the unified budget after inserts, with frame entries evicted
// preferentially.
func TestArenaSharedBudget(t *testing.T) {
	const budget = 1 << 20
	lines := NewShardCache[[]any](budget)
	frames := NewShardCache[*encodedShard](budget)
	arena := &cacheArena{budget: budget, frames: frames, lines: lines}
	lines.arena, frames.arena = arena, arena

	fill := func(i int) (*encodedShard, int64, error) {
		enc := &encodedShard{payload: make([]byte, 64<<10), offsets: []int64{0, 64 << 10}}
		return enc, enc.memBytes(), nil
	}
	for i := 0; i < 12; i++ {
		if _, err := frames.Get(fmt.Sprintf("f%d", i), func() (*encodedShard, int64, error) { return fill(i) }); err != nil {
			t.Fatal(err)
		}
		if _, err := lines.Get(fmt.Sprintf("d%d", i), func() ([]any, int64, error) {
			return make([]any, 8), 64 << 10, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := frames.usedBytes() + lines.usedBytes(); got > budget {
		t.Fatalf("caches hold %d bytes over the %d-byte shared budget", got, budget)
	}
	fs, ds := frames.Stats(), lines.Stats()
	if fs.Evictions == 0 {
		t.Fatalf("no frame evictions under shared-budget pressure: frames %+v lines %+v", fs, ds)
	}
	if fs.Entries == 0 && ds.Entries == 0 {
		t.Fatal("both caches drained to zero — arena over-evicts")
	}
}
