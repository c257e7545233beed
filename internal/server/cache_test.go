package server

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// lineKey and frameKey name one shard's entry for each wire.
func lineKey(shard string) cacheKey  { return cacheKey{wireLines, shard} }
func frameKey(shard string) cacheKey { return cacheKey{wireFrames, shard} }

// sized is a cache loader returning a value charged n bytes.
func sized(val any, n int64) func() (any, int64, error) {
	return func() (any, int64, error) { return val, n, nil }
}

// TestShardCacheDropPrefixDuringLoad pins the eviction-vs-load race: a
// DropPrefix that runs while a matching load is in flight must prevent
// that load's completion from re-inserting the dropped job's data. The
// load is gated on a channel so the interleaving is deterministic.
func TestShardCacheDropPrefixDuringLoad(t *testing.T) {
	c := NewShardCache(1 << 20)

	started := make(chan struct{})
	release := make(chan struct{})
	got := make(chan error, 1)
	go func() {
		_, err := c.Get(lineKey("job1/shard-0"), nil, func() (any, int64, error) {
			close(started)
			<-release
			return "deleted-job-data", 10, nil
		})
		got <- err
	}()

	<-started
	c.DropPrefix("job1/")
	close(release)
	if err := <-got; err != nil {
		t.Fatalf("Get: %v", err)
	}

	cs := c.Stats(wireLines)
	if cs.Entries != 0 {
		t.Fatalf("load completed after DropPrefix resurrected the entry: %+v", cs)
	}

	// A load that starts after the DropPrefix sees the new generation and
	// must insert normally.
	if _, err := c.Get(lineKey("job1/shard-0"), nil, sized("fresh", 10)); err != nil {
		t.Fatalf("Get after drop: %v", err)
	}
	if cs := c.Stats(wireLines); cs.Entries != 1 {
		t.Fatalf("post-drop load did not cache: %+v", cs)
	}
}

// TestShardCacheDropPrefixScoped checks that an in-flight load whose key
// does NOT match the dropped prefix still inserts.
func TestShardCacheDropPrefixScoped(t *testing.T) {
	c := NewShardCache(1 << 20)

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.Get(frameKey("job2/shard-0"), nil, func() (any, int64, error) {
			close(started)
			<-release
			return "other-job", 10, nil
		}); err != nil {
			t.Errorf("Get: %v", err)
		}
	}()

	<-started
	c.DropPrefix("job1/")
	close(release)
	<-done

	if cs := c.Stats(wireFrames); cs.Entries != 1 {
		t.Fatalf("unrelated DropPrefix suppressed insert: %+v", cs)
	}
}

// TestShardCacheDropPrefixRace hammers concurrent Gets of both wires
// against DropPrefix under the race detector and asserts the invariant
// the tombstones exist for: after the final DropPrefix with no loads in
// flight, nothing under the dropped prefix is resident.
func TestShardCacheDropPrefixRace(t *testing.T) {
	c := NewShardCache(1 << 20)

	const (
		workers = 8
		iters   = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := cacheKey{cacheWire(i % int(numWires)), fmt.Sprintf("job%d/shard-%d", w%2, i%4)}
				if _, err := c.Get(key, nil, sized(key.shard, 16)); err != nil {
					t.Errorf("Get %v: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			c.DropPrefix("job0/")
		}
	}()
	wg.Wait()

	c.DropPrefix("job0/")
	for key := range c.entries {
		if len(key.shard) >= 5 && key.shard[:5] == "job0/" {
			t.Fatalf("dropped key %v resurrected", key)
		}
	}
	if c.Stats(wireLines).Invalidations+c.Stats(wireFrames).Invalidations == 0 {
		t.Fatal("no invalidations recorded")
	}
}

// TestShardCacheSingleflight checks concurrent misses on one key run the
// loader once and share the result.
func TestShardCacheSingleflight(t *testing.T) {
	c := NewShardCache(1 << 20)

	var mu sync.Mutex
	loads := 0
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get(frameKey("job/shard"), nil, func() (any, int64, error) {
				mu.Lock()
				loads++
				mu.Unlock()
				<-release
				return "v", 8, nil
			})
			if err != nil || v != "v" {
				t.Errorf("Get: %v %v", v, err)
			}
		}()
	}
	// Let the goroutines pile up on the inflight entry, then release.
	for {
		c.mu.Lock()
		n := len(c.loads)
		c.mu.Unlock()
		if n == 1 {
			break
		}
	}
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
}

// TestShardCacheMissHookHoldsNoLoad checks that a reader blocked in its
// miss hook (a batch stream sending to a client that is not reading)
// has claimed no load: a concurrent Get of the same key loads and
// returns while the hook is still blocked.
func TestShardCacheMissHookHoldsNoLoad(t *testing.T) {
	c := NewShardCache(1 << 20)
	key := frameKey("job/shard")

	inHook, release := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := c.Get(key, func() {
			close(inHook)
			<-release
		}, sized("first", 8))
		first <- err
	}()
	<-inHook

	second := make(chan error, 1)
	go func() {
		v, err := c.Get(key, nil, sized("second", 8))
		if err == nil && v != "second" {
			err = fmt.Errorf("got %v, want the second reader's load", v)
		}
		second <- err
	}()
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("concurrent Get: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent Get waited on a reader blocked in its miss hook")
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("hooked Get: %v", err)
	}
	if cs := c.Stats(wireFrames); cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("stats %+v, want 1 miss (the load) and 1 hit (the hooked reader's retry)", cs)
	}
}

// TestArenaSharedBudget checks the invariant -serve-cache-mb promises:
// shards encoded for either wire draw from one budget in one recency
// order. Filling past the budget evicts the least recently served entry
// whatever its wire, a hit protects an entry of either wire, and the
// resident bytes never stay above the budget.
func TestArenaSharedBudget(t *testing.T) {
	const budget, entry = 1 << 20, 64 << 10
	c := NewShardCache(budget)
	for i := 0; i < 12; i++ {
		if _, err := c.Get(frameKey(fmt.Sprintf("j/f%d", i)), nil, sized(i, entry)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(lineKey(fmt.Sprintf("j/l%d", i)), nil, sized(i, entry)); err != nil {
			t.Fatal(err)
		}
		if i == 6 {
			// 14 of 16 slots are full: a hit moves the oldest line
			// entry ahead of every other entry of either wire.
			if _, err := c.Get(lineKey("j/l0"), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs, ls := c.Stats(wireFrames), c.Stats(wireLines)
	if got := fs.Bytes + ls.Bytes; got > budget {
		t.Fatalf("wires hold %d bytes over the %d-byte shared budget", got, budget)
	}
	if fs.Entries+ls.Entries != budget/entry {
		t.Fatalf("%d frame + %d line entries resident, want %d together", fs.Entries, ls.Entries, budget/entry)
	}
	// 24 inserts into 16 slots: the 8 least recently served go —
	// f0 f1 l1 f2 l2 f3 l3 f4, l0 being spared by its hit.
	if fs.Evictions != 5 || ls.Evictions != 3 {
		t.Fatalf("evictions: %d frame, %d line; want 5 and 3", fs.Evictions, ls.Evictions)
	}
	if fs.MaxBytes != budget || ls.MaxBytes != budget {
		t.Fatalf("MaxBytes %d/%d, want the shared %d", fs.MaxBytes, ls.MaxBytes, budget)
	}
	for _, k := range []cacheKey{lineKey("j/l0"), frameKey("j/f11"), lineKey("j/l11")} {
		if _, ok := c.entries[k]; !ok {
			t.Fatalf("recently served %v was evicted", k)
		}
	}
	if _, ok := c.entries[frameKey("j/f0")]; ok {
		t.Fatal("least recently served frame entry survived")
	}
}

// TestShardCacheScanResistance: at full budget, a hot key set read a
// few times survives a one-pass scan of cold keys worth 4× the budget.
// Plain LRU would evict every hot entry; admission keeps each cold load
// out, because its key has been read less often than the LRU victim's.
func TestShardCacheScanResistance(t *testing.T) {
	const budget, entry = 1 << 20, 64 << 10
	c := NewShardCache(budget)
	hot := budget / entry
	for round := 0; round < 3; round++ {
		for i := 0; i < hot; i++ {
			if _, err := c.Get(frameKey(fmt.Sprintf("hot/s%d", i)), nil, sized(i, entry)); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan := 4 * hot
	for i := 0; i < scan; i++ {
		if _, err := c.Get(frameKey(fmt.Sprintf("cold/s%d", i)), nil, sized(i, entry)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < hot; i++ {
		if _, ok := c.entries[frameKey(fmt.Sprintf("hot/s%d", i))]; !ok {
			t.Fatalf("hot key %d was flushed by the scan", i)
		}
	}
	st := c.Stats(wireFrames)
	if st.Rejections != int64(scan) || st.Evictions != 0 || st.Bytes != budget {
		t.Fatalf("after the scan: %+v, want %d rejections, 0 evictions, %d bytes", st, scan, budget)
	}
}

// TestShardCacheFrequencyBounded: the frequency table ages as it
// counts, so a stream of distinct keys worth 100× the budget leaves it
// holding at most a fixed multiple of the resident entries — at every
// point of the stream, not just at the end.
func TestShardCacheFrequencyBounded(t *testing.T) {
	const budget, entry = 1 << 20, 64 << 10
	c := NewShardCache(budget)
	peak := 0
	for i := 0; i < 100*budget/entry; i++ {
		key := cacheKey{cacheWire(i % int(numWires)), fmt.Sprintf("j/s%d", i)}
		if _, err := c.Get(key, nil, sized(i, entry)); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, len(c.freq))
	}
	resident := len(c.entries)
	if resident != budget/entry {
		t.Fatalf("%d entries resident, want %d", resident, budget/entry)
	}
	// Counts sum to at most 2 × agingTouches × resident just before an
	// aging, and every slot holds a count of at least 1.
	if limit := 2 * agingTouches * resident; peak > limit {
		t.Fatalf("frequency table reached %d slots for %d resident entries (limit %d)", peak, resident, limit)
	}
}
