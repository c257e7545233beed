// The unified serving-cache arena: one -serve-cache-mb byte budget
// shared by the decoded-shard cache ([]any per shard) and the
// encoded-frame cache (frame-ready payload bytes per shard). Eviction is
// weighted: encoded payloads are cheap to refill from on-store frame
// sidecars (a CRC pass plus a copy), while decoded entries cost a full
// SHA-256 + gunzip + TFRecord walk + codec decode — so under pressure
// the arena sheds frames first, only turning on decoded entries when
// they dominate the budget.
package server

import "sync"

// frameEvictWeight biases eviction toward the frame cache: frames are
// evicted while they hold more than 1/(weight+1) of the resident
// bytes; beyond that the decoded side pays, so a frame-heavy workload
// still keeps a working set of cheap-to-refill payloads.
const frameEvictWeight = 4

// arenaCache is what the arena needs from each member cache; both
// ShardCache instantiations satisfy it.
type arenaCache interface {
	usedBytes() int64
	evictOne() bool
}

// cacheArena couples two caches under one byte budget. rebalance is
// called by a member after every insert; it serializes on its own
// mutex and takes each member's lock only transiently, so members
// never call into the arena while holding their own locks.
type cacheArena struct {
	budget int64
	mu     sync.Mutex
	// frames is evicted preferentially (refillable from sidecars);
	// decoded is the expensive-to-rebuild fallback victim.
	frames  arenaCache
	decoded arenaCache
}

// rebalance evicts LRU entries until both caches together fit the
// budget, preferring frame entries per frameEvictWeight.
func (a *cacheArena) rebalance() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		f, d := a.frames.usedBytes(), a.decoded.usedBytes()
		if f+d <= a.budget {
			return
		}
		if f*frameEvictWeight >= d && a.frames.evictOne() {
			continue
		}
		if a.decoded.evictOne() {
			continue
		}
		if a.frames.evictOne() {
			continue
		}
		return
	}
}
