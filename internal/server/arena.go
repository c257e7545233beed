// The unified serving-cache arena: one -serve-cache-mb byte budget
// shared by the NDJSON line cache (per-record JSON fragments per
// shard) and the encoded-frame cache (frame-ready payload bytes per
// shard). Eviction is weighted: frame payloads are cheap to refill
// from on-store frame sidecars (a CRC pass plus a copy), while line
// fragments cost a full SHA-256 + gunzip + TFRecord walk + codec
// decode + JSON encode — so under pressure the arena sheds frames
// first, only turning on line entries when they dominate the budget.
package server

import "sync"

// frameEvictWeight biases eviction toward the frame cache: frames are
// evicted while they hold more than 1/(weight+1) of the resident
// bytes; beyond that the line side pays, so a frame-heavy workload
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
	// lines is the expensive-to-rebuild fallback victim.
	frames arenaCache
	lines  arenaCache
}

// rebalance evicts LRU entries until both caches together fit the
// budget, preferring frame entries per frameEvictWeight.
func (a *cacheArena) rebalance() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		f, l := a.frames.usedBytes(), a.lines.usedBytes()
		if f+l <= a.budget {
			return
		}
		if f*frameEvictWeight >= l && a.frames.evictOne() {
			continue
		}
		if a.lines.evictOne() {
			continue
		}
		if a.frames.evictOne() {
			continue
		}
		return
	}
}
