// LRU shard cache for the serving tier. Serving a shard means
// verifying its SHA-256, inflating gzip, walking TFRecord frames,
// decoding every record through the domain codec and encoding it for
// the wire — work worth doing once per shard, not once per reader. The
// cache keys encoded shard contents by (job, shard) and evicts least-
// recently-served entries when the configured byte budget is exceeded,
// so many concurrent streaming clients share one encode. Values are
// opaque to the cache — the loader that produced one also reports its
// in-memory size, which is what the byte budget accounts — so the same
// structure backs both the NDJSON line cache (per-record JSON fragments
// per shard) and the encoded-frame cache (frame-ready payload bytes
// per shard).
package server

import (
	"container/list"
	"strings"
	"sync"
)

// shardEntry is one cached shard value.
type shardEntry[V any] struct {
	key   string
	val   V
	bytes int64
	elem  *list.Element
}

// inflight coalesces concurrent loads of the same shard (singleflight):
// the first reader loads, the rest wait on done. gen snapshots the
// cache generation when the load began, so an insert that completes
// after a DropPrefix covering its key is discarded instead of
// resurrecting an evicted job's data.
type inflight[V any] struct {
	done  chan struct{}
	val   V
	bytes int64
	err   error
	gen   int64
}

// tombstone records one DropPrefix while loads were in flight: any load
// that started before gen and matches prefix must not insert.
type tombstone struct {
	prefix string
	gen    int64
}

// ShardCache is a byte-budgeted LRU over per-shard values, safe for
// concurrent use.
type ShardCache[V any] struct {
	mu      sync.Mutex
	max     int64
	size    int64
	entries map[string]*shardEntry[V]
	lru     *list.List // front = most recently used; values are *shardEntry[V]
	loads   map[string]*inflight[V]

	// gen increments at every DropPrefix; tombs holds the prefixes
	// dropped while loads were in flight (cleared when the last load
	// drains — tombstones only matter to loads that overlapped them).
	gen   int64
	tombs []tombstone

	// arena, when set, couples this cache with its sibling under one
	// shared byte budget: after every insert the arena rebalances both
	// caches back under the joint budget (weighted eviction), replacing
	// the independent per-cache ceilings.
	arena *cacheArena

	hits, misses, evictions, invalidations int64
}

// NewShardCache returns a cache that holds at most maxBytes of loaded
// shard data. maxBytes <= 0 disables caching (every read loads, though
// concurrent loads of one key still coalesce).
func NewShardCache[V any](maxBytes int64) *ShardCache[V] {
	return &ShardCache[V]{
		max:     maxBytes,
		entries: make(map[string]*shardEntry[V]),
		lru:     list.New(),
		loads:   make(map[string]*inflight[V]),
	}
}

// Get returns the cached value for key, loading it via load on a miss.
// Concurrent misses on one key run load once and share the result. The
// returned value is shared — callers must not mutate it.
func (c *ShardCache[V]) Get(key string, load func() (V, int64, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits++
		val := e.val
		c.mu.Unlock()
		return val, nil
	}
	if fl, ok := c.loads[key]; ok {
		// Another reader is loading this shard; wait for it.
		c.mu.Unlock()
		<-fl.done
		return fl.val, fl.err
	}
	fl := &inflight[V]{done: make(chan struct{}), gen: c.gen}
	c.loads[key] = fl
	c.misses++
	c.mu.Unlock()

	fl.val, fl.bytes, fl.err = load()
	close(fl.done)

	c.mu.Lock()
	delete(c.loads, key)
	// A DropPrefix that ran while this load was in flight tombstoned the
	// key's prefix: inserting now would resurrect a deleted job's data
	// into the cache, to be served forever after. Drop the insert; the
	// waiters above still get this load's result, which is the same
	// contract as reading the shard uncached mid-eviction.
	if fl.err == nil && c.max > 0 && !c.droppedSince(key, fl.gen) {
		c.insert(key, fl.val, fl.bytes)
	}
	if len(c.loads) == 0 {
		c.tombs = nil
	}
	arena := c.arena
	c.mu.Unlock()
	if arena != nil && fl.err == nil {
		// Outside c.mu: rebalance locks the arena and then each member
		// cache in turn, so no lock is ever taken while holding c.mu.
		arena.rebalance()
	}
	return fl.val, fl.err
}

// usedBytes reports the cache's current resident size (arena hook).
func (c *ShardCache[V]) usedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// evictOne removes the least-recently-used entry, reporting whether
// there was one to evict (arena hook).
func (c *ShardCache[V]) evictOne() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	tail := c.lru.Back()
	if tail == nil {
		return false
	}
	victim := tail.Value.(*shardEntry[V])
	c.lru.Remove(tail)
	delete(c.entries, victim.key)
	c.size -= victim.bytes
	c.evictions++
	return true
}

// droppedSince reports whether a DropPrefix covering key ran after a
// load that began at generation gen. Caller holds c.mu.
func (c *ShardCache[V]) droppedSince(key string, gen int64) bool {
	for _, t := range c.tombs {
		if t.gen > gen && strings.HasPrefix(key, t.prefix) {
			return true
		}
	}
	return false
}

// insert adds an entry and evicts from the LRU tail until within budget.
// Caller holds c.mu.
func (c *ShardCache[V]) insert(key string, val V, bytes int64) {
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &shardEntry[V]{key: key, val: val, bytes: bytes}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.size += bytes
	for c.size > c.max && c.lru.Len() > 1 {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		victim := tail.Value.(*shardEntry[V])
		c.lru.Remove(tail)
		delete(c.entries, victim.key)
		c.size -= victim.bytes
		c.evictions++
	}
}

// DropPrefix removes every cached shard whose key starts with prefix —
// the invalidation hook that frees a deleted job's cached shards
// without waiting for LRU pressure. Loads of matching keys already in
// flight are tombstoned so their completion cannot re-insert the
// deleted data. Removals count as invalidations, not evictions: they
// are correctness-driven, not budget-driven.
func (c *ShardCache[V]) DropPrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if len(c.loads) > 0 {
		c.tombs = append(c.tombs, tombstone{prefix: prefix, gen: c.gen})
	}
	for key, e := range c.entries {
		if strings.HasPrefix(key, prefix) {
			c.lru.Remove(e.elem)
			delete(c.entries, key)
			c.size -= e.bytes
			c.invalidations++
		}
	}
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	// Evictions counts entries removed by byte-budget pressure;
	// Invalidations counts entries removed by DropPrefix (job eviction
	// or release). They are distinct so dashboards can tell "cache too
	// small" from "jobs churning".
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// Stats snapshots the cache counters.
func (c *ShardCache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       len(c.entries),
		Bytes:         c.size,
		MaxBytes:      c.max,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}
