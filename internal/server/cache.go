// The serving cache: one byte-budgeted LRU over encoded shards, shared
// by both wires, with frequency-based admission. Serving a shard means
// verifying its SHA-256, inflating gzip, walking TFRecord frames,
// decoding every record and encoding it for the wire — or, for frames,
// reading and CRC-checking its sidecar — work worth doing once per
// shard, not once per reader. An entry is one shard encoded for one
// wire: NDJSON line fragments (*domain.LineFragments) or a verified
// sidecar image (*domain.Sidecar), keyed by (wire, job/shard). Both
// kinds share the -serve-cache-mb budget and one recency order: the
// entry served least recently is evicted first, whichever wire it
// serves. The loader that produced a value reports its in-memory size,
// which is what the budget accounts; counters are kept per wire for
// /metrics.
//
// Admission is TinyLFU's (Einziger, Friedman & Manes, arXiv:1512.00727):
// every Get counts a touch of its key in a frequency table, and a load
// that would evict is inserted only if its key has been touched at
// least as often as each LRU victim's. A one-pass scan of cold shards
// then cannot flush a hot working set, while ties admit — so a cache
// with room, or traffic without skew, behaves exactly like plain LRU.
// The table is keyed by a 64-bit hash (it holds no key strings) and is
// aged by halving every count, dropping the zeros, once every 10 ×
// resident-entries touches, which bounds it to a small multiple of the
// resident entries without a tunable.
package server

import (
	"container/list"
	"hash/maphash"
	"strings"
	"sync"
)

// cacheWire names the wire encoding an entry holds.
type cacheWire int

const (
	wireLines  cacheWire = iota // NDJSON line fragments
	wireFrames                  // frame-ready payload bytes
	numWires
)

// cacheKey is one shard ("<job>/<shard>") encoded for one wire.
type cacheKey struct {
	wire  cacheWire
	shard string
}

// cacheEntry is one cached shard value.
type cacheEntry struct {
	key   cacheKey
	hash  uint64 // the key's frequency-table slot
	val   any
	bytes int64
	elem  *list.Element
}

// agingTouches is how many touches per resident entry pass between two
// halvings of the frequency table.
const agingTouches = 10

// inflight coalesces concurrent loads of the same key (singleflight):
// the first reader loads, the rest wait on done. gen snapshots the
// cache generation when the load began, so an insert that completes
// after a DropPrefix covering its key is discarded instead of
// resurrecting an evicted job's data.
type inflight struct {
	done  chan struct{}
	val   any
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

// ShardCache is the byte-budgeted LRU over encoded shards, safe for
// concurrent use.
type ShardCache struct {
	mu      sync.Mutex
	max     int64
	size    int64
	entries map[cacheKey]*cacheEntry
	lru     *list.List // front = most recently used; values are *cacheEntry
	loads   map[cacheKey]*inflight

	// gen increments at every DropPrefix; tombs holds the prefixes
	// dropped while loads were in flight (cleared when the last load
	// drains — tombstones only matter to loads that overlapped them).
	gen   int64
	tombs []tombstone

	// freq counts touches per key hash since the last aging; touches
	// counts them all, and at agingTouches × resident entries every
	// count is halved.
	seed    maphash.Seed
	freq    map[uint64]uint32
	touches int

	wires [numWires]CacheStats // per-wire counters; MaxBytes is filled by Stats
}

// NewShardCache returns a cache that holds at most maxBytes of encoded
// shards. maxBytes <= 0 retains nothing: every read loads, though
// concurrent loads of one key still coalesce.
func NewShardCache(maxBytes int64) *ShardCache {
	return &ShardCache{
		max:     maxBytes,
		entries: make(map[cacheKey]*cacheEntry),
		lru:     list.New(),
		loads:   make(map[cacheKey]*inflight),
		seed:    maphash.MakeSeed(),
		freq:    make(map[uint64]uint32),
	}
}

// hash returns key's frequency-table slot.
func (c *ShardCache) hash(key cacheKey) uint64 {
	return maphash.String(c.seed, key.shard) ^ uint64(key.wire)*0x9e3779b97f4a7c15
}

// touch counts one read of the key hashed to h, and ages the table
// once it has seen agingTouches touches per resident entry. A cache
// that retains nothing never admits, so it counts nothing. Caller
// holds c.mu.
func (c *ShardCache) touch(h uint64) {
	if c.max <= 0 {
		return
	}
	c.freq[h]++
	if c.touches++; c.touches < agingTouches*max(len(c.entries), 1) {
		return
	}
	c.touches = 0
	for k, n := range c.freq {
		if n /= 2; n == 0 {
			delete(c.freq, k)
		} else {
			c.freq[k] = n
		}
	}
}

// Get returns the cached value for key, loading it via load on a miss.
// Concurrent misses on one key run load once and share the result. On a
// miss, Get first calls miss (when non-nil) with no load claimed and no
// lock held — a batch stream sends what it has buffered there, so none
// of it waits behind a load — then looks the key up again. A load, once
// claimed, runs at once, so a reader that blocks in miss delays no other
// reader of the key. The returned value is shared — callers must not
// mutate it.
func (c *ShardCache) Get(key cacheKey, miss func(), load func() (any, int64, error)) (any, error) {
	h := c.hash(key)
	c.mu.Lock()
	c.touch(h)
	for {
		if e, ok := c.entries[key]; ok {
			c.lru.MoveToFront(e.elem)
			c.wires[key.wire].Hits++
			val := e.val
			c.mu.Unlock()
			return val, nil
		}
		if miss == nil {
			break
		}
		c.mu.Unlock()
		miss()
		miss = nil
		c.mu.Lock()
	}
	if fl, ok := c.loads[key]; ok {
		// Another reader is loading this shard; wait for it.
		c.mu.Unlock()
		<-fl.done
		return fl.val, fl.err
	}
	fl := &inflight{done: make(chan struct{}), gen: c.gen}
	c.loads[key] = fl
	c.wires[key.wire].Misses++
	c.mu.Unlock()

	fl.val, fl.bytes, fl.err = load()
	close(fl.done)

	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.loads, key)
	// A DropPrefix that ran while this load was in flight tombstoned the
	// key's prefix: inserting now would resurrect a deleted job's data
	// into the cache, to be served forever after. Drop the insert; the
	// waiters above still get this load's result, which is the same
	// contract as reading the shard uncached mid-eviction.
	if fl.err == nil && c.max > 0 && !c.droppedSince(key.shard, fl.gen) {
		c.insert(key, h, fl.val, fl.bytes)
	}
	if len(c.loads) == 0 {
		c.tombs = nil
	}
	return fl.val, fl.err
}

// droppedSince reports whether a DropPrefix covering shard ran after a
// load that began at generation gen. Caller holds c.mu.
func (c *ShardCache) droppedSince(shard string, gen int64) bool {
	for _, t := range c.tombs {
		if t.gen > gen && strings.HasPrefix(shard, t.prefix) {
			return true
		}
	}
	return false
}

// insert adds an entry and evicts from the LRU tail until within
// budget; an entry larger than the whole budget stays until the next
// insert. An insert that would evict is first put to admission: it is
// refused, and counted as a rejection, if its key has been touched
// less often than any of the LRU victims it would evict. Caller holds
// c.mu.
func (c *ShardCache) insert(key cacheKey, h uint64, val any, bytes int64) {
	if _, ok := c.entries[key]; ok {
		return
	}
	need := c.size + bytes - c.max
	for el := c.lru.Back(); el != nil && need > 0; el = el.Prev() {
		victim := el.Value.(*cacheEntry)
		if c.freq[h] < c.freq[victim.hash] {
			c.wires[key.wire].Rejections++
			return
		}
		need -= victim.bytes
	}
	e := &cacheEntry{key: key, hash: h, val: val, bytes: bytes}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.size += bytes
	c.wires[key.wire].Entries++
	c.wires[key.wire].Bytes += bytes
	for c.size > c.max && c.lru.Len() > 1 {
		victim := c.lru.Back().Value.(*cacheEntry)
		c.remove(victim)
		c.wires[victim.key.wire].Evictions++
	}
}

// remove unlinks e and takes it off the budget. Caller holds c.mu.
func (c *ShardCache) remove(e *cacheEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.size -= e.bytes
	c.wires[e.key.wire].Entries--
	c.wires[e.key.wire].Bytes -= e.bytes
}

// DropPrefix removes every cached shard, of either wire, whose
// "<job>/<shard>" starts with prefix — the invalidation hook that frees
// a deleted job's cached shards without waiting for LRU pressure. Loads
// of matching keys already in flight are tombstoned so their completion
// cannot re-insert the deleted data. Removals count as invalidations,
// not evictions: they are correctness-driven, not budget-driven.
func (c *ShardCache) DropPrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if len(c.loads) > 0 {
		c.tombs = append(c.tombs, tombstone{prefix: prefix, gen: c.gen})
	}
	for key, e := range c.entries {
		if strings.HasPrefix(key.shard, prefix) {
			c.remove(e)
			c.wires[key.wire].Invalidations++
		}
	}
}

// CacheStats is a point-in-time view of one wire's share of the cache.
type CacheStats struct {
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"` // the budget both wires share
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	// Evictions counts entries removed by byte-budget pressure;
	// Invalidations counts entries removed by DropPrefix (job eviction
	// or release). They are distinct so dashboards can tell "cache too
	// small" from "jobs churning".
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// Rejections counts loads admission kept out of a full cache: the
	// key had been read less often than an entry it would evict. A
	// rejected load is served, then dropped; it is not an eviction.
	Rejections int64 `json:"rejections"`
}

// Stats snapshots one wire's counters.
func (c *ShardCache) Stats(w cacheWire) CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.wires[w]
	st.MaxBytes = c.max
	return st
}
