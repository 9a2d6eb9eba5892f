// Package evalcache provides the content-addressed evaluation cache of the
// PRIVAPI publication engine: re-publishing a dataset should cost in
// proportion to what changed since the previous publication, not to the
// dataset's size.
//
// The engine (internal/core) keys three kinds of entries into one cache:
//
//   - per-user reference-POI extractions, keyed by a canonical hash of the
//     user's trajectories plus the POI-configuration fingerprint — users
//     whose traces did not change between publications never re-run
//     extraction;
//   - per-trajectory attacker stay-point extractions, keyed by the
//     protected trajectory's content hash — deterministic mechanisms
//     reproduce byte-identical protected output for unchanged input, so
//     the simulated attack skips unchanged trajectories;
//   - whole selection results (scorecard, winner, protected dataset
//     pre-pseudonymisation), keyed by the dataset/shard content hash plus
//     the middleware configuration fingerprint — unchanged shards skip
//     evaluation entirely.
//
// Keys are content-addressed: the same key always maps to the same value,
// so a cache hit is byte-identical to recomputation. A miss recomputes in
// full — the engine never skips work on a guess — so reports and releases
// stay byte-identical between cold and warm runs on any input, changed or
// not. Cached values are immutable and shared: the engine stores what a
// run produced and later runs read it in place, without copying on Put or
// Get. The only copy is made at the release — the dataset and scorecards
// a publication hands its caller.
//
// Cache is an interface so later work can add a persistent backend behind
// the same engine wiring; NewLRU is the first backend: an in-memory,
// mutex-guarded LRU bounded by an approximate byte budget.
package evalcache

import (
	"container/list"
	"sync"
)

// Stats are the cache gauges.
type Stats struct {
	// Entries is the number of live cache entries.
	Entries int `json:"entries"`
	// Bytes is the approximate retained size (sum of entry costs).
	Bytes int64 `json:"bytes"`
	// Hits and Misses count Get outcomes over the cache's lifetime.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped to keep Bytes under the bound
	// (entries larger than the whole bound count as an immediate eviction).
	Evictions int64 `json:"evictions"`
	// Pruned is always 0: nothing skips a strategy evaluation.
	//
	// Deprecated: kept only because the benchmark harness (bench/sut.go)
	// reads it; it goes when that reader does.
	Pruned int64 `json:"pruned"`
}

// Cache is the evaluation cache the engine threads through publication.
// Implementations must be safe for concurrent use: the engine calls it
// from every strategy and shard worker, and several middlewares may share
// one cache.
//
// Values are stored as opaque Go values and treated as immutable by
// contract. Cost is the caller's estimate of the value's retained bytes;
// backends use it to enforce their memory bound.
type Cache interface {
	// Get returns the value stored under key, if any.
	Get(key string) (any, bool)
	// Put stores value under key at the given cost, replacing any previous
	// entry. Backends may decline to store (e.g. cost exceeds the bound).
	Put(key string, value any, cost int64)
	// Stats snapshots the gauges.
	Stats() Stats
}

// DefaultMaxBytes is the byte bound NewLRU applies when given a
// non-positive bound: 256 MiB, enough for tens of medium shard selections
// while keeping a clearly bounded footprint.
const DefaultMaxBytes = 256 << 20

// LRU is the in-memory cache backend: least-recently-used eviction under
// an approximate byte bound. All methods are safe for concurrent use.
type LRU struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	order    *list.List // front = most recently used; elements hold *entry
	entries  map[string]*list.Element

	hits, misses, evictions int64
}

// entry is one cached key/value with its cost estimate.
type entry struct {
	key   string
	value any
	cost  int64
}

var _ Cache = (*LRU)(nil)

// NewLRU creates an LRU cache bounded by approximately maxBytes of stored
// value cost. A non-positive bound selects DefaultMaxBytes.
func NewLRU(maxBytes int64) *LRU {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &LRU{
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Get implements Cache, marking the entry most recently used.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// Put implements Cache. Entries whose cost alone exceeds the byte bound
// are not stored (counted as one eviction): a value that could only live
// alone in the cache would evict everything for a single future hit.
func (c *LRU) Put(key string, value any, cost int64) {
	if cost < 0 {
		cost = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.maxBytes {
		if el, ok := c.entries[key]; ok {
			c.removeLocked(el)
		}
		c.evictions++
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		c.bytes += cost - e.cost
		e.value, e.cost = value, cost
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&entry{key: key, value: value, cost: cost})
		c.bytes += cost
	}
	for c.bytes > c.maxBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// removeLocked unlinks an element; the caller holds c.mu.
func (c *LRU) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.cost
}

// Stats implements Cache.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
