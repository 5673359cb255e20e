package parallel

import (
	"sync"
	"sync/atomic"
)

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	// Shared counts misses that were served by another goroutine's
	// compute instead of running the loader again (the singleflight
	// dedup; see GetOrCompute). Misses - Shared is therefore the number
	// of loader executions.
	Shared uint64
}

// Policy selects a shard's replacement policy. The shell (sharding, hash,
// counters, singleflight) is identical across policies; only what each
// shard evicts differs. Each cache's policy is a constant at its
// construction site, chosen from the traffic mixes in
// policy_mix_test.go, not taste: TestTwoQBeatsLRUOnScanMixes is why
// serve's negative cache is 2Q.
type Policy string

const (
	// PolicyLRU evicts the least-recently-used entry — the right choice
	// when the working set fits and recency predicts reuse.
	PolicyLRU Policy = "lru"
	// Policy2Q is the 2Q algorithm: new keys enter a small FIFO probation
	// queue (A1in) and are promoted to the main LRU (Am) only when
	// re-referenced after falling into the ghost queue (A1out). One-shot
	// scan keys churn through A1in without ever displacing the hot
	// working set in Am.
	Policy2Q Policy = "2q"
)

// cachePolicy is one shard's replacement policy. Implementations are not
// thread-safe: the owning shard's mutex serializes every call. A get hit
// must not allocate (the shell promises a zero-alloc hit path); put may.
type cachePolicy[K comparable, V any] interface {
	// get returns the value and promotes the entry per the policy.
	get(key K) (V, bool)
	// put inserts or refreshes an entry, reporting how many live entries
	// (entries whose values were still cached) it evicted to make room.
	put(key K, v V) (evicted int)
	// len is the number of live entries (ghost/bookkeeping entries that
	// hold no value do not count).
	len() int
	// purge drops every entry, live and ghost, keeping capacity.
	purge()
}

func newPolicy[K comparable, V any](p Policy, capacity int) cachePolicy[K, V] {
	switch p {
	case Policy2Q:
		return newTwoQPolicy[K, V](capacity)
	default:
		return newLRUPolicy[K, V](capacity)
	}
}

// Cache is a sharded, bounded, thread-safe cache with a pluggable
// per-shard replacement policy (in the spirit of samber/hot's
// sharded/2q layout). Shards cut lock contention under parallel
// planners; each shard holds capacity/shards entries and evicts per its
// policy on overflow.
//
// The key type is any comparable; the caller supplies the shard-selection
// hash at construction so hot paths can use fixed-size struct keys (e.g.
// predict's fingerprint key) without ever materializing a string. For
// string keys, pass StringHash.
//
// The cache stores only values that are pure functions of their key, so a
// concurrent double-compute or an eviction changes wall-clock time, never
// results — determinism does not depend on cache state. GetOrCompute
// additionally collapses concurrent misses on one key into a single
// loader execution (singleflight), so a re-plan burst or a cold fan-out
// pays for each distinct computation once.
type Cache[K comparable, V any] struct {
	shards []cacheShard[K, V]
	hash   func(K) uint64
	hits   atomic.Uint64
	misses atomic.Uint64
	evicts atomic.Uint64
	shared atomic.Uint64
}

// NewCache returns a cache holding at most capacity entries across the
// given number of shards (both floored at 1; shards are capped at
// capacity so every shard can hold at least one entry), each shard
// evicting per policy. hash selects the shard for a key and only needs
// to spread well, not be cryptographic.
func NewCache[K comparable, V any](policy Policy, capacity, shards int, hash func(K) uint64) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &Cache[K, V]{
		shards: make([]cacheShard[K, V], shards),
		hash:   hash,
	}
	per := capacity / shards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].pol = newPolicy[K, V](policy, per)
	}
	return c
}

// StringHash is the 64-bit FNV-1a hash over the key's bytes — the default
// shard selector for string-keyed caches.
func StringHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c *Cache[K, V]) shard(key K) *cacheShard[K, V] {
	return &c.shards[c.hash(key)%uint64(len(c.shards))]
}

// Get returns the cached value and whether it was present, promoting the
// entry per the shard's policy. A hit performs zero heap allocations.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	v, ok := s.pol.get(key)
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put inserts or refreshes an entry, evicting per the shard's policy when
// the shard is full.
func (c *Cache[K, V]) Put(key K, v V) {
	s := c.shard(key)
	s.mu.Lock()
	n := s.pol.put(key, v)
	s.mu.Unlock()
	if n > 0 {
		c.evicts.Add(uint64(n))
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.pol.len()
		s.mu.Unlock()
	}
	return n
}

// Purge empties the cache, keeping capacity; counters are unaffected.
// In-flight GetOrCompute loaders are untouched: they complete and insert
// into the purged cache.
func (c *Cache[K, V]) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.pol.purge()
		s.mu.Unlock()
	}
}

// Stats returns cumulative hit/miss/eviction/shared counters.
func (c *Cache[K, V]) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicts.Load(),
		Shared:    c.shared.Load(),
	}
}

// cacheShard is one lock domain: a policy instance plus the shard's
// in-flight singleflight calls (lazily allocated; nil until the first
// GetOrCompute miss).
type cacheShard[K comparable, V any] struct {
	mu  sync.Mutex
	pol cachePolicy[K, V]
	fl  map[K]*flightCall[V]
}
