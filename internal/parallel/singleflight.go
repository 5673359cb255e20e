package parallel

import "errors"

// This file is the cache's stampede control: GetOrCompute collapses
// concurrent misses on one key into a single loader execution. The first
// goroutine to miss registers an in-flight call in its shard and runs
// the loader outside the lock; every other goroutine that misses the
// same key while the call is pending blocks on the winner's done channel
// and shares its result. A re-plan burst or a freshly registered
// workflow under load therefore runs each distinct GIL simulation or
// profile once, not once per waiter.
//
// Errors are returned to the winner and every waiter of that one flight,
// but never cached: the next miss after a failed load starts a fresh
// computation.

// errLoaderPanic wakes waiters when a loader panics; the panic itself
// propagates on the winner's goroutine.
var errLoaderPanic = errors.New("parallel: cache loader panicked")

// flightCall is one in-flight loader execution. val and err are written
// once, before done is closed; waiters read them only after <-done.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// GetOrCompute returns the cached value for key, computing and inserting
// it on a miss. Concurrent misses on the same key run fn exactly once:
// losers block until the winner's result lands and share it.
func (c *Cache[K, V]) GetOrCompute(key K, fn func() V) V {
	v, _, _ := c.GetOrComputeErr(key, func() (V, error) { return fn(), nil })
	return v
}

// GetOrComputeErr is GetOrCompute for fallible loaders. computed reports
// whether this goroutine ran fn (false on a cache hit or when the result
// was shared from another goroutine's in-flight call). A loader error is
// delivered to the winner and every waiter of that flight but is not
// cached — the next lookup recomputes.
func (c *Cache[K, V]) GetOrComputeErr(key K, fn func() (V, error)) (v V, computed bool, err error) {
	s := c.shard(key)
	s.mu.Lock()
	if v, ok := s.pol.get(key); ok {
		s.mu.Unlock()
		c.hits.Add(1)
		return v, false, nil
	}
	return c.computeLocked(s, key, fn, true)
}

// ComputeMissed joins or starts the singleflight for a key the caller
// already observed missing via Get. Hot paths use the Get+ComputeMissed
// pair so their hit path stays closure-free (building the loader closure
// only after the zero-alloc Get fails); the caller's Get recorded the
// miss, so this entry point never re-counts it. Either way the counters
// satisfy the invariant: loader executions = Misses - Shared.
func (c *Cache[K, V]) ComputeMissed(key K, fn func() (V, error)) (v V, computed bool, err error) {
	s := c.shard(key)
	s.mu.Lock()
	if v, ok := s.pol.get(key); ok {
		// The value landed between the caller's Get and this call: a miss
		// rescued by another goroutine's compute, same as joining its
		// flight a moment earlier — count it Shared so the invariant
		// above stays exact.
		s.mu.Unlock()
		c.shared.Add(1)
		return v, false, nil
	}
	return c.computeLocked(s, key, fn, false)
}

// computeLocked joins the key's in-flight call or becomes its winner.
// countMiss records the lookup miss here (false when the caller's Get
// already did). Called with s.mu held; returns with it released.
func (c *Cache[K, V]) computeLocked(s *cacheShard[K, V], key K, fn func() (V, error), countMiss bool) (V, bool, error) {
	if f, ok := s.fl[key]; ok {
		s.mu.Unlock()
		if countMiss {
			c.misses.Add(1)
		}
		c.shared.Add(1)
		<-f.done
		return f.val, false, f.err
	}
	f := &flightCall[V]{done: make(chan struct{})}
	if s.fl == nil {
		s.fl = make(map[K]*flightCall[V])
	}
	s.fl[key] = f
	s.mu.Unlock()
	if countMiss {
		c.misses.Add(1)
	}

	finished := false
	defer func() {
		// On a loader panic, unblock the waiters with an error and let
		// the panic propagate on this goroutine.
		if !finished {
			f.err = errLoaderPanic
			s.mu.Lock()
			delete(s.fl, key)
			s.mu.Unlock()
			close(f.done)
		}
	}()
	f.val, f.err = fn()
	finished = true

	s.mu.Lock()
	delete(s.fl, key)
	evicted := 0
	if f.err == nil {
		evicted = s.pol.put(key, f.val)
	}
	s.mu.Unlock()
	close(f.done)
	if evicted > 0 {
		c.evicts.Add(uint64(evicted))
	}
	return f.val, true, f.err
}
