package parallel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetOrComputeStampede is the singleflight contract: 100 goroutines
// missing the same cold key run the loader exactly once, and every
// other goroutine shares the winner's result. The loader blocks until
// all goroutines have entered GetOrCompute, so the test is deterministic
// rather than racy-lucky: had dedup failed, every late arrival would
// have run its own loader.
func TestGetOrComputeStampede(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(string(pol), func(t *testing.T) {
			const goroutines = 100
			c := NewCache[string, int](pol, 64, 4, StringHash)

			var loaders atomic.Int64
			var entered sync.WaitGroup
			entered.Add(goroutines)
			release := make(chan struct{})

			var wg sync.WaitGroup
			results := make([]int, goroutines)
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					entered.Done()
					results[i] = c.GetOrCompute("cold", func() int {
						loaders.Add(1)
						<-release // hold the flight open until everyone has arrived
						return 42
					})
				}(i)
			}
			entered.Wait()
			close(release)
			wg.Wait()

			if n := loaders.Load(); n != 1 {
				t.Fatalf("loader ran %d times for one key, want 1", n)
			}
			for i, v := range results {
				if v != 42 {
					t.Fatalf("goroutine %d got %d, want 42", i, v)
				}
			}
			st := c.Stats()
			if st.Misses-st.Shared != 1 {
				t.Fatalf("Misses-Shared = %d-%d = %d, want 1 (one loader execution)",
					st.Misses, st.Shared, st.Misses-st.Shared)
			}
			// The result landed: the next lookup is a plain hit.
			if v, ok := c.Get("cold"); !ok || v != 42 {
				t.Fatalf("post-stampede Get = %d, %v", v, ok)
			}
		})
	}
}

// TestComputeMissedStampede exercises the closure-free hot-path pairing
// (Get, then ComputeMissed on miss) under the same 100-goroutine
// stampede, including the rescue window where a value lands between a
// goroutine's Get and its ComputeMissed. The loader-execution invariant
// Misses - Shared = 1 must hold regardless of which window each
// goroutine fell into.
func TestComputeMissedStampede(t *testing.T) {
	const goroutines = 100
	c := NewCache[string, int](PolicyLRU, 64, 4, StringHash)

	var loaders atomic.Int64
	var entered sync.WaitGroup
	entered.Add(goroutines)
	release := make(chan struct{})

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Done()
			if v, ok := c.Get("cold"); ok {
				if v != 7 {
					t.Errorf("hit value %d", v)
				}
				return
			}
			v, _, err := c.ComputeMissed("cold", func() (int, error) {
				loaders.Add(1)
				<-release
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("ComputeMissed = %d, %v", v, err)
			}
		}()
	}
	entered.Wait()
	close(release)
	wg.Wait()

	if n := loaders.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Misses-st.Shared != 1 {
		t.Fatalf("Misses-Shared = %d-%d = %d, want 1", st.Misses, st.Shared, st.Misses-st.Shared)
	}
}

// TestGetOrComputeErrNotCached: a loader error reaches the winner and
// every waiter of that flight, but the next lookup runs a fresh loader —
// failures are never cached.
func TestGetOrComputeErrNotCached(t *testing.T) {
	c := NewCache[string, int](PolicyLRU, 8, 1, StringHash)
	boom := errors.New("boom")

	calls := 0
	_, computed, err := c.GetOrComputeErr("k", func() (int, error) {
		calls++
		return 0, boom
	})
	if !computed || !errors.Is(err, boom) {
		t.Fatalf("first call: computed=%v err=%v", computed, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed load was cached")
	}
	v, computed, err := c.GetOrComputeErr("k", func() (int, error) {
		calls++
		return 9, nil
	})
	if err != nil || !computed || v != 9 {
		t.Fatalf("retry after error: %d, %v, %v", v, computed, err)
	}
	if calls != 2 {
		t.Fatalf("loader calls = %d, want 2", calls)
	}
	if v, ok := c.Get("k"); !ok || v != 9 {
		t.Fatalf("successful retry not cached: %d, %v", v, ok)
	}
}

// TestGetOrComputeErrSharedError: waiters joined to a failing flight all
// observe the winner's error (not a zero value silently).
func TestGetOrComputeErrSharedError(t *testing.T) {
	c := NewCache[string, int](PolicyLRU, 8, 1, StringHash)
	boom := errors.New("boom")

	started := make(chan struct{})
	release := make(chan struct{})
	var winnerDone sync.WaitGroup
	winnerDone.Add(1)
	go func() {
		defer winnerDone.Done()
		_, _, _ = c.GetOrComputeErr("k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
	}()
	<-started

	var wg sync.WaitGroup
	errs := make([]error, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, computed, err := c.GetOrComputeErr("k", func() (int, error) {
				t.Error("waiter ran its own loader while a flight was pending")
				return 0, nil
			})
			if computed {
				t.Error("waiter reported computed=true")
			}
			errs[i] = err
		}(i)
	}
	// Wait until every waiter has joined the flight before failing it, so
	// the t.Error above would fire if a joined waiter recomputed.
	waitForShared(c, 10)
	close(release)
	winnerDone.Wait()
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d error = %v, want boom", i, err)
		}
	}
}

// waitForShared spins until the cache has seen n shared misses — i.e. n
// goroutines are parked on in-flight calls.
func waitForShared(c *Cache[string, int], n uint64) {
	for c.Stats().Shared < n {
		runtime.Gosched()
	}
}

// TestGetOrComputePanicWakesWaiters: a panicking loader must not strand
// waiters forever; they are woken with errLoaderPanic, the panic
// propagates on the winner's goroutine, and the key computes cleanly
// afterwards.
func TestGetOrComputePanicWakesWaiters(t *testing.T) {
	c := NewCache[string, int](PolicyLRU, 8, 1, StringHash)

	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("loader panic did not propagate")
			}
			close(panicked)
		}()
		_, _, _ = c.GetOrComputeErr("k", func() (int, error) {
			close(started)
			<-release
			panic("loader exploded")
		})
	}()
	<-started

	var waiterErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, waiterErr = c.GetOrComputeErr("k", func() (int, error) { return 0, nil })
	}()
	waitForShared(c, 1)
	close(release)
	<-panicked
	wg.Wait()

	if !errors.Is(waiterErr, errLoaderPanic) {
		t.Fatalf("waiter error = %v, want errLoaderPanic", waiterErr)
	}
	// The flight was torn down: a fresh compute works.
	v, computed, err := c.GetOrComputeErr("k", func() (int, error) { return 5, nil })
	if err != nil || !computed || v != 5 {
		t.Fatalf("compute after panic: %d, %v, %v", v, computed, err)
	}
}

// TestGetOrComputeDistinctKeysConcurrent: singleflight dedups per key,
// not globally — distinct keys compute concurrently and each exactly
// once.
func TestGetOrComputeDistinctKeysConcurrent(t *testing.T) {
	c := NewCache[int, int](PolicyLRU, 256, 8, func(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 })
	var loaders atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 64; k++ {
				if v := c.GetOrCompute(k, func() int { loaders.Add(1); return k * 3 }); v != k*3 {
					t.Errorf("key %d = %d", k, v)
				}
			}
		}()
	}
	wg.Wait()
	if n := loaders.Load(); n != 64 {
		t.Fatalf("loaders ran %d times for 64 keys, want 64", n)
	}
	st := c.Stats()
	if st.Misses-st.Shared != 64 {
		t.Fatalf("Misses-Shared = %d, want 64", st.Misses-st.Shared)
	}
}
