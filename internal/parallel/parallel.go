// Package parallel is the repo-wide deterministic execution layer: a
// bounded worker pool with order-preserving fan-out, hash-based per-task
// seed derivation, and (in cache.go) the sharded bounded cache behind the
// process-wide prediction and profiler memos.
//
// Every simulated request, (workload x system) configuration and whole
// experiment in this repository is an independent, seeded, deterministic
// computation, so the only thing parallel execution must preserve is the
// *merge order* of results. Map guarantees exactly that: out[i] is always
// task i's result regardless of scheduling, and the first error by task
// index wins, so a run with 1 worker and a run with N workers are
// bit-for-bit identical.
//
// The pool is global and bounded by a token semaphore. A Map that cannot
// acquire a token runs the task inline on the calling goroutine, which
// makes nested fan-outs (an experiment fanning over workloads whose PGP
// planner fans over process counts whose engine fans over requests) safe:
// total concurrency stays bounded and no call ever deadlocks waiting for
// a token held by its own caller.
package parallel

import (
	"runtime"
	"sync"
)

var (
	mu  sync.Mutex
	sem chan struct{}
)

func init() {
	sem = make(chan struct{}, runtime.GOMAXPROCS(0))
}

// Workers returns the current pool width.
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	return cap(sem)
}

// SetWorkers resizes the pool to n workers; n <= 0 restores the default
// (GOMAXPROCS). In-flight tasks keep their tokens from the old semaphore,
// so the new width applies to work submitted after the call. Width 1 makes
// every Map run fully inline (the sequential baseline).
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	mu.Lock()
	sem = make(chan struct{}, n)
	mu.Unlock()
}

// acquire returns a release func if a pool token was free, else nil.
func acquire() func() {
	mu.Lock()
	s := sem
	mu.Unlock()
	if cap(s) <= 1 {
		// Width 1 is the sequential mode: never spawn, so a single-worker
		// run is exactly the pre-parallel code path.
		return nil
	}
	select {
	case s <- struct{}{}:
		return func() { <-s }
	default:
		return nil
	}
}

// Map runs fn(0..n-1) on the pool and returns the results in task-index
// order. All tasks run to completion even when some fail; the returned
// error is the failing task with the lowest index, so error reporting is
// deterministic under any scheduling.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		release := acquire()
		if release == nil {
			out[i], errs[i] = fn(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer release()
			out[i], errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ForEach runs fn(0..n-1) on the pool and waits for completion.
func ForEach(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		release := acquire()
		if release == nil {
			fn(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer release()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Seed derives task index's seed from a base seed: a SplitMix64 finalizer
// over (base, index). Unlike affine schemes (base + index*k), nearby
// indices produce statistically independent streams, and the derivation is
// stable across runs, platforms and worker counts — the seed contract the
// determinism tests pin down.
func Seed(base int64, index int) int64 {
	x := uint64(base) ^ (uint64(index+1) * 0x9e3779b97f4a7c15)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
