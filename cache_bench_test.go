// Cache stampede benchmarks: profiling entry points for the singleflight
// loader, the prediction cache and the profiler memo. The loads/op,
// sims/op and profiles/op columns are exact counts that the stampede
// tests already assert (TestGetOrComputeStampede, TestExecCacheStampede,
// TestProfileCacheStampede).
//
//	go test -run '^$' -bench BenchmarkCache -benchmem .
package chiron_test

import (
	"runtime"
	"sync"
	"testing"

	"chiron/internal/model"
	"chiron/internal/parallel"
	"chiron/internal/predict"
	"chiron/internal/profiler"
	"chiron/internal/workloads"
	"chiron/internal/wrap"
)

// stampedeWork is the benchmark loader: ~20µs of CPU with scheduler
// yield points, modelling a real loader (a GIL simulation allocates and
// gets preempted) so redundant naive loads overlap even on one core.
func stampedeWork() int {
	s := 1
	for i := 0; i < 20; i++ {
		for j := 0; j < 1000; j++ {
			s = s*31 + j
		}
		runtime.Gosched()
	}
	return s
}

// BenchmarkCacheStampede prices the singleflight loader against the
// check-then-compute idiom it replaced. Each op is one stampede round:
// 16 goroutines race a cold key through a yielding ~20µs loader. The
// loads/op column is the story — singleflight runs the loader once per
// round while naive runs it up to 16 times — and ns/op shows the round
// completing faster because 15 goroutines wait instead of burning the
// CPU on redundant work.
func BenchmarkCacheStampede(b *testing.B) {
	const racers = 16
	round := func(b *testing.B, miss func(c *parallel.Cache[int, int], key int)) {
		c := parallel.NewCache[int, int](1<<20, 16, func(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var ready, wg sync.WaitGroup
			ready.Add(racers)
			start := make(chan struct{})
			for g := 0; g < racers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ready.Done()
					<-start
					miss(c, i)
				}()
			}
			ready.Wait()
			close(start)
			wg.Wait()
		}
		b.StopTimer()
		st := c.Stats()
		b.ReportMetric(float64(st.Misses-st.Shared)/float64(b.N), "loads/op")
	}
	b.Run("singleflight", func(b *testing.B) {
		round(b, func(c *parallel.Cache[int, int], key int) {
			c.GetOrCompute(key, stampedeWork)
		})
	})
	b.Run("naive", func(b *testing.B) {
		round(b, func(c *parallel.Cache[int, int], key int) {
			if _, ok := c.Get(key); !ok {
				c.Put(key, stampedeWork())
			}
		})
	})
}

// BenchmarkCachePredictStampede: one op is a 16-goroutine race on a cold
// prediction-cache key resolving through the real GIL simulation. The
// sims/op column stays at 1.0; TestExecCacheStampede asserts it.
func BenchmarkCachePredictStampede(b *testing.B) {
	const racers = 16
	w := workloads.FINRA(8)
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	p := predict.New(model.Default(), set)
	names := make([]string, 0, 8)
	for _, f := range w.Stages[1].Functions {
		names = append(names, f.Name)
	}
	// One probe run outside the timed region so the first iteration pays
	// the same purge-then-stampede cost as the rest.
	if _, err := p.ExecThreadsCached(names, wrap.IsoNone); err != nil {
		b.Fatal(err)
	}
	before := predict.ExecCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predict.PurgeExecCache()
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := p.ExecThreadsCachedHit(names, wrap.IsoNone); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	after := predict.ExecCacheStats()
	sims := (after.Misses - before.Misses) - (after.Shared - before.Shared)
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}

// BenchmarkCacheProfilerStampede is BenchmarkCachePredictStampede for
// the profiler memo: 16 goroutines race ProfileFunction on a purged
// spec; one trace-record/parse per round, one clone per caller.
func BenchmarkCacheProfilerStampede(b *testing.B) {
	const racers = 16
	spec := workloads.FINRA(1).Stages[0].Functions[0]
	opt := profiler.DefaultOptions()
	if _, err := profiler.ProfileFunction(spec, opt); err != nil {
		b.Fatal(err)
	}
	before := profiler.CacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profiler.PurgeCache()
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := profiler.ProfileFunction(spec, opt); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	after := profiler.CacheStats()
	profiles := (after.Misses - before.Misses) - (after.Shared - before.Shared)
	b.ReportMetric(float64(profiles)/float64(b.N), "profiles/op")
}

// BenchmarkCacheGetOrComputeWarm is the overhead floor: GetOrCompute on
// an always-warm key, uncontended. This is what predict's hot path would
// pay if it skipped the Get+ComputeMissed pairing — any closure
// allocation would show in allocs/op, which is exactly why the pairing
// exists (compare TestCachedExecThreadsHitDoesNotAllocate).
func BenchmarkCacheGetOrComputeWarm(b *testing.B) {
	c := parallel.NewCache[string, int](64, 4, parallel.StringHash)
	c.Put("warm", 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := c.GetOrCompute("warm", func() int { return 7 }); v != 7 {
			b.Fatal("bad value")
		}
	}
}
