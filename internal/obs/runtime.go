package obs

// Bridge from the Go runtime/metrics package into the obs registry.
// Serving-plane tail spikes are often not the workload's fault — a GC
// pause, a goroutine pile-up, or scheduler queuing shows up as p99
// latency with nothing in the request trace to blame. Polling the
// runtime's own counters into /metrics puts those events on the same
// scrape timeline as chiron_serve_latency, so a burn-rate trip can be
// correlated with (or exonerated from) runtime behaviour.
//
// Gauges are point-in-time; pause and scheduler-latency quantiles are
// computed as deltas between consecutive cumulative histogram
// snapshots, so each poll reports the p99 of the *interval*, not of
// process lifetime.

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

const (
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmGoroutines = "/sched/goroutines:goroutines"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/sched/pauses/total/gc:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

// RuntimeBridge periodically samples runtime/metrics into registry
// gauges:
//
//	chiron_runtime_heap_bytes          live heap object bytes
//	chiron_runtime_goroutines          current goroutine count
//	chiron_runtime_gc_cycles_total     completed GC cycles
//	chiron_runtime_gc_pause_p99_us     p99 GC stop-the-world pause over the last interval
//	chiron_runtime_sched_latency_p99_us p99 goroutine scheduling latency over the last interval
type RuntimeBridge struct {
	heap       *Gauge
	goroutines *Gauge
	gcCycles   *Gauge
	gcPause    *Gauge
	schedLat   *Gauge

	samples []metrics.Sample
	prev    map[string]histSnapshot

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

type histSnapshot struct {
	buckets []float64
	counts  []uint64
}

// NewRuntimeBridge registers the runtime gauges on reg. Call Collect for
// a one-shot sample or Start for a polling loop.
func NewRuntimeBridge(reg *Registry) *RuntimeBridge {
	b := &RuntimeBridge{
		heap:       reg.Gauge("chiron_runtime_heap_bytes", "live heap object bytes (runtime/metrics)"),
		goroutines: reg.Gauge("chiron_runtime_goroutines", "current goroutine count"),
		gcCycles:   reg.Gauge("chiron_runtime_gc_cycles_total", "completed GC cycles since process start"),
		gcPause:    reg.Gauge("chiron_runtime_gc_pause_p99_us", "p99 GC pause over the last poll interval, microseconds"),
		schedLat:   reg.Gauge("chiron_runtime_sched_latency_p99_us", "p99 goroutine scheduling latency over the last poll interval, microseconds"),
		prev:       map[string]histSnapshot{},
	}
	names := []string{rmHeapBytes, rmGoroutines, rmGCCycles, rmGCPauses, rmSchedLat}
	b.samples = make([]metrics.Sample, len(names))
	for i, n := range names {
		b.samples[i].Name = n
	}
	return b
}

// Collect takes one sample of every bridged metric. Safe to call
// concurrently with itself and with Start's loop.
func (b *RuntimeBridge) Collect() {
	b.mu.Lock()
	defer b.mu.Unlock()
	metrics.Read(b.samples)
	for i := range b.samples {
		s := &b.samples[i]
		switch s.Name {
		case rmHeapBytes:
			if s.Value.Kind() == metrics.KindUint64 {
				b.heap.Set(int64(s.Value.Uint64()))
			}
		case rmGoroutines:
			if s.Value.Kind() == metrics.KindUint64 {
				b.goroutines.Set(int64(s.Value.Uint64()))
			}
		case rmGCCycles:
			if s.Value.Kind() == metrics.KindUint64 {
				b.gcCycles.Set(int64(s.Value.Uint64()))
			}
		case rmGCPauses:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				b.gcPause.Set(int64(b.deltaQuantileUS(s.Name, s.Value.Float64Histogram(), 0.99)))
			}
		case rmSchedLat:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				b.schedLat.Set(int64(b.deltaQuantileUS(s.Name, s.Value.Float64Histogram(), 0.99)))
			}
		}
	}
}

// deltaQuantileUS computes the q-quantile (in microseconds) of the
// observations added since the previous snapshot of the same cumulative
// histogram. Returns 0 when the interval saw none.
func (b *RuntimeBridge) deltaQuantileUS(name string, h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	cur := histSnapshot{
		buckets: append([]float64(nil), h.Buckets...),
		counts:  append([]uint64(nil), h.Counts...),
	}
	prev, ok := b.prev[name]
	b.prev[name] = cur
	delta := make([]uint64, len(cur.counts))
	var total uint64
	for i := range cur.counts {
		d := cur.counts[i]
		if ok && i < len(prev.counts) && prev.counts[i] <= d {
			d -= prev.counts[i]
		} else if ok && i < len(prev.counts) {
			d = 0 // histogram layout changed; treat as empty interval
		}
		delta[i] = d
		total += d
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, d := range delta {
		cum += d
		if cum >= target {
			// Bucket i spans (Buckets[i], Buckets[i+1]]; report the
			// finite upper bound in microseconds.
			hi := cur.buckets[min(i+1, len(cur.buckets)-1)]
			if math.IsInf(hi, 1) {
				hi = cur.buckets[max(0, len(cur.buckets)-2)]
			}
			return hi * 1e6
		}
	}
	return 0
}

// Start launches a polling goroutine at the given interval (default
// 5s). Stop halts it and waits for exit.
func (b *RuntimeBridge) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	b.stop = make(chan struct{})
	b.done = make(chan struct{})
	b.Collect()
	go func() {
		defer close(b.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				b.Collect()
			case <-b.stop:
				return
			}
		}
	}()
}

// Stop halts the polling loop started by Start.
func (b *RuntimeBridge) Stop() {
	if b.stop == nil {
		return
	}
	close(b.stop)
	<-b.done
	b.stop = nil
}
