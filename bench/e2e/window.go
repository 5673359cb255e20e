package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// offHeap returns n zeroed elements of a pointer-free type in anonymous
// mapped memory. The generator's sample buffers are tens of megabytes;
// on the Go heap they would be a ballast that makes the collector run
// several times less often than it does for the program alone.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap %d bytes: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

func freeOffHeap[T any](s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0]))))
}

// maxRatePerClient sizes the per-client sample buffer: no workload
// completes more than this many requests per second per client.
const maxRatePerClient = 100_000

// clientTally is what one client saw in a window.
type clientTally struct {
	lat       []uint32 // ns per OK reply, saturating; off-heap
	attempted int
	rejected  int
	failed    int
	elapsed   time.Duration
}

// windowResult is one measured window: per-client tallies plus process
// and registry snapshots taken just outside it.
type windowResult struct {
	tallies  []clientTally
	merged   []time.Duration // room for every client's samples; off-heap
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	ru0, ru1 syscall.Rusage
	cpu0     cpuJiffies
	cpu1     cpuJiffies
	ctr0     map[string]uint64
	ctr1     map[string]uint64
}

// watchedCounters are the registry counters the output checks and the
// per-layer metrics read, snapshotted around the window.
var watchedCounters = []string{
	"chiron_serve_requests_total",
	"chiron_serve_errors_total",
	"chiron_serve_rejected_total",
	"chiron_serve_coldstarts_total",
	"chiron_serve_replans_total",
	"chiron_serve_hedges_total",
	"chiron_serve_hedge_wins_total",
	"chiron_serve_hedge_wasted_total",
	"chiron_udp_filtered_total",
	"chiron_udp_shed_total",
	"chiron_udp_errors_total",
	"chiron_flight_finished_total",
	"chiron_flight_retained_total",
}

func (e *env) snapshot() map[string]uint64 {
	m := make(map[string]uint64, len(watchedCounters))
	for _, n := range watchedCounters {
		m[n] = e.counter(n)
	}
	return m
}

func (w *windowResult) delta(name string) uint64 { return w.ctr1[name] - w.ctr0[name] }

func (w *windowResult) free() {
	for _, t := range w.tallies {
		freeOffHeap(t.lat)
	}
	freeOffHeap(w.merged)
}

// runWindow drives every client of e closed-loop for dur. Each client
// sends its next request when the previous reply has been checked; the
// reply's arrival time is also the next request's start, so a client's
// latencies add up to its elapsed time.
func runWindow(e *env, dur time.Duration) (*windowResult, error) {
	w := &windowResult{tallies: make([]clientTally, len(e.clients))}
	capPerClient := int(dur.Seconds()*maxRatePerClient) + 1
	for i := range w.tallies {
		lat, err := offHeap[uint32](capPerClient)
		if err != nil {
			w.free()
			return nil, err
		}
		w.tallies[i].lat = lat[:0]
	}
	merged, err := offHeap[time.Duration](capPerClient * len(e.clients))
	if err != nil {
		w.free()
		return nil, err
	}
	w.merged = merged[:0]
	want := e.plan.Version

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(c client, t *clientTally) {
			defer wg.Done()
			<-start
			begin := time.Now()
			now := begin
			deadline := begin.Add(dur)
			for now.Before(deadline) && len(t.lat) < cap(t.lat) {
				out, ver := c.invoke()
				next := time.Now()
				t.attempted++
				switch {
				case out == outRejected:
					t.rejected++
				case out != outOK || ver != want:
					t.failed++
				default:
					ns := next.Sub(now)
					if ns > 1<<32-1 {
						ns = 1<<32 - 1
					}
					t.lat = append(t.lat, uint32(ns))
				}
				now = next
			}
			t.elapsed = now.Sub(begin)
		}(c, &w.tallies[i])
	}

	w.ctr0 = e.snapshot()
	runtime.ReadMemStats(&w.mem0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &w.ru0) // cannot fail with these arguments
	w.cpu0 = readCPUJiffies()
	close(start)
	wg.Wait()
	w.cpu1 = readCPUJiffies()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &w.ru1)
	runtime.ReadMemStats(&w.mem1)
	w.ctr1 = e.snapshot()
	return w, nil
}

// summary is the window reduced to the numbers metrics are made of.
type summary struct {
	attempted, ok, rejected, failed int
	sorted                          []time.Duration // every OK latency, ascending; the window's merged buffer
	opsPerSec                       float64
	allocsPerOp, bytesPerOp         float64
	cpuPerOp                        time.Duration
}

func (w *windowResult) summarize() summary {
	var s summary
	for _, t := range w.tallies {
		s.attempted += t.attempted
		s.rejected += t.rejected
		s.failed += t.failed
		s.ok += len(t.lat)
		// Two closed-loop clients are two servers in parallel: the
		// throughput is the sum of each client's own completion rate.
		if t.elapsed > 0 {
			s.opsPerSec += float64(len(t.lat)) / t.elapsed.Seconds()
		}
	}
	s.sorted = w.merged[:0]
	for _, t := range w.tallies {
		for _, ns := range t.lat {
			s.sorted = append(s.sorted, time.Duration(ns))
		}
	}
	slices.Sort(s.sorted)
	if s.ok > 0 {
		n := float64(s.ok)
		s.allocsPerOp = float64(w.mem1.Mallocs-w.mem0.Mallocs) / n
		s.bytesPerOp = float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / n
		s.cpuPerOp = (cpuTime(&w.ru1) - cpuTime(&w.ru0)) / time.Duration(s.ok)
	}
	return s
}

// cpuJiffies are the machine-wide counters of /proc/stat's first line.
type cpuJiffies struct{ total, steal uint64 }

// readCPUJiffies returns zeros where /proc/stat cannot be read.
func readCPUJiffies() cpuJiffies {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuJiffies{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuJiffies{}
	}
	var j cpuJiffies
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			j.total += n
		}
		if i == 7 {
			j.steal = n
		}
	}
	return j
}

// stealRatio is the share of the machine's CPU time over the window that
// the host gave to someone else: on a shared box it tells a slow run
// from a slow program.
func (w *windowResult) stealRatio() float64 {
	if d := w.cpu1.total - w.cpu0.total; d > 0 {
		return float64(w.cpu1.steal-w.cpu0.steal) / float64(d)
	}
	return 0
}

func cpuTime(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
