// Package loadgen measures a deployment's sustainable throughput
// empirically: an open-loop arrival simulation over the virtual-time
// kernel, with Poisson arrivals, a bounded fleet of deployment instances,
// FIFO queueing, and per-request service times drawn from the engine's
// measured latency distribution.
//
// Figure 16's throughput metric (instances per node / latency) is the
// zero-queueing upper bound; this package shows where latency actually
// collapses as offered load approaches that bound, and finds the maximum
// arrival rate that still meets a latency SLO (MaxRate).
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"chiron/internal/metrics"
	"chiron/internal/parallel"
	"chiron/internal/sim"
)

// kernelPool recycles event kernels across runs: MaxRate's binary search
// alone performs ~15 simulations, and each one queues tens of thousands of
// events whose heap storage is worth keeping warm.
var kernelPool = sync.Pool{New: func() interface{} { return sim.New() }}

// Server models the serving fleet: how many instances exist and the
// empirical distribution of one request's service time.
type Server struct {
	// Instances is the fleet size (e.g. node.MaxInstances).
	Instances int
	// ServiceTimes is the empirical service-time sample (e.g.
	// engine.RunMany output); requests draw from it uniformly.
	ServiceTimes []time.Duration
}

// Validate reports malformed servers.
func (s Server) Validate() error {
	if s.Instances < 1 {
		return fmt.Errorf("loadgen: %d instances", s.Instances)
	}
	if len(s.ServiceTimes) == 0 {
		return fmt.Errorf("loadgen: empty service-time sample")
	}
	for _, d := range s.ServiceTimes {
		if d <= 0 {
			return fmt.Errorf("loadgen: non-positive service time %v", d)
		}
	}
	return nil
}

// MeanService returns the sample's mean service time.
func (s Server) MeanService() time.Duration { return metrics.Mean(s.ServiceTimes) }

// Capacity returns the zero-queueing throughput bound in requests/second.
func (s Server) Capacity() float64 {
	return float64(s.Instances) / s.MeanService().Seconds()
}

// Stats summarizes one simulated load run.
type Stats struct {
	// Offered is the arrival rate (req/s).
	Offered float64
	// Served is the number of completed requests.
	Served int
	// Mean, P50, P95 and P99 are sojourn times (queueing + service).
	Mean, P50, P95, P99 time.Duration
	// MaxQueue is the deepest backlog observed.
	MaxQueue int
}

// Options configure a run.
type Options struct {
	// Duration is the simulated interval (default 30s).
	Duration time.Duration
	// Seed drives arrivals and service sampling.
	Seed int64
}

// Simulate runs an open-loop experiment: Poisson arrivals at `rate`
// requests/second against the server, for the configured duration.
func Simulate(s Server, rate float64, opt Options) (*Stats, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if rate <= 0 {
		return nil, fmt.Errorf("loadgen: non-positive rate %v", rate)
	}
	if opt.Duration <= 0 {
		opt.Duration = 30 * time.Second
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	k := kernelPool.Get().(*sim.Kernel)
	defer func() {
		k.Reset()
		kernelPool.Put(k)
	}()

	free := s.Instances
	type pending struct{ arrived time.Duration }
	var queue []pending
	var sojourns []time.Duration
	maxQueue := 0

	var serve func(p pending)
	serve = func(p pending) {
		free--
		svc := s.ServiceTimes[rng.Intn(len(s.ServiceTimes))]
		k.After(svc, func() {
			sojourns = append(sojourns, k.Now()-p.arrived)
			free++
			if len(queue) > 0 {
				next := queue[0]
				queue = queue[1:]
				serve(next)
			}
		})
	}

	// Poisson arrivals: exponential inter-arrival times.
	var arrive func()
	arrive = func() {
		p := pending{arrived: k.Now()}
		if free > 0 {
			serve(p)
		} else {
			queue = append(queue, p)
			if len(queue) > maxQueue {
				maxQueue = len(queue)
			}
		}
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if next := k.Now() + gap; next <= opt.Duration {
			k.At(next, arrive)
		}
	}
	k.At(0, arrive)
	k.SetBudget(50_000_000)
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("loadgen: simulation exploded: %w", err)
	}
	if len(sojourns) == 0 {
		return nil, fmt.Errorf("loadgen: no requests completed")
	}
	sort.Slice(sojourns, func(i, j int) bool { return sojourns[i] < sojourns[j] })
	return &Stats{
		Offered:  rate,
		Served:   len(sojourns),
		Mean:     metrics.Mean(sojourns),
		P50:      metrics.Percentile(sojourns, 0.50),
		P95:      metrics.Percentile(sojourns, 0.95),
		P99:      metrics.Percentile(sojourns, 0.99),
		MaxQueue: maxQueue,
	}, nil
}

// SweepRates simulates every offered rate on the parallel worker pool and
// returns the stats in rate order. Each rate gets an independent seed
// derived from opt.Seed and its index (parallel.Seed), so the sweep's
// output is identical at any worker count and no two rates share an
// arrival stream.
func SweepRates(s Server, rates []float64, opt Options) ([]*Stats, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return parallel.Map(len(rates), func(i int) (*Stats, error) {
		o := opt
		o.Seed = parallel.Seed(opt.Seed, i)
		return Simulate(s, rates[i], o)
	})
}

// MaxRate binary-searches the highest arrival rate whose p95 sojourn time
// stays within the SLO. The search is bracketed by the zero-queueing
// capacity bound.
func MaxRate(s Server, slo time.Duration, opt Options) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if slo <= 0 {
		return 0, fmt.Errorf("loadgen: non-positive SLO")
	}
	meets := func(rate float64) (bool, error) {
		st, err := Simulate(s, rate, opt)
		if err != nil {
			return false, err
		}
		return st.P95 <= slo, nil
	}
	hi := s.Capacity()
	lo := 0.0
	// If even a trickle misses (service time above SLO), the answer is 0.
	ok, err := meets(math.Max(hi/100, 0.1))
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	// The capacity bound itself usually queues past the SLO; expand the
	// bracket only if it somehow holds.
	if ok, err = meets(hi); err != nil {
		return 0, err
	} else if ok {
		return hi, nil
	}
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
