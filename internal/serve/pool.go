package serve

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"

	"chiron/internal/dag"
	"chiron/internal/wrap"
)

// warmPool manages keep-alive sandbox instances for one plan epoch.
//
// An "instance" is one booted copy of the plan's whole sandbox set (all
// wraps of one request path). Acquiring with no idle instance boots a
// cold one — the modelled container boot, model.Constants.ColdStart,
// slept on the wall clock (scaled) and charged to the request — while a
// warm hit is free, mirroring sandbox.StartLatency. Idle instances are
// evicted after the keep-alive, so the resident-memory gauge (priced by
// the plan's sandbox ledgers) tracks what a node would actually hold.
//
// When the controller swaps plans the old epoch's pool is retired: its
// leased instances finish their requests and are then discarded instead
// of being parked warm, so a swap never drops in-flight work.
//
// Each parked instance gets its own jittered expiry (KeepAliveJitter),
// so the epoch-wide park that follows a plan swap cannot line up every
// instance's eviction on one reaper tick and synchronize a cold-boot
// storm when traffic returns.
type warmPool struct {
	app         *App
	perInstMB   float64
	coldNominal time.Duration
	coldWall    time.Duration
	keepAlive   time.Duration
	jitter      float64

	mu      sync.Mutex
	warm    []time.Time // idle instances, identified only by expiry
	total   int         // warm + leased
	leased  int
	retired bool
}

func newWarmPool(a *App, plan *wrap.Plan, w *dag.Workflow, keepAlive time.Duration, scale float64) *warmPool {
	p := &warmPool{
		app:         a,
		coldNominal: a.opt.Const.ColdStart,
		coldWall:    time.Duration(float64(a.opt.Const.ColdStart) * scale),
		keepAlive:   keepAlive,
		jitter:      a.opt.KeepAliveJitter,
	}
	// Price one instance from the plan's sandbox ledgers. A plan that
	// fails to price (stale behaviour) still serves; it just reports 0.
	if ledgers, err := plan.Ledgers(w); err == nil {
		for _, s := range ledgers {
			p.perInstMB += s.MemoryMB(a.opt.Const)
		}
	}
	return p
}

// acquire leases an instance, booting cold when no warm one is idle.
// The cold boot honours ctx; the returned cold flag tells the caller to
// charge ColdStart to the request.
//
// When ctx ends mid-boot, a primary attempt's lease is handed back: the
// boot is unwound from leased/total and the resident gauge, and
// recorded in chiron_serve_cold_cancelled_total — the coldstarts
// counter stays monotonic (Prometheus counters must), so capacity
// accounting reconciles as coldstarts - cold_cancelled. A hedge's boot
// (usually cut short by the primary's win) is kept instead: the
// instance parks warm at the cold end of the idle list, so it is leased
// last, by the next hedge rather than the next primary. A workflow that
// hedges needs a second instance while a request is in flight;
// unwinding the boot would keep a serially loaded pool at one instance,
// so every hedge would boot cold and lose to the primary it was meant
// to cut.
func (p *warmPool) acquire(ctx context.Context, hedge bool) (cold bool, err error) {
	p.mu.Lock()
	p.leased++
	if n := len(p.warm); n > 0 {
		p.warm = p.warm[:n-1]
		p.mu.Unlock()
		p.app.m.warmHits.Inc()
		p.app.m.warmGauge.Add(-1)
		return false, nil
	}
	p.total++
	p.mu.Unlock()
	p.app.m.cold.Inc()
	p.app.m.resident.Add(int64(p.perInstMB))
	if p.coldWall <= 0 {
		return true, nil
	}
	t := time.NewTimer(p.coldWall)
	defer t.Stop()
	select {
	case <-t.C:
		return true, nil
	case <-ctx.Done():
	}
	if hedge {
		p.park(time.Now(), true)
	} else {
		p.mu.Lock()
		p.leased--
		p.total--
		p.mu.Unlock()
		p.app.m.resident.Add(-int64(p.perInstMB))
		p.app.m.coldCancelled.Inc()
	}
	return false, context.Cause(ctx)
}

// expiry computes a parked instance's eviction time: keep-alive with
// per-instance uniform jitter in [1-j, 1+j].
func (p *warmPool) expiry(now time.Time) time.Time {
	ka := p.keepAlive
	if p.jitter > 0 {
		ka = time.Duration(float64(ka) * (1 + p.jitter*(2*rand.Float64()-1)))
	}
	return now.Add(ka)
}

// release returns a leased instance: parked warm on a live pool,
// discarded on a retired one.
func (p *warmPool) release(now time.Time) { p.park(now, false) }

// park hands a lease back to the idle list, at its hot end (leased
// next) or its cold end (leased last); a retired pool discards it.
func (p *warmPool) park(now time.Time, coldEnd bool) {
	p.mu.Lock()
	p.leased--
	if p.retired {
		p.total--
		p.mu.Unlock()
		p.app.m.resident.Add(-int64(p.perInstMB))
		return
	}
	exp := p.expiry(now)
	if coldEnd {
		p.warm = append(p.warm, time.Time{})
		copy(p.warm[1:], p.warm)
		p.warm[0] = exp
	} else {
		p.warm = append(p.warm, exp)
	}
	p.mu.Unlock()
	p.app.m.warmGauge.Add(1)
}

// reap evicts idle instances past their jittered expiry.
func (p *warmPool) reap(now time.Time) {
	p.mu.Lock()
	kept := p.warm[:0]
	evicted := 0
	for _, exp := range p.warm {
		if now.After(exp) {
			evicted++
		} else {
			kept = append(kept, exp)
		}
	}
	p.warm = kept
	p.total -= evicted
	p.mu.Unlock()
	if evicted > 0 {
		p.app.m.warmGauge.Add(int64(-evicted))
		p.app.m.resident.Add(int64(-evicted) * int64(p.perInstMB))
	}
}

// retire marks the epoch dead: idle instances are evicted now, leased
// ones are discarded as they release.
func (p *warmPool) retire() {
	p.mu.Lock()
	p.retired = true
	evicted := len(p.warm)
	p.warm = nil
	p.total -= evicted
	p.mu.Unlock()
	if evicted > 0 {
		p.app.m.warmGauge.Add(int64(-evicted))
		p.app.m.resident.Add(int64(-evicted) * int64(p.perInstMB))
	}
}

func (p *warmPool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Warm:       len(p.warm),
		Total:      p.total,
		ResidentMB: float64(p.total) * p.perInstMB,
	}
}
