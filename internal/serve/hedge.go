package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"chiron/internal/live"
	"chiron/internal/obs"
)

// Request hedging (the Archipelago trick): once a request has been
// executing for a configurable quantile of its plan's bias-corrected
// predicted latency, a second warm instance is leased and the same
// invocation re-issued on it. The first completion wins; the loser's
// context is cancelled and its instance returned. Hedge state lives only
// for one request — nothing carries over between invocations, so a
// crashed gateway reconstructs hedging behaviour from the plan alone.

// hedgeDelay returns the wall-clock in-flight duration after which this
// workflow's requests arm a hedge: HedgeQuantile x the bias-corrected
// predicted latency (falling back to the admission service-time EWMA
// before the first correction lands), converted to wall time through
// Scale. Zero disables hedging for the request. Lock-free — it sits on
// every invocation.
func (a *App) hedgeDelay(wf *workflowState) time.Duration {
	q := a.opt.HedgeQuantile
	if q <= 0 {
		return 0
	}
	nominal := wf.correctedNs.Load()
	if nominal <= 0 {
		nominal = wf.adm.ewmaNs.Load()
	}
	if nominal <= 0 {
		return 0
	}
	return time.Duration(q * float64(nominal) * a.opt.Scale)
}

// hedgeRun is one hedged request's state, pooled together with its
// timer so a request whose primary beats the delay pays only for the
// context both attempts share. claim decides the winner (0 none,
// 1 primary, 2 hedge); wg holds the armed attempt until it has unwound.
// The caller reads res and hedged only once the timer was stopped
// before firing or wg.Wait has returned. An attempt that loses the CAS
// releases its own live.Result on its own goroutine; the winner's is
// res, which the caller releases.
type hedgeRun struct {
	ps     *planState
	prog   *live.Program
	rec    obs.Recorder
	delay  time.Duration
	ctx    context.Context
	cancel context.CancelFunc
	timer  *time.Timer

	claim  atomic.Uint32
	wg     sync.WaitGroup
	res    *live.Result
	hedged bool
}

var hedgeRuns = sync.Pool{New: func() any { return new(hedgeRun) }}

// runHedged executes the invocation with a hedge armed. The primary
// attempt runs on the caller's goroutine, on the lease the caller
// already holds; if it has not completed after delay, the timer's
// goroutine leases a second instance (subject to the global
// HedgeMaxInflight cap) and re-issues the invocation on it. A CAS
// decides the winner, which cancels the context both attempts share,
// and runHedged does not return until the armed attempt has unwound —
// no goroutine outlives the request, and both leases are returned.
//
// winner reports which attempt's result was delivered (0 primary,
// 1 hedge); hedged reports whether the second attempt was launched at
// all.
func (a *App) runHedged(ctx context.Context, ps *planState, prog *live.Program, runRec obs.Recorder, delay time.Duration) (res *live.Result, hedged bool, winner int, err error) {
	h := hedgeRuns.Get().(*hedgeRun)
	h.ps, h.prog, h.rec, h.delay = ps, prog, runRec, delay
	h.ctx, h.cancel = context.WithCancel(ctx)
	h.wg.Add(1)
	if h.timer == nil {
		h.timer = time.AfterFunc(delay, h.hedge)
	} else {
		h.timer.Reset(delay)
	}

	r, err := prog.Run(h.ctx, a.liveOptions(runRec))
	ps.pool.release(time.Now())
	if err == nil && h.claim.CompareAndSwap(0, 1) {
		h.res = r
		h.cancel()
	} else {
		r.Release() // the hedge won, or r is a failed run's nil
	}
	if h.timer.Stop() {
		h.wg.Done() // the hedge never fired: nothing to wait for
	}
	h.wg.Wait()
	h.cancel()

	res, hedged, winner = h.res, h.hedged, int(h.claim.Load())-1
	h.ps, h.prog, h.rec, h.ctx, h.cancel, h.res, h.hedged = nil, nil, nil, nil, nil, nil, false
	h.claim.Store(0)
	hedgeRuns.Put(h)
	if winner < 0 {
		// Every attempt failed; the primary's error is the request's.
		return nil, hedged, 0, err
	}
	return res, hedged, winner, nil
}

// hedge is the timer callback: the primary is past the quantile, so
// launch the second attempt, unless the global cap says the cure has
// become the disease. Like a timer that fired, it arms even when the
// primary finished in the meantime: under CPU pressure the runtime may
// run this goroutine after the primary's own wake-up, and the request
// still ran past its delay.
func (h *hedgeRun) hedge() {
	defer h.wg.Done()
	a := h.ps.pool.app
	if a.hedgeInflight.Add(1) > int64(a.opt.HedgeMaxInflight) {
		a.hedgeInflight.Add(-1)
		return
	}
	defer a.hedgeInflight.Add(-1)
	h.hedged = true
	a.m.hedges.Inc()
	if h.rec != nil {
		h.rec.RecordInstant(obs.Instant{
			Name: "hedge.armed", Cat: obs.CatHedge,
			At: time.Duration(float64(h.delay) / a.opt.Scale),
		})
	}
	// The hedge leases its own instance. A cold boot the primary's win
	// cuts short still joins the pool.
	if _, err := h.ps.pool.acquire(h.ctx, true); err != nil {
		return
	}
	r, err := h.prog.Run(h.ctx, a.liveOptions(h.rec))
	h.ps.pool.release(time.Now())
	if err == nil && h.claim.CompareAndSwap(0, 2) {
		h.res = r
		h.cancel()
	} else {
		r.Release() // the primary won, or r is a failed run's nil
	}
}
