package serve

import (
	"context"
	"sync/atomic"
	"time"

	"chiron/internal/live"
	"chiron/internal/obs"
)

// Request hedging (the Archipelago trick): once a request has been
// executing for a configurable quantile of its plan's bias-corrected
// predicted latency, a second warm instance is leased and the same
// invocation re-issued on it. The first completion wins; the loser's
// context is cancelled and its instance returned. All hedge state is
// per-request stack state — nothing persists between invocations, so a
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

// hedgeAttempt is one attempt's completion. won marks the attempt that
// claimed the per-request result race — at most one attempt ever has
// it, which is what makes result delivery exactly once.
type hedgeAttempt struct {
	res  *live.Result
	err  error
	idx  int // 0 = primary, 1 = hedge
	cold bool
	won  bool
}

// runHedged executes the invocation with a hedge armed. The primary
// attempt starts immediately on the lease the caller already holds; if
// it has not completed after delay, a second instance is leased
// (subject to the global HedgeMaxInflight cap) and the invocation
// re-issued on it. A CAS over per-request state decides the winner, the
// loser's context is cancelled, and runHedged does not return until
// every attempt it started has fully unwound — no goroutine outlives
// the request, and both leases are always returned.
//
// winner reports which attempt's result was delivered (0 primary,
// 1 hedge); hedged reports whether the second attempt was launched at
// all.
func (a *App) runHedged(ctx context.Context, ps *planState, prog *live.Program, runRec obs.Recorder, delay time.Duration) (res *live.Result, hedged bool, winner int, err error) {
	var claim atomic.Uint32
	done := make(chan hedgeAttempt, 2)
	primCtx, cancelPrim := context.WithCancel(ctx)
	defer cancelPrim()
	hedgeCtx, cancelHedge := context.WithCancel(ctx)
	defer cancelHedge()

	run := func(rctx context.Context, idx int, cold bool) {
		r, rerr := prog.Run(rctx, a.liveOptions(runRec))
		ps.pool.release(time.Now())
		won := rerr == nil && claim.CompareAndSwap(0, uint32(idx)+1)
		done <- hedgeAttempt{res: r, err: rerr, idx: idx, cold: cold, won: won}
	}
	go run(primCtx, 0, false)

	outstanding := 1
	var first *hedgeAttempt
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case at := <-done:
		first = &at
	case <-timer.C:
		// The primary is past the quantile: arm the hedge, unless the
		// global cap says the cure has become the disease.
		if a.hedgeInflight.Add(1) > int64(a.opt.HedgeMaxInflight) {
			a.hedgeInflight.Add(-1)
		} else {
			hedged = true
			outstanding = 2
			a.m.hedges.Inc()
			if runRec != nil {
				runRec.RecordInstant(obs.Instant{
					Name: "hedge.armed", Cat: obs.CatHedge,
					At: time.Duration(float64(delay) / a.opt.Scale),
				})
			}
			go func() {
				defer a.hedgeInflight.Add(-1)
				// The hedge leases its own instance; a cancelled boot is
				// unwound by acquireN's rollback accounting.
				cold, aerr := ps.pool.acquire(hedgeCtx)
				if aerr != nil {
					done <- hedgeAttempt{err: aerr, idx: 1}
					return
				}
				run(hedgeCtx, 1, cold)
			}()
		}
	}

	// Drain every attempt before returning. The first successful
	// completion claims the race and cancels the loser, whose Run
	// tears down promptly (its sleeps select on ctx.Done); a loser that
	// finished before the cancellation landed simply loses the CAS.
	var win hedgeAttempt
	haveWin := false
	var primErr error
	received := 0
	handle := func(at hedgeAttempt) {
		received++
		if at.idx == 0 {
			primErr = at.err
		}
		if at.won && !haveWin {
			win, haveWin = at, true
			cancelPrim()
			cancelHedge()
		}
	}
	if first != nil {
		handle(*first)
	}
	for received < outstanding {
		handle(<-done)
	}
	if !haveWin {
		// Every attempt failed; the primary's error is the request's.
		return nil, hedged, 0, primErr
	}
	return win.res, hedged, win.idx, nil
}
