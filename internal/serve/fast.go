package serve

import (
	"context"
	"fmt"
	"time"

	"chiron/internal/live"
	"chiron/internal/obs"
	"chiron/internal/obs/flight"
)

// This file is the binary-ingress fast path: workflows addressed by
// name hash instead of strings, admission split from execution so the
// UDP receive loop can admit a packet without allocating, and a
// value-typed result small enough to encode straight into a response
// datagram. The HTTP path shares every stage below admission — both
// protocols drain into one admission queue and one warm pool per
// workflow.

// HashName is the wire identity of a workflow: FNV-64a over its name.
// The UDP protocol carries this hash instead of the name so the invoke
// header stays fixed-layout, and AdmitHash resolves it through the
// App's copy-on-write registry snapshot without locks or allocation.
// Register refuses a name whose hash is already taken (ErrHashCollision).
func HashName(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// FastResult is the value-typed invocation summary for binary protocol
// responses: everything InvokeResult reports except the per-function
// timeline, with no heap allocation.
type FastResult struct {
	PlanVersion int64
	Cold        bool
	ColdStart   time.Duration
	QueueWait   time.Duration
	E2E         time.Duration
	// InvocationID is the request's correlation id: the UDP header's
	// client-chosen id on that plane, gateway-generated for HTTP. Hedged
	// attempts share it. Nothing dedupes on it — a retransmitted datagram
	// executes again; exactly-once delivery within a request comes from
	// the hedge CAS.
	InvocationID uint64
	// Hedged reports that a second instance was leased and the same
	// invocation re-issued on it (the first completion was returned).
	Hedged bool
	// TraceID is non-zero when the flight recorder retained this
	// request's trace (fetch via /debug/flight/trace?id=). Server-side
	// only — it is not part of the UDP wire format.
	TraceID uint64
}

// Admitted is one admitted-but-not-yet-executed invocation: it owns an
// admission slot and a drain-barrier unit. Callers must finish it with
// exactly one of Execute or Release. It is a value type so the
// receive→parse→admit step stays allocation-free.
type Admitted struct {
	app  *App
	wf   *workflowState
	wait time.Duration
	id   uint64
}

// AdmitHash admits one invocation of the workflow registered under
// HashName(name) with a gateway-generated invocation id. See
// AdmitHashID.
func (a *App) AdmitHash(ctx context.Context, h uint64) (Admitted, error) {
	return a.AdmitHashID(ctx, h, a.invSeq.Add(1))
}

// AdmitHashID admits one invocation of the workflow registered under
// HashName(name), blocking in the shared admission queue exactly like an
// HTTP request (ctx bounds the queue wait; its deadline orders the
// queue by remaining slack). id is the caller's correlation id — the
// UDP plane passes its wire header's id so hedged re-issues and
// completion replies stay correlated end to end. On the happy path
// — index hit, active plan, free slot — it performs zero heap
// allocations. Errors: ErrNotFound (unknown hash), ErrNoPlan,
// ErrDraining, context.DeadlineExceeded (deadline already expired), or
// an *OverloadError from admission.
func (a *App) AdmitHashID(ctx context.Context, h, id uint64) (Admitted, error) {
	wf := a.index.Load().byHash[h]
	if wf == nil {
		return Admitted{}, errUnknownWorkflow
	}
	if wf.active.Load() == nil {
		return Admitted{}, ErrNoPlan
	}
	if err := a.trackOne(); err != nil {
		return Admitted{}, err
	}
	wait, err := wf.adm.admit(ctx)
	if err != nil {
		a.untrack()
		return Admitted{}, err
	}
	return Admitted{app: a, wf: wf, wait: wait, id: id}, nil
}

// Release abandons an admitted invocation without executing it,
// returning the slot and the drain unit. Allocation-free.
func (ad Admitted) Release() {
	if ad.app == nil {
		return
	}
	ad.wf.adm.done()
	ad.app.untrack()
}

// Execute runs the admitted invocation on the workflow's active plan and
// warm pool, releasing the slot and drain unit when done.
func (ad Admitted) Execute(ctx context.Context) (FastResult, error) {
	a := ad.app
	defer a.untrack()
	defer ad.wf.adm.done()
	_, fast, err := a.executeAdmitted(ctx, ad.wf, ad.wait, ad.id, nil)
	return fast, err
}

// executeAdmitted is the execution core shared by the HTTP and UDP
// paths: epoch load, behaviour snapshot, warm-pool lease, live run
// (hedged when armed), then metric and controller feedback. The caller
// holds an admission slot (released by the caller, not here).
func (a *App) executeAdmitted(ctx context.Context, wf *workflowState, wait time.Duration, id uint64, rec obs.Recorder) (*live.Result, FastResult, error) {
	a.m.inflight.Add(1)
	defer a.m.inflight.Add(-1)

	// Load the epoch after the queue wait: if a swap happened while we
	// queued, execute on the fresh plan; requests already past this
	// point keep their epoch (the old pool drains them). The behaviour
	// snapshot is taken at the same instant so a re-registration that
	// landed during the wait cannot pair stale specs with a fresh plan.
	ps := wf.active.Load()
	if ps == nil {
		return nil, FastResult{}, ErrNoPlan
	}
	beh := wf.snapshot()

	// Every admitted request records into a pooled flight recorder; an
	// explicit ?trace=1 recorder tees on top. Finish decides retention
	// from hindsight (slow/error/SLO/hedged/adapt-coincident) and
	// recycles the recorder either way.
	fl := a.opt.Flight
	fr := fl.Acquire()
	runRec := obs.Tee(fr, rec)
	sloNow := wf.adm.slo()
	start := time.Now()

	cold, err := ps.pool.acquire(ctx, false)
	if err != nil {
		fl.Finish(fr, flight.Info{
			Workflow: wf.name, Latency: a.nominalSince(start) + wait, SLO: sloNow, Err: err,
		})
		return nil, FastResult{}, err
	}

	// The hedge delay is computed per request from the lock-free
	// bias-corrected prediction; zero keeps the plain single-attempt
	// path, byte-identical to a build without hedging.
	var (
		res    *live.Result
		hedged bool
		winner int
	)
	execStart := time.Now()
	prog, err := ps.program(wf, beh)
	if err != nil {
		ps.pool.release(time.Now())
	} else if delay := a.hedgeDelay(wf); delay > 0 {
		res, hedged, winner, err = a.runHedged(ctx, ps, prog, runRec, delay)
	} else {
		res, err = prog.Run(ctx, a.liveOptions(runRec))
		ps.pool.release(time.Now())
	}
	if err != nil {
		a.m.errors.Inc()
		fl.Finish(fr, flight.Info{
			Workflow: wf.name, Latency: a.nominalSince(start) + wait, SLO: sloNow, Err: err,
		})
		if isPlacementErr(err) {
			return nil, FastResult{}, fmt.Errorf("%w: %v", ErrStalePlan, err)
		}
		return nil, FastResult{}, err
	}

	coldCost := time.Duration(0)
	if cold {
		coldCost = a.opt.Const.ColdStart
	}

	// A hedged request's end-to-end time is measured, not modelled: it
	// spans the hedge delay plus whichever attempt finished first (and
	// folds in the hedge instance's boot, which happened inside the
	// window). The primary's cold boot stays charged separately so the
	// non-hedged accounting is unchanged.
	e2e := res.E2E
	if hedged {
		e2e = a.nominalSince(execStart)
		if winner == 1 {
			a.m.hedgeWins.Inc()
		} else {
			a.m.hedgeWasted.Inc()
		}
	}

	total := wait + coldCost + e2e
	a.m.requests.Inc()
	a.m.latency.Observe(total)
	wf.adm.observe(res.E2E)
	wf.feed(res.E2E)

	traceID, kept := fl.Finish(fr, flight.Info{
		Workflow: wf.name, Latency: total, SLO: sloNow, Hedged: hedged,
	})
	if kept {
		// Exemplar: the latency bucket this request landed in now points
		// at a fetchable trace.
		a.m.latency.SetExemplar(total, traceID)
	}

	return res, FastResult{
		PlanVersion:  ps.version,
		Cold:         cold,
		ColdStart:    coldCost,
		QueueWait:    wait,
		E2E:          e2e,
		InvocationID: id,
		Hedged:       hedged,
		TraceID:      traceID,
	}, nil
}

// liveOptions are the executor options every attempt of a request runs
// with.
func (a *App) liveOptions(rec obs.Recorder) live.Options {
	return live.Options{
		Const:   a.opt.Const,
		Scale:   a.opt.Scale,
		Timeout: a.opt.RequestTimeout,
		Rec:     rec,
	}
}

// nominalSince converts elapsed wall time back into nominal (unscaled)
// time, matching how latency metrics are reported elsewhere.
func (a *App) nominalSince(start time.Time) time.Duration {
	el := time.Since(start)
	if s := a.opt.Scale; s > 0 && s != 1 {
		return time.Duration(float64(el) / s)
	}
	return el
}
