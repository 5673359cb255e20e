package serve

import (
	"context"
	"errors"
	"fmt"

	"chiron/internal/dag"
	"chiron/internal/obs"
	"chiron/internal/profiler"
	"chiron/internal/wrap"
)

// FnTiming is one function's schedule within a served request
// (milliseconds, nominal time).
type FnTiming struct {
	Name     string  `json:"name"`
	Stage    int     `json:"stage"`
	Sandbox  int     `json:"sandbox"`
	StartMs  float64 `json:"start_ms"`
	FinishMs float64 `json:"finish_ms"`
}

// InvokeResult is one served invocation.
type InvokeResult struct {
	Workflow    string  `json:"workflow"`
	PlanVersion int64   `json:"plan_version"`
	Cold        bool    `json:"cold"`
	ColdStartMs float64 `json:"cold_start_ms,omitempty"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	E2EMs       float64 `json:"e2e_ms"`
	TotalMs     float64 `json:"total_ms"`
	// FlightTraceID points at the retained flight trace when tail
	// sampling kept this request (GET /debug/flight/trace?id=...).
	FlightTraceID uint64 `json:"flight_trace_id,omitempty"`
	// InvocationID is the request's correlation id; hedged attempts
	// share it and the hedge CAS delivers exactly one result under it.
	InvocationID uint64 `json:"invocation_id"`
	// Hedged reports that a second instance was leased for this request
	// and the first completion returned.
	Hedged    bool       `json:"hedged,omitempty"`
	Functions []FnTiming `json:"functions"`
}

// Invoke serves one request of the named workflow: admission, warm-pool
// lease, live execution of the *current* behaviour under the active
// plan, then metric and controller feedback. A non-nil rec receives the
// request's spans (the ?trace=1 path).
func (a *App) Invoke(ctx context.Context, name string, rec obs.Recorder) (*InvokeResult, error) {
	release, err := a.track()
	if err != nil {
		return nil, err
	}
	defer release()
	return a.invoke(ctx, name, rec)
}

// invoke is the drain-exempt core: callers must already hold a track()
// release (async invocations acquire theirs at submission, so a drain
// that starts mid-request cannot refuse the execution it is waiting on).
func (a *App) invoke(ctx context.Context, name string, rec obs.Recorder) (*InvokeResult, error) {
	wf, err := a.workflow(name)
	if err != nil {
		return nil, err
	}

	if wf.active.Load() == nil {
		return nil, ErrNoPlan
	}

	wait, err := wf.adm.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer wf.adm.done()

	res, fast, err := a.executeAdmitted(ctx, wf, wait, a.invSeq.Add(1), rec)
	if err != nil {
		return nil, err
	}

	out := &InvokeResult{
		Workflow:    name,
		PlanVersion: fast.PlanVersion,
		Cold:        fast.Cold,
		ColdStartMs: ms(fast.ColdStart),
		QueueWaitMs: ms(fast.QueueWait),
		E2EMs:       ms(fast.E2E),
		// Sum the rounded parts, not ms(total): the reported arithmetic
		// must be exact (total = wait + cold + e2e) for consumers that
		// cross-check the fields.
		TotalMs:       ms(fast.QueueWait) + ms(fast.ColdStart) + ms(fast.E2E),
		FlightTraceID: fast.TraceID,
		InvocationID:  fast.InvocationID,
		Hedged:        fast.Hedged,
		Functions:     make([]FnTiming, len(res.Functions)),
	}
	for i, f := range res.Functions {
		out.Functions[i] = FnTiming{
			Name:     f.Name,
			Stage:    f.Stage,
			Sandbox:  f.Sandbox,
			StartMs:  ms(f.Start),
			FinishMs: ms(f.Finish),
		}
	}
	res.Release()
	return out, nil
}

// isPlacementErr detects plan/behaviour mismatches (wrap validation,
// workflow shape), which the gateway reports as a stale plan rather
// than a server error. Classification is by sentinel, not error text.
func isPlacementErr(err error) bool {
	return errors.Is(err, wrap.ErrPlacement) || errors.Is(err, dag.ErrInvalid)
}

// profileWorkflow profiles every function with the standard options
// (the shared profiler memo makes repeats cheap).
func profileWorkflow(w *dag.Workflow) (profiler.Set, error) {
	return profiler.ProfileWorkflow(w, profiler.DefaultOptions())
}

// ---- async invocations ----

// asyncResult tracks one detached invocation.
type asyncResult struct {
	ID   string        `json:"id"`
	done chan struct{} // closed on completion
	res  *InvokeResult
	err  error
}

// maxAsyncResults bounds the completed-result ring (var so tests can
// shrink it). In-flight entries are never evicted — a poll for a
// running request must not 404 — so the ring may transiently exceed
// the bound while more invocations than the cap are in flight.
var maxAsyncResults = 4096

// evictAsyncLocked trims the oldest *completed* async results until
// the ring is back within maxAsyncResults, preserving submission
// order among survivors. Callers hold resMu.
func (a *App) evictAsyncLocked() {
	excess := len(a.resOrder) - maxAsyncResults
	if excess <= 0 {
		return
	}
	kept := a.resOrder[:0]
	for _, id := range a.resOrder {
		evict := false
		if ar := a.results[id]; ar != nil && excess > 0 {
			select {
			case <-ar.done:
				evict = true
			default: // still running: its goroutine will publish here
			}
		}
		if evict {
			delete(a.results, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	a.resOrder = kept
}

// InvokeAsync starts a detached invocation and returns its id. The
// request runs on a background context bound by RequestTimeout (plus
// queue wait), and counts toward the drain barrier.
func (a *App) InvokeAsync(name string) (string, error) {
	if _, err := a.workflow(name); err != nil {
		return "", err
	}
	release, err := a.track()
	if err != nil {
		return "", err
	}

	a.resMu.Lock()
	a.resSeq++
	id := fmt.Sprintf("r-%d", a.resSeq)
	ar := &asyncResult{ID: id, done: make(chan struct{})}
	a.results[id] = ar
	a.resOrder = append(a.resOrder, id)
	a.evictAsyncLocked()
	a.resMu.Unlock()

	go func() {
		defer release()
		// 4x the request timeout bounds queue wait + cold start + run.
		ctx, cancel := context.WithTimeout(context.Background(), 4*a.opt.RequestTimeout)
		defer cancel()
		ar.res, ar.err = a.invoke(ctx, name, nil)
		close(ar.done)
	}()
	return id, nil
}

// AsyncResult polls a detached invocation: done reports completion;
// result and err are valid only once done.
func (a *App) AsyncResult(id string) (res *InvokeResult, done bool, err error) {
	a.resMu.Lock()
	ar, ok := a.results[id]
	a.resMu.Unlock()
	if !ok {
		return nil, false, fmt.Errorf("serve: request %q: %w", id, ErrNotFound)
	}
	select {
	case <-ar.done:
		return ar.res, true, ar.err
	default:
		return nil, false, nil
	}
}
