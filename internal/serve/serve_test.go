package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/obs"
)

// testWorkflow builds a small 2-stage workflow whose function cost is
// parameterized, so drift can be induced by re-registering with a
// heavier cpu.
func testWorkflow(cpu time.Duration) *dag.Workflow {
	mk := func(name string) *behavior.Spec {
		return &behavior.Spec{
			Name: name, Runtime: behavior.Python,
			Segments: []behavior.Segment{
				{Kind: behavior.CPU, Dur: cpu},
				{Kind: behavior.NetIO, Dur: cpu / 2},
			},
			MemMB: 64,
		}
	}
	w, err := dag.FromStages("wf-test", 0,
		[]*behavior.Spec{mk("f1")},
		[]*behavior.Spec{mk("f2"), mk("f3")},
	)
	if err != nil {
		panic(err)
	}
	return w
}

// testApp builds an App that is drained when the test ends, after
// which the serving plane's accounting must be back at rest: every test
// built on it, hedge, deadline and stampede tests included, ends with a
// CheckInvariants pass at quiescence.
func testApp(t *testing.T, opt Options) *App {
	t.Helper()
	if opt.Reg == nil {
		opt.Reg = obs.NewRegistry()
	}
	a := New(opt)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := a.Shutdown(ctx); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		if err := a.CheckInvariants(); err != nil {
			t.Errorf("serving-plane invariants at quiescence: %v", err)
		}
	})
	return a
}

func mustPlan(t *testing.T, a *App, name string, slo time.Duration) *PlanInfo {
	t.Helper()
	info, err := a.PlanWorkflow(name, slo)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestRegisterPlanInvoke(t *testing.T) {
	a := testApp(t, Options{Scale: 0.05, Window: 4})
	created, err := a.Register(testWorkflow(4 * time.Millisecond))
	if err != nil || !created {
		t.Fatalf("register: created=%v err=%v", created, err)
	}
	// Invoke before plan must be refused.
	if _, err := a.Invoke(context.Background(), "wf-test", nil); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("invoke without plan: %v", err)
	}
	info := mustPlan(t, a, "wf-test", 400*time.Millisecond)
	if info.Version != 1 || info.Predicted <= 0 {
		t.Fatalf("plan info %+v", info)
	}
	res, err := a.Invoke(context.Background(), "wf-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cold {
		t.Fatal("first invocation should be cold")
	}
	if res.PlanVersion != 1 || len(res.Functions) != 3 || res.E2EMs <= 0 {
		t.Fatalf("result %+v", res)
	}
	if res.TotalMs < res.E2EMs+res.ColdStartMs {
		t.Fatalf("total %v < e2e %v + cold %v", res.TotalMs, res.E2EMs, res.ColdStartMs)
	}
}

func TestWarmPoolReuseAndKeepAlive(t *testing.T) {
	reg := obs.NewRegistry()
	a := testApp(t, Options{Scale: 0.05, KeepAlive: 40 * time.Millisecond, Reg: reg})
	if _, err := a.Register(testWorkflow(4 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)

	for i := 0; i < 5; i++ {
		if _, err := a.Invoke(context.Background(), "wf-test", nil); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	cold := reg.Counter("chiron_serve_coldstarts_total", "").Value()
	warm := reg.Counter("chiron_serve_warmhits_total", "").Value()
	if cold != 1 {
		t.Fatalf("cold starts = %d, want 1 (steady sequential load must reuse the warm instance)", cold)
	}
	if warm != 4 {
		t.Fatalf("warm hits = %d, want 4", warm)
	}

	// Past the keep-alive the instance is evicted and the next request
	// boots cold again.
	deadline := time.Now().Add(3 * time.Second)
	for reg.Gauge("chiron_serve_warm_instances", "").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("warm instance not evicted after keep-alive")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := a.Invoke(context.Background(), "wf-test", nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("chiron_serve_coldstarts_total", "").Value(); got != 2 {
		t.Fatalf("cold starts after eviction = %d, want 2", got)
	}
}

func TestAdmissionSLORejection(t *testing.T) {
	a := testApp(t, Options{Scale: 1})
	adm := newAdmission(a, 1, 10, 1)
	adm.setSLO(100 * time.Millisecond)
	adm.prime(80 * time.Millisecond)

	if _, err := adm.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Slot taken; the next request's estimated sojourn (80ms wait + 80ms
	// service) busts the 100ms SLO.
	_, err := adm.admit(context.Background())
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("expected OverloadError, got %v", err)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("retry-after %v", ov.RetryAfter)
	}
	adm.done()
	if _, err := adm.admit(context.Background()); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	a := testApp(t, Options{Scale: 1})
	adm := newAdmission(a, 1, 1, 1)
	adm.prime(10 * time.Millisecond) // no SLO: only the depth bound applies

	if _, err := adm.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	waiting := make(chan error, 1)
	go func() {
		_, err := adm.admit(context.Background())
		waiting <- err
	}()
	// Wait for the queued request to occupy the single queue seat.
	deadline := time.Now().Add(2 * time.Second)
	for adm.depth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never registered")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := adm.admit(context.Background())
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("expected queue-full OverloadError, got %v", err)
	}
	adm.done() // serve the queued request
	if err := <-waiting; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	a := testApp(t, Options{Scale: 0.5})
	if _, err := a.Register(testWorkflow(40 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 2*time.Second)

	started := make(chan struct{})
	invoked := make(chan error, 1)
	go func() {
		close(started)
		_, err := a.Invoke(context.Background(), "wf-test", nil)
		invoked <- err
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the invocation enter execution
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-invoked; err != nil {
		t.Fatalf("in-flight invocation dropped during drain: %v", err)
	}
	if _, err := a.Invoke(context.Background(), "wf-test", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain invoke: %v", err)
	}
}

// drainObservations waits until the controller loop has consumed every
// queued observation and finished acting on the last one (the in-flight
// Observe holds wf.mu, so locking it is the completion barrier).
func drainObservations(t *testing.T, wf *workflowState) {
	t.Helper()
	waitFor(t, func() bool { return len(wf.obsCh) == 0 })
	wf.mu.Lock()
	_ = wf.ctrl
	wf.mu.Unlock()
}

// feedWindow injects one full controller window of identical latencies
// at the same point real serving feeds them (wf.feed), making the
// "constant executor overhead" of the churn bug deterministic.
func feedWindow(t *testing.T, wf *workflowState, lat time.Duration, window int) {
	t.Helper()
	for i := 0; i < window; i++ {
		wf.feed(lat)
	}
	drainObservations(t, wf)
}

// TestConstantOverheadDoesNotChurn is the serving-plane regression test
// for the re-plan churn bug: a constant executor overhead (every served
// latency = 2x the prediction, well past the 1.3x drift trigger) must
// calibrate away after the first window — chiron_serve_replans_total
// stays at 0 — while a genuine behaviour drift afterwards still
// triggers exactly one re-plan.
func TestConstantOverheadDoesNotChurn(t *testing.T) {
	const window = 4
	reg := obs.NewRegistry()
	a := testApp(t, Options{Scale: 0.05, Reg: reg, Window: window})
	if _, err := a.Register(testWorkflow(4 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Generous SLO: the overhead is a bias, not a violation.
	info := mustPlan(t, a, "wf-test", 5*time.Second)
	wf, err := a.workflow("wf-test")
	if err != nil {
		t.Fatal(err)
	}

	replans := func() uint64 { return reg.Counter("chiron_serve_replans_total", "").Value() }
	biased := time.Duration(2.0 * float64(info.Predicted))
	for w := 0; w < 6; w++ {
		feedWindow(t, wf, biased, window)
	}
	if got := replans(); got != 0 {
		t.Fatalf("constant 2x overhead caused %d re-plans, want 0 (churn bug)", got)
	}
	if got := reg.Counter("chiron_serve_replans_suppressed_total", "").Value(); got != 0 {
		t.Fatalf("constant overhead tripped %d suppressed triggers, want 0", got)
	}
	if b := reg.Gauge("chiron_adapt_bias", "").Value(); b < 1900 || b > 2100 {
		t.Fatalf("bias gauge = %d, want ~2000 (observed/predicted x1000)", b)
	}

	// Genuine drift: the behaviour itself gets 6x heavier, and observed
	// latency under the stale plan jumps far past the corrected
	// baseline. Exactly one adaptation must follow.
	if _, err := a.Register(testWorkflow(24 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	feedWindow(t, wf, 8*info.Predicted, window)
	if got := replans(); got != 1 {
		t.Fatalf("genuine drift caused %d re-plans, want exactly 1", got)
	}
	cur, err := a.ActivePlan("wf-test")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 2 {
		t.Fatalf("post-drift plan version %d, want 2", cur.Version)
	}

	// Post-swap steady state at the new plan's own latency: probation
	// passes, the controller re-calibrates, and nothing else churns.
	for w := 0; w < 5; w++ {
		feedWindow(t, wf, cur.Predicted, window)
	}
	if got := replans(); got != 1 {
		t.Fatalf("post-swap churn: %d re-plans, want still 1", got)
	}
	st, err := a.WorkflowStatus("wf-test")
	if err != nil {
		t.Fatal(err)
	}
	if st.Replans != 1 || st.Rollbacks != 0 {
		t.Fatalf("status replans=%d rollbacks=%d, want 1/0", st.Replans, st.Rollbacks)
	}
}

// TestAutoRollbackOnPostSwapRegression: when the first full window after
// an adaptive swap is worse than the pre-swap baseline, the serving
// plane restores the prior plan epoch on its own.
func TestAutoRollbackOnPostSwapRegression(t *testing.T) {
	const window = 4
	reg := obs.NewRegistry()
	a := testApp(t, Options{Scale: 0.05, Reg: reg, Window: window})
	if _, err := a.Register(testWorkflow(4 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	info := mustPlan(t, a, "wf-test", 5*time.Second)
	wf, err := a.workflow("wf-test")
	if err != nil {
		t.Fatal(err)
	}

	// Calibrate (bias 1) and clear the cooldown, then drift for real.
	for w := 0; w < 3; w++ {
		feedWindow(t, wf, info.Predicted, window)
	}
	if _, err := a.Register(testWorkflow(24 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	preSwap := 8 * info.Predicted
	feedWindow(t, wf, preSwap, window)
	if got := reg.Counter("chiron_serve_replans_total", "").Value(); got != 1 {
		t.Fatalf("drift caused %d re-plans, want 1", got)
	}

	// The swap made things WORSE: the probation window regresses past
	// RollbackGuard x the pre-swap mean, so the controller rolls back.
	feedWindow(t, wf, 2*preSwap, window)
	if got := reg.Counter("chiron_serve_rollbacks_total", "").Value(); got != 1 {
		t.Fatalf("rollbacks_total = %d, want 1", got)
	}
	cur, err := a.ActivePlan("wf-test")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Predicted != info.Predicted {
		t.Fatalf("rolled-back prediction %v, want the original %v", cur.Predicted, info.Predicted)
	}
	if cur.Version != 3 {
		t.Fatalf("post-rollback version %d, want 3 (v1 restored as a fresh epoch)", cur.Version)
	}
	st, err := a.WorkflowStatus("wf-test")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rollbacks != 1 {
		t.Fatalf("status rollbacks = %d, want 1", st.Rollbacks)
	}
	found := false
	for _, v := range st.History {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("regressed epoch 2 missing from history %v", st.History)
	}

	// The restored plan keeps serving: quiet windows recalibrate without
	// further churn, and invocations execute on it.
	feedWindow(t, wf, info.Predicted, window)
	if got := reg.Counter("chiron_serve_rollbacks_total", "").Value(); got != 1 {
		t.Fatalf("rollback churned: %d rollbacks", got)
	}
	if _, err := a.Invoke(context.Background(), "wf-test", nil); err != nil {
		t.Fatalf("invoke on restored plan: %v", err)
	}
}

func TestStalePlanReported(t *testing.T) {
	a := testApp(t, Options{Scale: 0.05})
	if _, err := a.Register(testWorkflow(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)
	// Re-register with an extra function: the active plan has no
	// placement for it.
	w := testWorkflow(2 * time.Millisecond)
	w.Stages[0].Functions = append(w.Stages[0].Functions, &behavior.Spec{
		Name: "f-new", Runtime: behavior.Python,
		Segments: []behavior.Segment{{Kind: behavior.CPU, Dur: time.Millisecond}},
		MemMB:    8,
	})
	if _, err := a.Register(w); err != nil {
		t.Fatal(err)
	}
	_, err := a.Invoke(context.Background(), "wf-test", nil)
	if !errors.Is(err, ErrStalePlan) {
		t.Fatalf("expected ErrStalePlan, got %v", err)
	}
	// Re-planning heals it.
	mustPlan(t, a, "wf-test", 400*time.Millisecond)
	if _, err := a.Invoke(context.Background(), "wf-test", nil); err != nil {
		t.Fatal(err)
	}
}
