package live

import (
	"fmt"
	"testing"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/engine"
	"chiron/internal/model"
	"chiron/internal/wrap"
)

// Live runs ride the wall clock, so every assertion here is an envelope,
// not an equality; the workloads are tens of milliseconds to keep the
// suite fast while dwarfing scheduler noise.

func cpuFn(name string, d time.Duration) *behavior.Spec {
	return &behavior.Spec{
		Name: name, Runtime: behavior.Python,
		Segments: []behavior.Segment{{Kind: behavior.CPU, Dur: d}},
		MemMB:    1,
	}
}

func sleepFn(name string, d time.Duration) *behavior.Spec {
	return &behavior.Spec{
		Name: name, Runtime: behavior.Python,
		Segments: []behavior.Segment{{Kind: behavior.Sleep, Dur: d}},
		MemMB:    1,
	}
}

func singleWrapPlan(w *dag.Workflow, groups map[string]int, cpus int) *wrap.Plan {
	p := &wrap.Plan{Workflow: w.Name, Loc: map[string]wrap.Loc{}}
	for name, proc := range groups {
		p.Loc[name] = wrap.Loc{Sandbox: 0, Proc: proc}
	}
	p.Sandboxes = []wrap.SandboxCfg{{CPUs: cpus}}
	return p
}

func opts() Options {
	return Options{Const: model.Default(), Timeout: 20 * time.Second}
}

func TestGILSerializesCPUThreads(t *testing.T) {
	w, err := dag.FromStages("wf", 0, []*behavior.Spec{
		cpuFn("a", 30*time.Millisecond), cpuFn("b", 30*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := singleWrapPlan(w, map[string]int{"a": 0, "b": 0}, 1)
	res, err := Run(w, plan, opts())
	if err != nil {
		t.Fatal(err)
	}
	// Two 30ms CPU threads under a real token GIL: >= ~60ms.
	if res.E2E < 55*time.Millisecond {
		t.Fatalf("E2E %v below serialized floor; GIL not enforced", res.E2E)
	}
	if res.E2E > 120*time.Millisecond {
		t.Fatalf("E2E %v implausibly slow", res.E2E)
	}
}

func TestSleepsOverlapUnderGIL(t *testing.T) {
	w, err := dag.FromStages("wf", 0, []*behavior.Spec{
		sleepFn("a", 40*time.Millisecond), sleepFn("b", 40*time.Millisecond),
		sleepFn("c", 40*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := singleWrapPlan(w, map[string]int{"a": 0, "b": 0, "c": 0}, 1)
	res, err := Run(w, plan, opts())
	if err != nil {
		t.Fatal(err)
	}
	if res.E2E > 80*time.Millisecond {
		t.Fatalf("E2E %v: blocking spans did not overlap", res.E2E)
	}
}

func TestForkedProcessesRunTrulyParallel(t *testing.T) {
	w, err := dag.FromStages("wf", 0, []*behavior.Spec{
		cpuFn("a", 40*time.Millisecond), cpuFn("b", 40*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := singleWrapPlan(w, map[string]int{"a": 1, "b": 2}, 2)
	res, err := Run(w, plan, opts())
	if err != nil {
		t.Fatal(err)
	}
	c := model.Default()
	// Parallel: ~max(40) + fork costs + IPC, far below the 80ms serial sum.
	ceiling := 40*time.Millisecond + c.ProcBlockStep + c.ProcStartup + c.IPCCost + 25*time.Millisecond
	if res.E2E > ceiling {
		t.Fatalf("E2E %v exceeds parallel ceiling %v", res.E2E, ceiling)
	}
}

func TestJavaThreadsNoGIL(t *testing.T) {
	mk := func(rt behavior.Runtime) time.Duration {
		a, b := cpuFn("a", 40*time.Millisecond), cpuFn("b", 40*time.Millisecond)
		a.Runtime, b.Runtime = rt, rt
		w, err := dag.FromStages("wf", 0, []*behavior.Spec{a, b})
		if err != nil {
			t.Fatal(err)
		}
		plan := singleWrapPlan(w, map[string]int{"a": 0, "b": 0}, 2)
		res, err := Run(w, plan, opts())
		if err != nil {
			t.Fatal(err)
		}
		return res.E2E
	}
	py := mk(behavior.Python)
	jv := mk(behavior.Java)
	if jv >= py-15*time.Millisecond {
		t.Fatalf("Java threads (%v) should clearly beat GIL threads (%v)", jv, py)
	}
}

func TestStagesAreOrdered(t *testing.T) {
	w, err := dag.FromStages("wf", 0,
		[]*behavior.Spec{cpuFn("head", 10*time.Millisecond)},
		[]*behavior.Spec{cpuFn("tail", 10*time.Millisecond)},
	)
	if err != nil {
		t.Fatal(err)
	}
	plan := singleWrapPlan(w, map[string]int{"head": 0, "tail": 0}, 1)
	res, err := Run(w, plan, opts())
	if err != nil {
		t.Fatal(err)
	}
	var head, tail FnTiming
	for _, ft := range res.Functions {
		if ft.Name == "head" {
			head = ft
		} else {
			tail = ft
		}
	}
	if tail.Start < head.Finish {
		t.Fatalf("stage 1 started (%v) before stage 0 finished (%v)", tail.Start, head.Finish)
	}
}

func TestPoolBoundsCPUs(t *testing.T) {
	var fns []*behavior.Spec
	names := map[string]int{}
	for i := 0; i < 4; i++ {
		n := fmt.Sprintf("t%d", i)
		fns = append(fns, cpuFn(n, 30*time.Millisecond))
		names[n] = i + 1
	}
	w, err := dag.FromStages("wf", 0, fns)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cpus int) time.Duration {
		plan := singleWrapPlan(w, names, cpus)
		plan.Sandboxes[0].Pool = true
		plan.Sandboxes[0].Workers = 4
		res, err := Run(w, plan, opts())
		if err != nil {
			t.Fatal(err)
		}
		return res.E2E
	}
	wide := mk(4)
	narrow := mk(1)
	if narrow < 110*time.Millisecond {
		t.Fatalf("1-CPU pool finished 4x30ms in %v; cpuset not enforced", narrow)
	}
	if wide > 75*time.Millisecond {
		t.Fatalf("4-CPU pool took %v; tasks did not parallelize", wide)
	}
}

func TestBindingsRunRealCode(t *testing.T) {
	w, err := dag.FromStages("wf", 0,
		[]*behavior.Spec{cpuFn("produce", time.Millisecond)},
		[]*behavior.Spec{cpuFn("consume", time.Millisecond)},
	)
	if err != nil {
		t.Fatal(err)
	}
	plan := singleWrapPlan(w, map[string]int{"produce": 0, "consume": 0}, 1)
	o := opts()
	o.Bindings = map[string]Fn{
		"produce": func(c *Ctx) error {
			c.Store.Put("k", []byte("hello from stage 0"))
			return nil
		},
		"consume": func(c *Ctx) error {
			v, err := c.Store.Get("k")
			if err != nil {
				return err
			}
			c.Store.Put("out", append(v, '!'))
			return nil
		},
	}
	res, err := Run(w, plan, o)
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Store.Get("out")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hello from stage 0!" {
		t.Fatalf("bound pipeline produced %q", out)
	}

	// Replayed segments touch no store, so an unbound run makes none.
	o.Bindings = nil
	if res, err = Run(w, plan, o); err != nil {
		t.Fatal(err)
	}
	if res.Store != nil {
		t.Fatal("a run with no bound function has a store")
	}
}

func TestBindingErrorPropagates(t *testing.T) {
	w, err := dag.FromStages("wf", 0, []*behavior.Spec{cpuFn("boom", time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	plan := singleWrapPlan(w, map[string]int{"boom": 0}, 1)
	o := opts()
	o.Bindings = map[string]Fn{
		"boom": func(*Ctx) error { return fmt.Errorf("exploded") },
	}
	if _, err := Run(w, plan, o); err == nil {
		t.Fatal("binding error swallowed")
	}
}

func TestScaleSpeedsUpWallTime(t *testing.T) {
	w, err := dag.FromStages("wf", 0, []*behavior.Spec{sleepFn("s", 200*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	plan := singleWrapPlan(w, map[string]int{"s": 0}, 1)
	o := opts()
	o.Scale = 0.1
	start := time.Now()
	res, err := Run(w, plan, o)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if wall > 120*time.Millisecond {
		t.Fatalf("scaled run took %v wall time, want ~20ms", wall)
	}
	// Nominal time is scaled back.
	if res.E2E < 150*time.Millisecond || res.E2E > 400*time.Millisecond {
		t.Fatalf("nominal E2E %v, want ~200ms", res.E2E)
	}
}

func TestLiveAgreesWithEngineEnvelope(t *testing.T) {
	// Cross-validation: the live executor and the virtual-time engine
	// should land within a loose envelope on the same plan.
	var fns []*behavior.Spec
	groups := map[string]int{}
	for i := 0; i < 4; i++ {
		n := fmt.Sprintf("v%d", i)
		fns = append(fns, &behavior.Spec{
			Name: n, Runtime: behavior.Python,
			Segments: []behavior.Segment{
				{Kind: behavior.CPU, Dur: 8 * time.Millisecond},
				{Kind: behavior.Sleep, Dur: 6 * time.Millisecond},
			},
			MemMB: 1,
		})
		groups[n] = i % 2 // two processes, two threads each
	}
	// Proc 0 is resident main; proc 1 forked.
	w, err := dag.FromStages("wf", 0, fns)
	if err != nil {
		t.Fatal(err)
	}
	plan := singleWrapPlan(w, groups, 2)
	lres, err := Run(w, plan, opts())
	if err != nil {
		t.Fatal(err)
	}
	eres, err := engine.Run(w, plan, engine.Env{Const: model.Default()})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(lres.E2E) / float64(eres.E2E)
	if ratio < 0.6 || ratio > 1.8 {
		t.Fatalf("live %v vs engine %v (ratio %.2f) outside envelope", lres.E2E, eres.E2E, ratio)
	}
}

func TestInvalidPlanRejected(t *testing.T) {
	w, err := dag.FromStages("wf", 0, []*behavior.Spec{cpuFn("a", time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	bad := &wrap.Plan{Workflow: "wf", Loc: map[string]wrap.Loc{}, Sandboxes: []wrap.SandboxCfg{{CPUs: 1}}}
	if _, err := Run(w, bad, opts()); err == nil {
		t.Fatal("invalid plan accepted")
	}
}
