package live

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/engine"
	"chiron/internal/model"
	"chiron/internal/pgp"
	"chiron/internal/profiler"
	"chiron/internal/workloads"
	"chiron/internal/wrap"
)

// Tests for the compiled executor: the schedule's envelope, the fixed
// cost of a run, pool dispatch order, seeded stragglers, and agreement
// with package engine.

// attempts is how often a wall-clock envelope may be retried before it
// counts as broken: one late wake-up on a loaded box is noise.
const attempts = 3

// chainProgram compiles a one-function workflow of n sleep segments.
func chainProgram(t *testing.T, n int, seg time.Duration) *Program {
	t.Helper()
	fn := &behavior.Spec{Name: "chain", Runtime: behavior.Python, MemMB: 1}
	for i := 0; i < n; i++ {
		fn.Segments = append(fn.Segments, behavior.Segment{Kind: behavior.Sleep, Dur: seg})
	}
	w, err := dag.FromStages("wf", 0, []*behavior.Spec{fn})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w, singleWrapPlan(w, map[string]int{"chain": 0}, 1))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestScheduleEnvelope: a serial chain finishes within one timer's error
// of its nominal length, however many timers it took — late wake-ups are
// repaid, not accumulated (24 relative sleeps of 1.5 ms used to cost
// about +40%).
func TestScheduleEnvelope(t *testing.T) {
	for _, c := range []struct {
		n     int
		seg   time.Duration
		slack time.Duration
	}{
		{24, 1500 * time.Microsecond, 1500 * time.Microsecond},
		{50, 20 * time.Microsecond, 2 * time.Millisecond},
	} {
		p := chainProgram(t, c.n, c.seg)
		nominal := time.Duration(c.n)*c.seg + model.Default().ThreadStartup
		var res *Result
		for i := 0; i < attempts; i++ {
			var err error
			if res, err = p.Run(context.Background(), opts()); err != nil {
				t.Fatal(err)
			}
			if res.Scheduled != nominal {
				t.Fatalf("%dx%v: scheduled %v, want exactly %v", c.n, c.seg, res.Scheduled, nominal)
			}
			if res.E2E < nominal {
				t.Fatalf("%dx%v: finished in %v, before its schedule %v", c.n, c.seg, res.E2E, nominal)
			}
			if res.E2E <= nominal+c.slack {
				break
			}
		}
		if res.E2E > nominal+c.slack {
			t.Errorf("%dx%v: E2E %v exceeds nominal %v by more than %v", c.n, c.seg, res.E2E, nominal, c.slack)
		}
	}
}

// TestNullRunFixedCost guards the per-request tax of the smallest
// request: no allocation, no frame and no goroutine. A released run
// hands its result and timings to the next one, and an unbound run
// makes no store.
func TestNullRunFixedCost(t *testing.T) {
	w, err := dag.FromStages("null", 0, []*behavior.Spec{cpuFn("f", time.Microsecond)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w, singleWrapPlan(w, map[string]int{"f": 0}, 1))
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Const: model.Default(), Scale: 0.001, Timeout: 30 * time.Second}
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		res, err := p.Run(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}); n > 0 {
		t.Errorf("null run allocates %.0f times, want 0", n)
	}
	if n := len(idleFrames(p)); n != 0 {
		t.Errorf("a Program with no fork point holds %d frames, want 0", n)
	}

	var inside int
	o.Bindings = map[string]Fn{"f": func(*Ctx) error {
		inside = runtime.NumGoroutine()
		return nil
	}}
	before := runtime.NumGoroutine()
	if _, err := p.Run(ctx, o); err != nil {
		t.Fatal(err)
	}
	if inside != before {
		t.Errorf("%d goroutines while the function ran, %d before the run: a single thread must be a plain call", inside, before)
	}
}

// TestPoolLongestFirst: a pool sandbox that asks for longest-first
// admission (Chiron-P) gets it. Two workers, tasks 10/10/10/40 ms in
// stage order: dispatched in that order the 40 ms task starts last and
// the stage takes 50 ms; longest first it overlaps the other three and
// the stage takes 40 ms.
func TestPoolLongestFirst(t *testing.T) {
	durs := []time.Duration{10, 10, 10, 40}
	var fns []*behavior.Spec
	procs := map[string]int{}
	for i, d := range durs {
		name := fmt.Sprintf("t%d", i)
		fns = append(fns, sleepFn(name, d*time.Millisecond))
		procs[name] = i + 1
	}
	w, err := dag.FromStages("wf", 0, fns)
	if err != nil {
		t.Fatal(err)
	}
	run := func(longestFirst bool) *Result {
		plan := singleWrapPlan(w, procs, 2)
		plan.Sandboxes[0] = wrap.SandboxCfg{CPUs: 2, Pool: true, Workers: 2, LongestFirst: longestFirst}
		res, err := Run(w, plan, opts())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Which worker is free first for the third task is a race of two
	// wake-ups one dispatch apart, so stage order has a one-dispatch band.
	if got, lo := run(false).Scheduled, 50*time.Millisecond; got < lo || got > lo+model.Default().PoolDispatch {
		t.Errorf("stage order: scheduled %v, want %v plus at most one dispatch", got, lo)
	}
	var res *Result
	for i := 0; i < attempts; i++ {
		if res = run(true); res.E2E < 45*time.Millisecond {
			break
		}
	}
	if res.Scheduled != 40*time.Millisecond {
		t.Errorf("longest first: scheduled %v, want 40ms", res.Scheduled)
	}
	if res.E2E >= 45*time.Millisecond {
		t.Errorf("longest first: E2E %v did not drop to the 40ms bound", res.E2E)
	}
	if first := res.Functions[len(res.Functions)-1].Name; first != "t3" {
		t.Errorf("last to finish is %s, want the 40ms task t3", first)
	}
}

// TestSeededStragglers: with a fixed Options.Rand the same calls stall
// on every run, so a TailHeavy experiment can be reproduced.
func TestSeededStragglers(t *testing.T) {
	fn := &behavior.Spec{
		Name: "f", Runtime: behavior.Python, MemMB: 1,
		Segments: []behavior.Segment{{Kind: behavior.Sleep, Dur: time.Millisecond, TailDur: 50 * time.Millisecond, TailProb: 0.3}},
	}
	w, err := dag.FromStages("wf", 0, []*behavior.Spec{fn})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w, singleWrapPlan(w, map[string]int{"f": 0}, 1))
	if err != nil {
		t.Fatal(err)
	}
	stalls := func(seed uint64) (pattern string, stalled int) {
		rng := rand.New(rand.NewPCG(seed, 0))
		o := Options{Const: model.Default(), Scale: 0.01, Rand: rng.Float64}
		for i := 0; i < 40; i++ {
			res, err := p.Run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Scheduled > 50*time.Millisecond {
				pattern += "S"
				stalled++
			} else {
				pattern += "."
			}
		}
		return pattern, stalled
	}
	a, n := stalls(7)
	if b, _ := stalls(7); a != b {
		t.Fatalf("same seed, different stragglers:\n%s\n%s", a, b)
	}
	if n == 0 || n == 40 {
		t.Fatalf("seed 7 stalls %d of 40 calls; the test needs a mix", n)
	}
	if c, _ := stalls(8); a == c {
		t.Fatalf("seeds 7 and 8 stall the same calls: %s", a)
	}
}

// TestScheduleAgreesWithEngine is the differential test between the two
// executors: for every builtin workflow under its PGP plan, the live
// schedule (Result.Scheduled and the function timings, which come from
// the cursors and not from the clock) must land within 10% of
// engine.Run's virtual-time result with Fidelity off.
//
// It runs at Scale 1, all workflows at once. Down to Scale 0.01 the
// waits keep their length (timekeeper.go) and SocialNetwork's schedule
// holds: 25.1 ms at Scale 1, 26.5 at 0.01 (medians of 15 runs on a
// 2-vCPU VM). At a tiny scale every wait is already due, threads reach
// a GIL in goroutine order instead of schedule order, and the token's
// cursor skips the gaps in which the lock was free: at Scale 1e-6 it
// reads 40.2 ms instead of engine's 26.9. Only a plan in which nothing
// is contended keeps an exact schedule there, and for those the test
// demands equality at Scale 1e-6 as well.
//
// Known disagreements, each checked in the weaker form given:
//
//   - Functions that share a GIL with siblings are compared by the
//     group's last finish, not one by one, and that within 10% or one
//     switch interval, whichever is larger. live hands the token to
//     waiters first-come first-served; engine (package gil) picks by CFS
//     virtual runtime. The work is the same, but the finishes inside the
//     group permute (MovieReviewing's review-text: 8.5 ms live, 11.0 ms
//     engine), and which of two threads cloned 300 us apart reaches the
//     token first decides which one waits out the other's quantum
//     (SLApp's first stage ends at 14.1 or 15.5 ms; engine says 15.8).
//   - live's process main pays thread clones on its own cursor; engine's
//     holds the GIL while cloning, so a stage of n threads ends up to
//     n x ThreadStartup later there. This is why live's schedule is 1-4%
//     shorter than engine's. Inside the 10%. (Against a plan's Predicted
//     the schedule reads shorter still, 0.93 on SocialNetwork, because
//     Predicted carries PGP's 1.1 safety margin: the raw prediction is
//     25.4 ms, live schedules 25.9, engine 26.9, Predicted says 27.9.)
//   - Iso MPK/SFI factors are not applied by live. No PGP plan of these
//     workflows sets Iso, so nothing is excluded; a plan that does is
//     reported, not skipped.
func TestScheduleAgreesWithEngine(t *testing.T) {
	c := model.Default()
	for _, e := range append(workloads.Suite(), workloads.Extras()...) {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			w := e.Workflow
			plan := pgpPlan(t, w)
			for i, cfg := range plan.Sandboxes {
				if cfg.Iso != "" && cfg.Iso != wrap.IsoNone {
					t.Errorf("sandbox %d uses %s isolation, whose CPU/IO factors live does not apply", i, cfg.Iso)
				}
			}
			want, err := engine.Run(w, plan, engine.Env{Const: c})
			if err != nil {
				t.Fatal(err)
			}
			p, err := Compile(w, plan)
			if err != nil {
				t.Fatal(err)
			}
			// No tail draws: engine never sees a tail either.
			o := Options{Const: c, Rand: func() float64 { return 1 }}

			var problems []string
			for i := 0; i < attempts; i++ {
				got, err := p.Run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if problems = disagreements(w, plan, want, got); len(problems) == 0 {
					break
				}
			}
			for _, msg := range problems {
				t.Error(msg)
			}

			if uncontended(p) {
				o.Scale = 1e-6
				got, err := p.Run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if got.Scheduled != want.E2E {
					t.Errorf("uncontended plan at Scale 1e-6: scheduled %v, engine %v, want equal", got.Scheduled, want.E2E)
				}
			}
		})
	}
}

// pgpPlan is the plan PGP picks for w under the default constants.
func pgpPlan(t *testing.T, w *dag.Workflow) *wrap.Plan {
	t.Helper()
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	planned, err := pgp.Plan(w, set, pgp.Options{Const: model.Default()})
	if err != nil {
		t.Fatal(err)
	}
	return planned.Plan
}

// uncontended reports whether no two threads of p ever share a gate.
func uncontended(p *Program) bool {
	for _, st := range p.stages {
		for _, wp := range st.wraps {
			if wp.cfg.Pool {
				return false
			}
			for _, pp := range wp.procs {
				if pp.gil && len(pp.fns) > 1 {
					return false
				}
			}
		}
	}
	return true
}

// disagreements compares one live run with the engine's result.
func disagreements(w *dag.Workflow, plan *wrap.Plan, want *engine.Result, got *Result) []string {
	var out []string
	within := func(what string, live, eng, slack time.Duration) {
		if d := (live - eng).Abs(); d > max(eng/10, slack) {
			out = append(out, fmt.Sprintf("%s: live %v, engine %v (%+.1f%%)", what, live, eng, 100*(float64(live)/float64(eng)-1)))
		}
	}
	within("E2E", got.Scheduled, want.E2E, 0)

	type group struct{ stage, sandbox, proc int }
	groupOf := func(name string, stage int) group {
		loc := plan.Loc[name]
		return group{stage, loc.Sandbox, loc.Proc}
	}
	size := map[group]int{}
	for si, st := range w.Stages {
		for _, fn := range st.Functions {
			size[groupOf(fn.Name, si)]++
		}
	}
	sharesGIL := func(name string, stage int) bool {
		return size[groupOf(name, stage)] > 1 && w.Lookup(name).Runtime.PseudoParallel()
	}
	liveEnd, engEnd := map[group]time.Duration{}, map[group]time.Duration{}
	engFinish := map[string]time.Duration{}
	for _, f := range want.Functions {
		engFinish[f.Name] = f.Finish
		g := groupOf(f.Name, f.Stage)
		engEnd[g] = max(engEnd[g], f.Finish)
	}
	if len(got.Functions) != len(want.Functions) {
		out = append(out, fmt.Sprintf("live timed %d functions, engine %d", len(got.Functions), len(want.Functions)))
	}
	for _, f := range got.Functions {
		if sharesGIL(f.Name, f.Stage) {
			g := groupOf(f.Name, f.Stage)
			liveEnd[g] = max(liveEnd[g], f.Finish)
			continue
		}
		within("finish of "+f.Name, f.Finish, engFinish[f.Name], 0)
	}
	for g, end := range liveEnd {
		within(fmt.Sprintf("last finish of GIL group stage %d sandbox %d proc %d", g.stage, g.sandbox, g.proc), end, engEnd[g], model.Default().GILInterval)
	}
	return out
}

// TestConcurrentRunsShareProgram: one Program serves many requests at
// once (run under -race): runs share the compiled slices and the free
// list of run frames, which grows to the peak number of concurrent runs
// and hands every frame back clean.
func TestConcurrentRunsShareProgram(t *testing.T) {
	w := workloads.SocialNetwork()
	p, err := Compile(w, pgpPlan(t, w))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				res, err := p.Run(context.Background(), Options{Const: model.Default(), Scale: 0.05})
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Functions) != 10 {
					t.Errorf("%d function timings, want 10", len(res.Functions))
				}
			}
		}()
	}
	wg.Wait()
	if n := len(idleFrames(p)); n == 0 || n > 8 {
		t.Errorf("the Program holds %d frames after 8 concurrent callers, want 1 to 8", n)
	}
	checkIdleFrames(t, p)
}
