package live

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/model"
	"chiron/internal/obs/flight"
	"chiron/internal/workloads"
)

// Tests for the run frames: a run's allocations do not grow with the
// plan's fan-out, and a frame is handed to the next run clean whatever
// ended the last one.

// idleFrames returns the frames on p's free list.
func idleFrames(p *Program) []*frame {
	p.frames.mu.Lock()
	defer p.frames.mu.Unlock()
	var out []*frame
	for f := p.frames.free; f != nil; f = f.next {
		out = append(out, f)
	}
	return out
}

// checkIdleFrames fails t unless every idle frame of p is ready for a
// run: no runner attached, every join reset and every gate full.
func checkIdleFrames(t *testing.T, p *Program) {
	t.Helper()
	for _, f := range idleFrames(p) {
		if f.r != nil {
			t.Error("an idle frame still points at its runner")
		}
		for i := range f.sites {
			s := &f.sites[i]
			if s.end != 0 {
				t.Errorf("site %d: join not reset (end %v)", i, s.end)
			}
			if c := s.gate.slots; c != nil && len(c) != cap(c) {
				t.Errorf("site %d: gate holds %d of its %d tokens", i, len(c), cap(c))
			}
		}
	}
}

// TestRunAllocsFlat: once a Program has a frame and a released runner
// is pooled, a run allocates nothing however wide the plan fans out,
// with no recorder and with the flight recorder the serving plane
// always attaches: the result and its timings come with the runner,
// and nothing is bound, so no store is made. Before frames FINRA-200
// allocated 267 times a run, SocialNetwork 14.
func TestRunAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation budgets are checked without it")
	}
	// No sampling and no slow rule: Finish recycles every recorder, so
	// only the run's own allocations are counted.
	fl := flight.New(flight.Options{SampleRate: -1, MinSamples: math.MaxInt32})
	for _, e := range append(workloads.Suite(), workloads.Extras()...) {
		t.Run(e.Name, func(t *testing.T) {
			w := e.Workflow
			p, err := Compile(w, pgpPlan(t, w))
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Const: model.Default(), Scale: 1e-4, Rand: func() float64 { return 1 }}
			ctx := context.Background()
			n := testing.AllocsPerRun(50, func() {
				res, err := p.Run(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				res.Release()
			})
			t.Logf("%.0f allocations per run", n)
			if n > 0 {
				t.Errorf("no recorder: %.0f allocations per run, want 0", n)
			}
			if n := testing.AllocsPerRun(50, func() {
				rec := fl.Acquire()
				o.Rec = rec
				res, err := p.Run(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				fl.Finish(rec, flight.Info{Workflow: w.Name, Latency: res.E2E})
				res.Release()
			}); n > 0 {
				t.Errorf("flight recorder: %.0f allocations per run, want 0", n)
			}
		})
	}
}

// TestFrameReusedAfterAbort: a SocialNetwork run cancelled mid-schedule
// and one cut by Options.Timeout both return their frame with every
// join reset and every gate full, and the next run on the Program is
// whole and keeps the schedule of the first: a gate still holding an
// earlier run's tokens would hold its threads back to that run's
// cursors.
func TestFrameReusedAfterAbort(t *testing.T) {
	w := workloads.SocialNetwork()
	p, err := Compile(w, pgpPlan(t, w))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.forks) == 0 {
		t.Fatal("SocialNetwork's plan has no fork point")
	}
	o := Options{Const: model.Default()}
	first, err := p.Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}

	// Threads that share a GIL may take it in another order, which
	// moves the schedule by a switch interval or so, not by a stage.
	// Under -race a late hand-off can move it further, so the check is
	// retried; each attempt aborts two runs first, so the run it checks
	// is always the first on a frame an abort handed back, and stale
	// tokens would hold back every attempt.
	var res *Result
	for i := 0; i < attempts; i++ {
		res = runAfterAborts(t, p, o)
		if (res.Scheduled - first.Scheduled).Abs() <= first.Scheduled/10 {
			break
		}
	}
	if d := (res.Scheduled - first.Scheduled).Abs(); d > first.Scheduled/10 {
		t.Errorf("scheduled %v on a reused frame, %v on a new one", res.Scheduled, first.Scheduled)
	}
	checkIdleFrames(t, p)
	if n := len(idleFrames(p)); n != 1 {
		t.Errorf("the Program holds %d frames after the aborted runs and the whole ones, want 1", n)
	}
}

// runAfterAborts runs p once cancelled mid-schedule and once cut by
// Options.Timeout, checks that each hands its frame back ready, and
// returns the whole run that follows them.
func runAfterAborts(t *testing.T, p *Program, o Options) *Result {
	t.Helper()
	// The schedule is about 25 ms long at Scale 1.
	ctx, cancel := context.WithCancel(context.Background())
	stop := time.AfterFunc(8*time.Millisecond, cancel)
	defer stop.Stop()
	if _, err := p.Run(ctx, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v, want context.Canceled", err)
	}
	checkIdleFrames(t, p)

	short := o
	short.Timeout = 8 * time.Millisecond
	if _, err := p.Run(context.Background(), short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out run: %v, want context.DeadlineExceeded", err)
	}
	checkIdleFrames(t, p)

	res, err := p.Run(context.Background(), o)
	if err != nil {
		t.Fatalf("run after the aborted ones: %v", err)
	}
	if len(res.Functions) != 10 {
		t.Errorf("%d function timings, want 10", len(res.Functions))
	}
	return res
}

// TestFrameDroppedOnPanic: a run that panics keeps its frame off the
// free list, where a sibling thread may still be using it and a gate
// may miss the token the panic held, and the next run builds a new one.
func TestFrameDroppedOnPanic(t *testing.T) {
	w, err := dag.FromStages("wf", 0, []*behavior.Spec{
		sleepFn("a", 5*time.Millisecond), sleepFn("b", time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w, singleWrapPlan(w, map[string]int{"a": 0, "b": 0}, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The process's last function runs on the caller's goroutine, so
	// its panic reaches Run, with the GIL token it took and its sibling
	// still asleep on the frame.
	fns := p.stages[0].wraps[0].procs[0].fns
	o := opts()
	o.Bindings = map[string]Fn{fns[len(fns)-1].Name: func(*Ctx) error { panic("boom") }}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the bound function's panic did not reach Run's caller")
			}
		}()
		_, _ = p.Run(context.Background(), o)
	}()
	if n := len(idleFrames(p)); n != 0 {
		t.Fatalf("the Program holds %d frames after a panicked run, want 0", n)
	}

	o.Bindings = nil
	res, err := p.Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Functions) != 2 {
		t.Errorf("%d function timings, want 2", len(res.Functions))
	}
	checkIdleFrames(t, p)
}
