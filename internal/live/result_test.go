package live

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"chiron/internal/model"
	"chiron/internal/obs/flight"
	"chiron/internal/workloads"
)

// TestResultRelease pins who owns a Result. The caller holds it until
// Release, whatever later runs do; Release hands the runner back
// holding nothing of the run but its timings' capacity; and a failed
// run keeps nothing checked out. The pool checks run on one P, where
// sync.Pool hands back what was put, and skip under -race, which drops
// a quarter of all puts.
func TestResultRelease(t *testing.T) {
	w := workloads.SocialNetwork()
	p, err := Compile(w, pgpPlan(t, w))
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Const: model.Default(), Scale: 1e-4, Rand: func() float64 { return 1 }}
	ctx := context.Background()

	t.Run("held", func(t *testing.T) {
		held, err := p.Run(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		want := *held
		want.Functions = slices.Clone(held.Functions)
		// Four callers run and release 100 requests while this one
		// keeps reading its own: a runner handed out twice would be a
		// race, and would change the held timings.
		var wg sync.WaitGroup
		done := make(chan struct{})
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 25 {
					res, err := p.Run(ctx, o)
					if err != nil {
						t.Error(err)
						return
					}
					if res == held {
						t.Error("a later run was handed the held Result")
					}
					res.Release()
				}
			}()
		}
		go func() { wg.Wait(); close(done) }()
		for reading := true; reading; {
			select {
			case <-done:
				reading = false
			default:
			}
			if !reflect.DeepEqual(*held, want) {
				t.Errorf("the held Result changed under later runs:\n got %+v\nwant %+v", *held, want)
				<-done
				break
			}
			runtime.Gosched()
		}
		held.Release()
	})

	t.Run("released", func(t *testing.T) {
		// Before the first Get: a pool loses what it holds when
		// GOMAXPROCS changes.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		// A bound function, a recorder and a frame: everything a
		// released runner must let go of.
		bo := o
		bo.Bindings = map[string]Fn{w.Stages[0].Functions[0].Name: func(c *Ctx) error {
			c.Store.Put("k", []byte("v"))
			return nil
		}}
		fl := flight.New(flight.Options{SampleRate: -1, MinSamples: math.MaxInt32})
		rec := fl.Acquire()
		bo.Rec = rec
		res, err := p.Run(ctx, bo)
		if err != nil {
			t.Fatal(err)
		}
		fl.Finish(rec, flight.Info{Workflow: w.Name, Latency: res.E2E})
		if res.Store == nil {
			t.Fatal("a bound run has no store")
		}
		r := res.r
		res.Release()
		if r.p != nil || r.f != nil || r.ctx != nil || r.done != nil ||
			r.opt.Rec != nil || r.opt.Bindings != nil {
			t.Errorf("a released runner still holds its run: program %v, frame %v, ctx %v, recorder %v, bindings %v",
				r.p != nil, r.f != nil, r.ctx != nil, r.opt.Rec != nil, r.opt.Bindings != nil)
		}
		if r.res.r != nil || r.res.Store != nil || len(r.res.Functions) != 0 {
			t.Errorf("a released Result keeps its owner %v, store %v and %d timings",
				r.res.r != nil, r.res.Store != nil, len(r.res.Functions))
		}
		if cap(r.res.Functions) < p.nFns {
			t.Errorf("a released Result's timings shrank to capacity %d, want >= %d", cap(r.res.Functions), p.nFns)
		}
		if raceEnabled {
			return
		}
		res, err = p.Run(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
		if res != &r.res {
			t.Error("the next run did not reuse the released runner")
		}
		if res.Store != nil {
			t.Error("an unbound run on a reused runner has a store")
		}
		if len(res.Functions) != p.nFns {
			t.Errorf("%d function timings on a reused runner, want %d", len(res.Functions), p.nFns)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		made := 0
		newRunner := runnerPool.New
		runnerPool.New = func() any { made++; return newRunner() }
		defer func() { runnerPool.New = newRunner }()
		short := Options{Const: model.Default(), Timeout: 300 * time.Microsecond}
		chain := chainProgram(t, 3, time.Millisecond)
		// AllocsPerRun runs the function once more than asked, on one P.
		testing.AllocsPerRun(20, func() {
			res, err := chain.Run(ctx, short)
			if res != nil || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("timed-out run: %v, %v; want nil, context.DeadlineExceeded", res, err)
			}
		})
		if !raceEnabled && made > 1 {
			t.Errorf("21 timed-out runs made %d runners, want at most 1: a failed run kept its runner", made)
		}
	})
}
