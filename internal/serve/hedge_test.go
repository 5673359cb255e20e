package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/obs"
	"chiron/internal/obs/flight"
)

// settleGoroutines waits for the goroutine count to return to within
// slack of baseline and reports the final count (the runtime needs a
// moment to retire exiting goroutines).
func settleGoroutines(baseline, slack int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baseline+slack {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// tailWorkflow is a single-function workflow whose NetIO segment
// carries a heavy-tailed straggler: prob of the live executions stall
// an extra tail on top of base.
func tailWorkflow(base, tail time.Duration, prob float64) *dag.Workflow {
	w, err := dag.FromStages("wf-tail", 0, []*behavior.Spec{{
		Name: "f-tail", Runtime: behavior.Python,
		Segments: []behavior.Segment{
			{Kind: behavior.CPU, Dur: base / 4},
			{Kind: behavior.NetIO, Dur: base / 2, TailDur: tail, TailProb: prob},
			{Kind: behavior.CPU, Dur: base / 4},
		},
		MemMB: 16,
	}})
	if err != nil {
		panic(err)
	}
	return w
}

// TestHedgeLifecycleNoLeak: with an aggressive quantile every request
// arms a hedge; each must deliver exactly one result, return both
// leases, and leave no goroutine behind.
func TestHedgeLifecycleNoLeak(t *testing.T) {
	a := testApp(t, Options{Scale: 0.05, HedgeQuantile: 0.05})
	if _, err := a.Register(testWorkflow(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)

	before := runtime.NumGoroutine()
	const n = 5
	for i := 0; i < n; i++ {
		res, err := a.Invoke(context.Background(), "wf-test", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Hedged {
			t.Fatalf("invoke %d: hedge did not arm (quantile 0.05)", i)
		}
		if res.InvocationID == 0 {
			t.Fatalf("invoke %d: zero invocation id", i)
		}
	}

	if got := a.m.hedges.Value(); got != n {
		t.Fatalf("hedges_total = %d, want %d", got, n)
	}
	if w, l := a.m.hedgeWins.Value(), a.m.hedgeWasted.Value(); w+l != n {
		t.Fatalf("hedge_wins %d + hedge_wasted %d != hedges %d", w, l, n)
	}
	// Exactly-once: one completion counted per request, no duplicates.
	if got := a.m.requests.Value(); got != n {
		t.Fatalf("requests_total = %d, want %d (exactly-once)", got, n)
	}
	pool := a.index.Load().byName["wf-test"].active.Load().pool
	pool.mu.Lock()
	leased := pool.leased
	pool.mu.Unlock()
	if leased != 0 {
		t.Fatalf("leased = %d after all requests done, want 0", leased)
	}
	if after := settleGoroutines(before, 2); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestHedgeWinsCutStraggler: with a 50% 400ms tail and a hedge delay
// past the base latency, hedges fire only for straggling primaries and
// some must win (the hedge attempt redraws the tail). The win rate is
// probabilistic but the zero-wins probability over 64 requests is
// ~0.75^64 ≈ 1e-8.
func TestHedgeWinsCutStraggler(t *testing.T) {
	a := testApp(t, Options{Scale: 0.05, HedgeQuantile: 2})
	if _, err := a.Register(tailWorkflow(10*time.Millisecond, 400*time.Millisecond, 0.5)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-tail", time.Second)

	const n = 64
	for i := 0; i < n; i++ {
		if _, err := a.Invoke(context.Background(), "wf-tail", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.m.requests.Value(); got != n {
		t.Fatalf("requests_total = %d, want %d", got, n)
	}
	if a.m.hedges.Value() == 0 {
		t.Fatal("no hedge ever armed against a 50% straggler")
	}
	if a.m.hedgeWins.Value() == 0 {
		t.Fatal("no hedge ever won against a 50% straggler")
	}
	if w, l, h := a.m.hedgeWins.Value(), a.m.hedgeWasted.Value(), a.m.hedges.Value(); w+l != h {
		t.Fatalf("hedge_wins %d + hedge_wasted %d != hedges %d", w, l, h)
	}
}

// TestHedgeCutsP99 is the hedge's whole promise, run both ways on the
// same workflow: 1 000 closed-loop requests (8 workers) against a 5 ms
// function whose every call stalls an extra 150 ms with probability
// p = 0.035, hedged at 5x the predicted 5.5 ms. The p99 is the
// nearest-rank sample 990 of 1 000, so:
//   - off, p99 sits on the tail unless at most 9 requests straggle:
//     P(Bin(1000, p) <= 9) = 1.3e-7;
//   - on, a request stays on the tail only if its hedge straggles too,
//     and p99 reaches it only if 10 or more do:
//     P(Bin(1000, p²) >= 10) = 6.7e-7;
//   - hedges past 10% of requests need 101 stragglers:
//     P(Bin(1000, p) >= 101) < 1e-13;
//   - hedges == wins + wasted is exact, not probabilistic.
//
// Scale 1 keeps the modelled sleeps in milliseconds, so timer overshoot
// (a fixed wall cost) and scheduling noise on a busy machine are small
// against the 27.5 ms hedge delay and cannot make an on-time request
// look like a straggler. Window 1<<20 keeps the
// adaptive controller from reading the tail as drift and re-planning.
func TestHedgeCutsP99(t *testing.T) {
	const n, conc = 1000, 8
	run := func(quantile float64) (p99 time.Duration, hedges, requests uint64) {
		a := testApp(t, Options{Scale: 1, MaxConcurrency: 2 * conc, MaxQueue: n,
			HedgeQuantile: quantile, Window: 1 << 20})
		if _, err := a.Register(tailWorkflow(5*time.Millisecond, 150*time.Millisecond, 0.035)); err != nil {
			t.Fatal(err)
		}
		mustPlan(t, a, "wf-tail", time.Second)
		// Boot one instance per possible lease (a primary and a hedge per
		// worker) so no measured request pays a cold start.
		var wg sync.WaitGroup
		for i := 0; i < 2*conc; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := a.Invoke(context.Background(), "wf-tail", nil); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		h0, r0 := a.m.hedges.Value(), a.m.requests.Value()

		lat := make([]time.Duration, n)
		var next atomic.Int64
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < n; i = next.Add(1) - 1 {
					start := time.Now()
					if _, err := a.Invoke(context.Background(), "wf-tail", nil); err != nil {
						t.Error(err)
						return
					}
					lat[i] = time.Since(start)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if w, l, h := a.m.hedgeWins.Value(), a.m.hedgeWasted.Value(), a.m.hedges.Value(); w+l != h {
			t.Fatalf("hedge_wins %d + hedge_wasted %d != hedges %d", w, l, h)
		}
		slices.Sort(lat)
		return lat[n*99/100], a.m.hedges.Value() - h0, a.m.requests.Value() - r0
	}
	off, _, _ := run(0)
	on, hedges, requests := run(5)
	t.Logf("p99 off %v, on %v (%.1fx); %d hedges in %d requests", off, on, float64(off)/float64(on), hedges, requests)
	if requests != n {
		t.Fatalf("requests_total moved %d, want %d", requests, n)
	}
	if off < 2*on {
		t.Errorf("p99 off %v / on %v = %.2fx, want >= 2x", off, on, float64(off)/float64(on))
	}
	if hedges*10 > requests {
		t.Errorf("hedges %d / requests %d = %.3f, want <= 0.10", hedges, requests, float64(hedges)/float64(requests))
	}
}

// TestHedgeDisabledParity: with hedging off (quantile 0) and with it
// armed-but-never-firing (huge quantile), responses are structurally
// identical — same fields, Hedged false, zero hedge counters — so
// enabling the feature without tripping it changes nothing observable.
func TestHedgeDisabledParity(t *testing.T) {
	invoke := func(q float64) (*InvokeResult, *App) {
		a := testApp(t, Options{Scale: 0.05, HedgeQuantile: q})
		if _, err := a.Register(testWorkflow(4 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		mustPlan(t, a, "wf-test", 400*time.Millisecond)
		res, err := a.Invoke(context.Background(), "wf-test", nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, a
	}
	off, appOff := invoke(0)
	huge, appHuge := invoke(1000)

	for name, app := range map[string]*App{"off": appOff, "huge-quantile": appHuge} {
		if h := app.m.hedges.Value(); h != 0 {
			t.Fatalf("%s: hedges_total = %d, want 0", name, h)
		}
		if w, l := app.m.hedgeWins.Value(), app.m.hedgeWasted.Value(); w != 0 || l != 0 {
			t.Fatalf("%s: hedge win/wasted = %d/%d, want 0/0", name, w, l)
		}
	}
	if off.Hedged || huge.Hedged {
		t.Fatalf("hedged flags: off=%v huge=%v, want false/false", off.Hedged, huge.Hedged)
	}

	// Byte parity modulo measured time: zero the timing/trace fields and
	// the serialized responses must be identical.
	strip := func(r *InvokeResult) []byte {
		c := *r
		c.ColdStartMs, c.QueueWaitMs, c.E2EMs, c.TotalMs = 0, 0, 0, 0
		c.FlightTraceID = 0
		c.Functions = nil
		b, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := strip(off), strip(huge); string(a) != string(b) {
		t.Fatalf("response shape diverged:\n off: %s\nhuge: %s", a, b)
	}
}

// TestHedgedInvokeStampede: 100 concurrent hedged invocations against
// one workflow (run under -race via make ci). Admission may shed with
// OverloadError under the burst; everything admitted must complete
// exactly once and unwind fully.
func TestHedgedInvokeStampede(t *testing.T) {
	a := testApp(t, Options{
		Scale: 0.02, HedgeQuantile: 0.2,
		MaxConcurrency: 32, MaxQueue: 256,
	})
	if _, err := a.Register(testWorkflow(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 0)

	before := runtime.NumGoroutine()
	const n = 100
	var served, overloaded atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := a.Invoke(context.Background(), "wf-test", nil)
			switch {
			case err == nil:
				served.Add(1)
			case func() bool { var ov *OverloadError; return errors.As(err, &ov) }():
				overloaded.Add(1)
			default:
				t.Errorf("stampede invoke: %v", err)
			}
		}()
	}
	wg.Wait()

	if served.Load()+overloaded.Load() != n {
		t.Fatalf("served %d + overloaded %d != %d", served.Load(), overloaded.Load(), n)
	}
	if got := a.m.requests.Value(); got != served.Load() {
		t.Fatalf("requests_total = %d, want %d (exactly-once under stampede)", got, served.Load())
	}
	if w, l, h := a.m.hedgeWins.Value(), a.m.hedgeWasted.Value(), a.m.hedges.Value(); w+l != h {
		t.Fatalf("hedge_wins %d + hedge_wasted %d != hedges %d", w, l, h)
	}
	pool := a.index.Load().byName["wf-test"].active.Load().pool
	pool.mu.Lock()
	leased := pool.leased
	pool.mu.Unlock()
	if leased != 0 {
		t.Fatalf("leased = %d after stampede, want 0", leased)
	}
	if a.hedgeInflight.Load() != 0 {
		t.Fatalf("hedgeInflight = %d after stampede, want 0", a.hedgeInflight.Load())
	}
	if after := settleGoroutines(before, 4); after > before+4 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestRegisterBuiltinTailHeavy: the TailHeavy hedging testbed is
// registrable through the builtin path (Extras, not the paper Suite).
func TestRegisterBuiltinTailHeavy(t *testing.T) {
	a := testApp(t, Options{Scale: 0.05})
	created, err := a.RegisterBuiltin("TailHeavy")
	if err != nil || !created {
		t.Fatalf("RegisterBuiltin(TailHeavy): created=%v err=%v", created, err)
	}
	mustPlan(t, a, "TailHeavy", 0)
	if _, err := a.Invoke(context.Background(), "TailHeavy", nil); err != nil {
		t.Fatal(err)
	}
}

// TestHedgeArmedNotFiredAllocs: a hedge that is armed but never fires
// costs the request only the cancellable context both attempts would
// share. The second attempt's goroutine, lease and bookkeeping are paid
// when the delay elapses, not up front.
func TestHedgeArmedNotFiredAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation budgets are checked without it")
	}
	allocs := func(q float64) (float64, *App) {
		reg := obs.NewRegistry()
		// Retention off (no sampling, no slow rule) and the controller's
		// window out of reach: nothing but the request path allocates.
		fl := flight.New(flight.Options{SampleRate: -1, MinSamples: math.MaxInt32, Reg: reg})
		a := testApp(t, Options{Scale: 0.01, HedgeQuantile: q, Window: 1 << 20, Reg: reg, Flight: fl})
		if _, err := a.Register(testWorkflow(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		mustPlan(t, a, "wf-test", time.Minute)
		h, ctx := HashName("wf-test"), context.Background()
		run := func() {
			ad, err := a.AdmitHash(ctx, h)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ad.Execute(ctx); err != nil {
				t.Fatal(err)
			}
		}
		run() // boot the warm instance and compile the program
		return testing.AllocsPerRun(100, run), a
	}
	off, _ := allocs(0)
	armed, a := allocs(1000)
	if n := a.m.hedges.Value(); n != 0 {
		t.Fatalf("quantile 1000 fired %d hedges; the armed path was not measured", n)
	}
	if armed-off > 3 {
		t.Fatalf("armed-but-not-fired hedge costs %.1f allocs per request over an unhedged one (%.1f vs %.1f), want <= 3",
			armed-off, armed, off)
	}
}

// TestCheckInvariantsReportsViolations: the quiescence check names a
// lease still out and a hedge arm without an outcome, and passes once
// both are reconciled; then it names warm and resident gauges that
// disagree with the pools.
func TestCheckInvariantsReportsViolations(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	if _, err := a.Register(testWorkflow(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 0)
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("fresh app: %v", err)
	}
	pool := a.index.Load().byName["wf-test"].active.Load().pool
	if _, err := pool.acquire(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	a.m.hedges.Inc()
	err := a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "leased 1") || !strings.Contains(err.Error(), "hedges 1") {
		t.Fatalf("CheckInvariants with a lease out and an unreconciled hedge = %v", err)
	}
	pool.release(time.Now())
	a.m.hedgeWasted.Inc()
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("after reconciling: %v", err)
	}

	// Gauges that drift from the pools they summarise are named too.
	a.m.warmGauge.Add(1)
	a.m.resident.Add(-1)
	err = a.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "warm instances gauge") || !strings.Contains(err.Error(), "resident MB gauge") {
		t.Fatalf("CheckInvariants with skewed gauges = %v", err)
	}
	a.m.warmGauge.Add(-1)
	a.m.resident.Add(1)
}
