package flight

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"chiron/internal/obs"
)

// fakeClock is a settable Now for deterministic burn windows.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestFlight(opt Options) (*Flight, *fakeClock) {
	clk := newFakeClock()
	if opt.Now == nil {
		opt.Now = clk.Now
	}
	if opt.Reg == nil {
		opt.Reg = obs.NewRegistry()
	}
	if opt.SampleRate == 0 {
		opt.SampleRate = -1 // default off in tests: retention must be explainable
	}
	return New(opt), clk
}

func finishOne(f *Flight, wf string, lat time.Duration, slo time.Duration, err error) (uint64, bool) {
	rec := f.Acquire()
	rec.RecordSpan(obs.Span{Name: "request", Cat: obs.CatRequest, End: lat})
	return f.Finish(rec, Info{Workflow: wf, Latency: lat, SLO: slo, Err: err})
}

func TestRetainError(t *testing.T) {
	f, _ := newTestFlight(Options{})
	id, kept := finishOne(f, "wf", time.Millisecond, 0, errors.New("boom"))
	if !kept || id == 0 {
		t.Fatalf("error trace not retained (id=%d kept=%v)", id, kept)
	}
	l := f.List()
	if len(l) != 1 || l[0].Err != "boom" {
		t.Fatalf("listing = %+v", l)
	}
	if !contains(l[0].Reasons, "error") {
		t.Errorf("reasons = %v, want error", l[0].Reasons)
	}
}

func TestRetainSLOViolation(t *testing.T) {
	f, _ := newTestFlight(Options{})
	if _, kept := finishOne(f, "wf", 5*time.Millisecond, 10*time.Millisecond, nil); kept {
		t.Fatal("within-SLO trace retained")
	}
	id, kept := finishOne(f, "wf", 20*time.Millisecond, 10*time.Millisecond, nil)
	if !kept {
		t.Fatal("SLO-violating trace dropped")
	}
	l := f.List()
	if l[0].ID != id || !contains(l[0].Reasons, "slo") {
		t.Errorf("listing = %+v", l)
	}
}

func TestRetainSlowQuantile(t *testing.T) {
	f, _ := newTestFlight(Options{MinSamples: 10})
	// Build a uniform 1ms distribution, then send one 10x outlier.
	for i := 0; i < 50; i++ {
		if _, kept := finishOne(f, "wf", time.Millisecond, 0, nil); kept {
			t.Fatalf("uniform request %d retained", i)
		}
	}
	_, kept := finishOne(f, "wf", 10*time.Millisecond, 0, nil)
	if !kept {
		t.Fatal("10x-slower-than-p99 trace dropped")
	}
	if l := f.List(); !contains(l[0].Reasons, "slow") {
		t.Errorf("reasons = %v, want slow", l[0].Reasons)
	}
}

func TestSampledRetention(t *testing.T) {
	f, _ := newTestFlight(Options{SampleRate: 1})
	_, kept := finishOne(f, "wf", time.Millisecond, 0, nil)
	if !kept {
		t.Fatal("SampleRate=1 must keep everything")
	}
	if l := f.List(); !contains(l[0].Reasons, "sampled") {
		t.Errorf("reasons = %v, want sampled", l[0].Reasons)
	}
}

func TestForceNext(t *testing.T) {
	f, _ := newTestFlight(Options{})
	f.ForceNext(2)
	for i := 0; i < 2; i++ {
		if _, kept := finishOne(f, "wf", time.Millisecond, 0, nil); !kept {
			t.Fatalf("forced trace %d dropped", i)
		}
	}
	if _, kept := finishOne(f, "wf", time.Millisecond, 0, nil); kept {
		t.Fatal("trace after force budget retained")
	}
	if l := f.List(); !contains(l[0].Reasons, "forced") {
		t.Errorf("reasons = %v, want forced", l[0].Reasons)
	}
}

func TestRingBound(t *testing.T) {
	f, _ := newTestFlight(Options{RingSize: 8})
	var lastID uint64
	for i := 0; i < 100; i++ {
		id, kept := finishOne(f, "wf", time.Millisecond, 0, errors.New("x"))
		if !kept {
			t.Fatalf("error trace %d dropped", i)
		}
		lastID = id
	}
	if n := f.Len(); n != 8 {
		t.Fatalf("ring holds %d, want 8", n)
	}
	l := f.List()
	if l[0].ID != lastID {
		t.Errorf("newest retained = %d, want %d", l[0].ID, lastID)
	}
	// Oldest retained must be lastID-7; anything older was evicted.
	if l[len(l)-1].ID != lastID-7 {
		t.Errorf("oldest retained = %d, want %d", l[len(l)-1].ID, lastID-7)
	}
	if err := f.WriteChrome(1, new(bytes.Buffer)); err == nil {
		t.Error("evicted trace still fetchable")
	}
}

func TestBurnMonitorTripsAndRetains(t *testing.T) {
	reg := obs.NewRegistry()
	f, clk := newTestFlight(Options{Reg: reg, SLOTarget: 0.99, BurnThreshold: 14.4})
	// All-bad traffic: burn = 100x in both windows once counts exist.
	var sawBurn bool
	for i := 0; i < 20; i++ {
		clk.Advance(time.Second)
		_, kept := finishOne(f, "wf", 20*time.Millisecond, 10*time.Millisecond, nil)
		if !kept {
			t.Fatalf("bad request %d dropped", i)
		}
	}
	for _, s := range f.List() {
		if contains(s.Reasons, "burn") {
			sawBurn = true
		}
	}
	if !sawBurn {
		t.Error("no retained trace carries the burn reason")
	}
	lbl := obs.Labels("workflow", "wf")
	if v := reg.Counter("chiron_slo_burn_alerts_total"+lbl, "").Value(); v != 1 {
		t.Errorf("alerts = %d, want exactly 1 trip edge", v)
	}
	if v := reg.Gauge("chiron_slo_burn_fast_x1000"+lbl, "").Value(); v < 14_400 {
		t.Errorf("fast burn gauge = %d, want >= 14400", v)
	}
	if v := reg.Counter("chiron_slo_bad_total"+lbl, "").Value(); v != 20 {
		t.Errorf("bad counter = %d", v)
	}
	// The trip also annotated the timeline.
	anns := f.Annotations()
	if len(anns) == 0 || anns[len(anns)-1].Kind != "burn" {
		t.Errorf("annotations = %+v, want a burn entry", anns)
	}
}

func TestNoteEventCoincidenceRetention(t *testing.T) {
	f, clk := newTestFlight(Options{Coincidence: 2 * time.Second})
	if _, kept := finishOne(f, "wf", time.Millisecond, 0, nil); kept {
		t.Fatal("baseline trace retained")
	}
	f.NoteEvent("wf", "replanned", "drift=3.1", true)
	_, kept := finishOne(f, "wf", time.Millisecond, 0, nil)
	if !kept {
		t.Fatal("trace coinciding with a replan dropped")
	}
	if l := f.List(); !contains(l[0].Reasons, "adapt") {
		t.Errorf("reasons = %v, want adapt", l[0].Reasons)
	}
	// Outside the window: dropped again.
	clk.Advance(3 * time.Second)
	if _, kept := finishOne(f, "wf", time.Millisecond, 0, nil); kept {
		t.Fatal("trace after the coincidence window retained")
	}
	// Calibrate-style annotation (retainNearby=false) must not retain.
	f.NoteEvent("wf", "calibrated", "", false)
	if _, kept := finishOne(f, "wf", time.Millisecond, 0, nil); kept {
		t.Fatal("trace near a calibrate annotation retained")
	}
	if len(f.Annotations()) != 2 {
		t.Errorf("annotations = %+v", f.Annotations())
	}
}

// TestRetainHedgedAlone: a hedge is a per-request event. The hedged
// request's own trace is kept, tagged hedged, but it opens no
// coincidence window: a plain request finishing 1 ms later is dropped.
func TestRetainHedgedAlone(t *testing.T) {
	f, clk := newTestFlight(Options{Coincidence: 2 * time.Second})
	rec := f.Acquire()
	rec.RecordInstant(obs.Instant{Name: "hedge.armed", Cat: obs.CatHedge})
	id, kept := f.Finish(rec, Info{Workflow: "wf", Latency: time.Millisecond, Hedged: true})
	if !kept {
		t.Fatal("hedged request's trace dropped")
	}
	if l := f.List(); l[0].ID != id || !contains(l[0].Reasons, "hedged") {
		t.Fatalf("listing = %+v, want the hedged trace tagged hedged", l)
	}
	clk.Advance(time.Millisecond)
	if _, kept := finishOne(f, "wf", time.Millisecond, 0, nil); kept {
		t.Fatalf("plain request 1ms after a hedge retained: %v", f.List()[0].Reasons)
	}
	if n := len(f.Annotations()); n != 0 {
		t.Errorf("a hedge wrote %d annotations, want 0", n)
	}
}

func TestWriteChromeRoundTrip(t *testing.T) {
	f, _ := newTestFlight(Options{})
	rec := f.Acquire()
	rec.NameProcess(0, "request")
	rec.NameThread(1, 1, "f1")
	rec.RecordSpan(obs.Span{PID: 0, TID: 0, Name: "request wf-test", Cat: obs.CatRequest, End: time.Millisecond})
	rec.RecordInstant(obs.Instant{PID: 1, TID: 0, Name: "coldstart", Cat: obs.CatCold})
	rec.RecordSample(obs.Sample{PID: 0, Name: "queue", Value: 2})
	id, kept := f.Finish(rec, Info{Workflow: "wf", Latency: time.Millisecond, Err: errors.New("keep me")})
	if !kept {
		t.Fatal("trace dropped")
	}
	var buf bytes.Buffer
	if err := f.WriteChrome(id, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"traceEvents", "request wf-test", "coldstart", "process_name"} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing %q", want)
		}
	}
}

// TestRecorderSpanCap: a runaway producer cannot grow a recorder past
// MaxSpans; the overflow is counted, and the retained copy stays capped.
func TestRecorderSpanCap(t *testing.T) {
	f, _ := newTestFlight(Options{MaxSpans: 64})
	rec := f.Acquire()
	for i := 0; i < 1000; i++ {
		rec.RecordSpan(obs.Span{Name: "s", End: time.Duration(i)})
	}
	id, kept := f.Finish(rec, Info{Workflow: "wf", Latency: time.Millisecond, Err: errors.New("keep")})
	if !kept {
		t.Fatal("dropped")
	}
	l := f.List()
	if l[0].ID != id || l[0].Spans != 64 {
		t.Fatalf("retained %d spans, want 64 (%+v)", l[0].Spans, l[0])
	}
	if l[0].Dropped != 1000-64 {
		t.Errorf("dropped = %d, want %d", l[0].Dropped, 1000-64)
	}
}

// TestFlightMemoryBounded drives 10k finishes and asserts nothing grows
// without bound: the ring stays at RingSize and recorders recycle
// through the pool.
func TestFlightMemoryBounded(t *testing.T) {
	f, _ := newTestFlight(Options{RingSize: 16, MaxSpans: 128})
	for i := 0; i < 10_000; i++ {
		rec := f.Acquire()
		for s := 0; s < 10; s++ {
			rec.RecordSpan(obs.Span{Name: "s", End: time.Duration(s)})
		}
		var err error
		if i%37 == 0 {
			err = errKeep
		}
		f.Finish(rec, Info{Workflow: "wf", Latency: time.Millisecond, Err: err})
	}
	if n := f.Len(); n > 16 {
		t.Fatalf("ring grew to %d, cap 16", n)
	}
}

var errKeep = errors.New("keep")

// TestRetainThrottle: under systemic overload (every request violates
// its SLO) the per-second budget bounds the copy cost; errors bypass it.
func TestRetainThrottle(t *testing.T) {
	reg := obs.NewRegistry()
	f, clk := newTestFlight(Options{Reg: reg, RetainPerSec: 3})
	var kept int
	for i := 0; i < 50; i++ {
		if _, k := finishOne(f, "wf", 20*time.Millisecond, 10*time.Millisecond, nil); k {
			kept++
		}
	}
	if kept != 3 {
		t.Fatalf("kept %d SLO traces in one second, budget 3", kept)
	}
	if v := reg.Counter("chiron_flight_throttled_total", "").Value(); v != 47 {
		t.Errorf("throttled = %d, want 47", v)
	}
	// Errors are precious: retained even with the budget spent.
	if _, k := finishOne(f, "wf", time.Millisecond, 0, errKeep); !k {
		t.Fatal("error trace throttled")
	}
	// The budget refills next second.
	clk.Advance(time.Second)
	if _, k := finishOne(f, "wf", 20*time.Millisecond, 10*time.Millisecond, nil); !k {
		t.Fatal("budget did not refill")
	}
}

// TestFinishDropPathZeroAlloc guards the tentpole's cost claim: the
// common case (record a few spans, drop the trace) allocates nothing
// once the pool and per-workflow state are warm.
func TestFinishDropPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc count is not meaningful")
	}
	f, _ := newTestFlight(Options{}) // sampling off via newTestFlight
	// Warm the pool, the workflow state and the span slices.
	for i := 0; i < 100; i++ {
		finishOne(f, "wf", time.Millisecond, 0, nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rec := f.Acquire()
		rec.RecordSpan(obs.Span{Name: "request", Cat: obs.CatRequest, End: time.Millisecond})
		rec.RecordInstant(obs.Instant{Name: "coldstart", Cat: obs.CatCold})
		f.Finish(rec, Info{Workflow: "wf", Latency: time.Millisecond, SLO: time.Second})
	})
	if allocs != 0 {
		t.Fatalf("flight drop path allocates %.1f/op, want 0", allocs)
	}
}

func TestConcurrentFinish(t *testing.T) {
	f, _ := newTestFlight(Options{RingSize: 32})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var err error
				if i%10 == 0 {
					err = errKeep
				}
				finishOne(f, fmt.Sprintf("wf-%d", w%3), time.Millisecond, 0, err)
			}
		}(w)
	}
	wg.Wait()
	if n := f.Len(); n != 32 {
		t.Fatalf("ring = %d, want full 32", n)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
