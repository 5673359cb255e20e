// Package obs is the repository's observability substrate: a
// zero-dependency span tracer and (in metrics.go) a metrics registry,
// with exporters to the Chrome trace_event JSON format, a plain-text
// timeline, and a Prometheus-style text dump.
//
// The paper's whole argument is a latency decomposition — scheduling
// share (Figure 3), fork block time (Observation 2), GIL contention,
// cold starts, IPC/RPC boundary costs — so every executor in this repo
// can narrate a request as a span tree instead of a single end-to-end
// number. Producers hand events to a Recorder; a nil Recorder means
// tracing is off and instrumented hot paths pay exactly one nil-check.
//
// Clock domains: the virtual-time engine stamps spans from the sim
// clock, so a trace is a pure function of (workflow, plan, env) and is
// byte-identical at any worker count; the live executor stamps spans
// from the wall clock (nominal time), so its traces are envelopes, not
// equalities. Both express timestamps as request-relative
// time.Duration and export onto the trace_event microsecond timeline.
//
// Track model: PID 0 is the request/orchestrator track; sandbox s maps
// to pseudo-process s+1 with TID 0 as the wrap orchestrator row and
// TID 1+i as function rows — in Perfetto/chrome://tracing a sandbox
// reads as a process whose threads are its functions.
package obs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span/instant categories: the event taxonomy shared by both executors.
const (
	CatRequest  = "request"
	CatStage    = "stage"
	CatWrap     = "wrap"
	CatFunction = "function"
	CatSlice    = "slice" // per-thread run/block/wait/startup detail
	CatFork     = "fork"
	CatGIL      = "gil"
	CatCold     = "coldstart"
	CatIPC      = "ipc"
	CatRPC      = "rpc"
	CatBoundary = "boundary"
	CatCache    = "cache"
	CatPlan     = "plan"
	CatHedge    = "hedge"
)

// GIL instant names. A CPU span emits exactly one Acquire when the
// token is first taken, a Switch at every intermediate quantum yield,
// and one Release when the span's work is done — Figure 2's
// timeout-triggered drop becomes countable events.
const (
	GILAcquire = "gil.acquire"
	GILRelease = "gil.release"
	GILSwitch  = "gil.switch"
)

// Arg is one key/value annotation. Args are ordered slices, not maps,
// so exports are deterministic.
type Arg struct {
	Key, Val string
}

// A formats a value as an Arg. Ints and strings are formatted without
// fmt: A sits on the always-on trace path, and strconv interns small
// int strings so the common case ("stage", 3) does not allocate.
func A(key string, val interface{}) Arg {
	switch v := val.(type) {
	case string:
		return Arg{Key: key, Val: v}
	case int:
		return Arg{Key: key, Val: strconv.Itoa(v)}
	case int64:
		return Arg{Key: key, Val: strconv.FormatInt(v, 10)}
	}
	return Arg{Key: key, Val: fmt.Sprint(val)}
}

// Span is a complete interval on one track.
type Span struct {
	// PID and TID place the span on a Perfetto process/thread row.
	PID, TID int
	Name     string
	Cat      string
	// Start and End are request-relative (virtual or nominal wall) time.
	Start, End time.Duration
	Args       []Arg
}

// Instant is a point event on one track (fork issued, GIL handoff,
// cold start, cache hit).
type Instant struct {
	PID, TID int
	Name     string
	Cat      string
	At       time.Duration
	Args     []Arg
}

// Sample is one point of a named counter series (queue depth, pool
// occupancy); exported as a Chrome "C" event.
type Sample struct {
	PID   int
	Name  string
	At    time.Duration
	Value float64
}

// Recorder receives trace events. Implementations must be safe for
// concurrent use (the live executor and parallel planners record from
// many goroutines). A nil Recorder disables tracing; instrumented code
// guards each emission with a single nil-check.
type Recorder interface {
	RecordSpan(Span)
	RecordInstant(Instant)
	RecordSample(Sample)
}

// Namer is implemented by recorders that retain track names (process
// and thread rows). Producers that label tracks — the live executor
// naming sandboxes, the engine naming request rows — type-assert
// against this interface instead of a concrete recorder, so the flight
// recorder and *Trace both receive names.
type Namer interface {
	NameProcess(pid int, name string)
	NameThread(pid, tid int, name string)
}

// Verboser marks recorders that want full-detail traces (per-quantum
// GIL handoffs and similar high-frequency instants). The always-on
// flight recorder deliberately does NOT implement it: its per-request
// cost budget buys the coarse span tree only, while an explicit
// ?trace=1 *Trace opts into everything.
type Verboser interface {
	VerboseTrace() bool
}

// IsVerbose reports whether rec asked for full-detail tracing.
func IsVerbose(rec Recorder) bool {
	v, ok := rec.(Verboser)
	return ok && v.VerboseTrace()
}

// Tee fans every event out to both recorders (either may be nil). The
// serving plane uses it when a request carries an explicit ?trace=1
// recorder on top of the always-on flight recorder.
func Tee(a, b Recorder) Recorder {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &tee{a: a, b: b}
}

type tee struct{ a, b Recorder }

func (t *tee) RecordSpan(s Span)       { t.a.RecordSpan(s); t.b.RecordSpan(s) }
func (t *tee) RecordInstant(i Instant) { t.a.RecordInstant(i); t.b.RecordInstant(i) }
func (t *tee) RecordSample(s Sample)   { t.a.RecordSample(s); t.b.RecordSample(s) }

// VerboseTrace reports whether either side wants full detail.
func (t *tee) VerboseTrace() bool { return IsVerbose(t.a) || IsVerbose(t.b) }

// NameProcess forwards to whichever underlying recorders retain names.
func (t *tee) NameProcess(pid int, name string) {
	if n, ok := t.a.(Namer); ok {
		n.NameProcess(pid, name)
	}
	if n, ok := t.b.(Namer); ok {
		n.NameProcess(pid, name)
	}
}

// NameThread forwards to whichever underlying recorders retain names.
func (t *tee) NameThread(pid, tid int, name string) {
	if n, ok := t.a.(Namer); ok {
		n.NameThread(pid, tid, name)
	}
	if n, ok := t.b.(Namer); ok {
		n.NameThread(pid, tid, name)
	}
}

// Nop is a Recorder that discards everything. It exists for benchmarks
// that want the call overhead without retention; production hot paths
// prefer a nil Recorder (one nil-check, zero calls).
type Nop struct{}

// RecordSpan implements Recorder.
func (Nop) RecordSpan(Span) {}

// RecordInstant implements Recorder.
func (Nop) RecordInstant(Instant) {}

// RecordSample implements Recorder.
func (Nop) RecordSample(Sample) {}

// Trace is the standard Recorder: it retains events in memory for
// export. Safe for concurrent use; export order is canonicalized by
// sorting, so traces recorded by deterministic producers are
// byte-identical regardless of goroutine interleaving.
type Trace struct {
	mu       sync.Mutex
	spans    []Span
	instants []Instant
	samples  []Sample
	procs    map[int]string
	threads  map[[2]int]string
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{procs: map[int]string{}, threads: map[[2]int]string{}}
}

// VerboseTrace implements Verboser: an explicit *Trace (the ?trace=1
// path, test harnesses) always wants full detail.
func (t *Trace) VerboseTrace() bool { return true }

// RecordSpan implements Recorder.
func (t *Trace) RecordSpan(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// RecordInstant implements Recorder.
func (t *Trace) RecordInstant(i Instant) {
	t.mu.Lock()
	t.instants = append(t.instants, i)
	t.mu.Unlock()
}

// RecordSample implements Recorder.
func (t *Trace) RecordSample(s Sample) {
	t.mu.Lock()
	t.samples = append(t.samples, s)
	t.mu.Unlock()
}

// NameProcess labels a pseudo-process row ("request", "sandbox 3").
func (t *Trace) NameProcess(pid int, name string) {
	t.mu.Lock()
	t.procs[pid] = name
	t.mu.Unlock()
}

// NameThread labels a thread row within a pseudo-process.
func (t *Trace) NameThread(pid, tid int, name string) {
	t.mu.Lock()
	t.threads[[2]int{pid, tid}] = name
	t.mu.Unlock()
}

// Spans returns a canonically-ordered copy of the recorded spans:
// sorted by (Start, PID, TID, End, Name), stably, so concurrent
// recording order never leaks into exports.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.Name < b.Name
	})
	return out
}

// Instants returns a canonically-ordered copy of the recorded instants.
func (t *Trace) Instants() []Instant {
	t.mu.Lock()
	out := append([]Instant(nil), t.instants...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	return out
}

// Samples returns a canonically-ordered copy of the recorded counter
// samples.
func (t *Trace) Samples() []Sample {
	t.mu.Lock()
	out := append([]Sample(nil), t.samples...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.Name < b.Name
	})
	return out
}

// Len returns the total number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + len(t.instants) + len(t.samples)
}

// SpansBy returns the canonical spans whose category passes the filter
// (nil filter keeps everything).
func (t *Trace) SpansBy(cat string) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Cat == cat {
			out = append(out, s)
		}
	}
	return out
}

// InstantsBy returns the canonical instants with the given name.
func (t *Trace) InstantsBy(name string) []Instant {
	var out []Instant
	for _, i := range t.Instants() {
		if i.Name == name {
			out = append(out, i)
		}
	}
	return out
}

// NewWallClock returns a clock reading elapsed wall time since the
// call — the live executor's and planners' time base.
func NewWallClock() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration { return time.Since(t0) }
}

// Fingerprint hashes any value's %+v rendering to a short stable hex
// string; run manifests use it to pin the constants calibration a
// table was derived under.
func Fingerprint(v interface{}) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}
