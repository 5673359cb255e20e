// Package flight is the serving plane's always-on flight recorder.
//
// Every admitted request — HTTP and UDP share one executeAdmitted core
// — records its span tree into a pooled Recorder; when the request
// finishes, Finish decides whether the trace is worth keeping and
// either copies it into a fixed-size ring or returns the recorder to
// the pool untouched. Retention is tail-sampling: keep what hindsight
// says was interesting —
//
//   - slow: latency above the workflow's rolling p-quantile
//   - error: the request failed
//   - slo: the request exceeded its admission SLO
//   - adapt: it finished within the coincidence window of an adapt
//     action (replan/suppress/rollback) or burn-rate trip
//   - burn: its workflow's SLO error budget is actively burning
//   - sampled: probabilistic baseline so healthy traffic stays
//     represented
//   - forced: an operator asked for the next N traces via
//     /debug/flight/force
//   - hedged: the request itself ran a hedge attempt (a per-request
//     event: its neighbours are not retained with it)
//
// plus a multi-window SLO burn-rate monitor (burn.go) whose trips both
// alert (chiron_slo_burn_alerts_total) and mark nearby traces, so a
// paging signal always points at captured evidence.
//
// Cost discipline: the drop path (the overwhelmingly common case)
// performs zero heap allocations — recorders come from a sync.Pool,
// span storage is reused flat slices capped at MaxSpans, per-workflow
// state is looked up read-locked, and burn windows are fixed arrays.
// Allocation happens only when a trace is actually retained.
package flight

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chiron/internal/obs"
)

// Reason is a bitmask of why a trace was retained.
type Reason uint32

const (
	ReasonSlow Reason = 1 << iota
	ReasonError
	ReasonSLO
	ReasonAdapt
	ReasonBurn
	ReasonSampled
	ReasonForced
	ReasonHedged
)

var reasonNames = []struct {
	r Reason
	s string
}{
	{ReasonSlow, "slow"},
	{ReasonError, "error"},
	{ReasonSLO, "slo"},
	{ReasonAdapt, "adapt"},
	{ReasonBurn, "burn"},
	{ReasonSampled, "sampled"},
	{ReasonForced, "forced"},
	{ReasonHedged, "hedged"},
}

// Strings expands the bitmask into stable tag order.
func (r Reason) Strings() []string {
	var out []string
	for _, rn := range reasonNames {
		if r&rn.r != 0 {
			out = append(out, rn.s)
		}
	}
	return out
}

func (r Reason) String() string { return strings.Join(r.Strings(), ",") }

// Recorder is the pooled obs.Recorder handed to one request. It
// retains events in flat slices (no per-event allocation after the
// slices warm up) and refuses growth past the configured span cap so a
// runaway producer cannot balloon memory.
type Recorder struct {
	mu       sync.Mutex
	spans    []obs.Span
	instants []obs.Instant
	samples  []obs.Sample
	procs    map[int]string
	threads  map[[2]int]string
	dropped  uint64
	maxSpans int
}

// RecordSpan implements obs.Recorder.
func (r *Recorder) RecordSpan(s obs.Span) {
	r.mu.Lock()
	if len(r.spans) < r.maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// RecordInstant implements obs.Recorder.
func (r *Recorder) RecordInstant(i obs.Instant) {
	r.mu.Lock()
	if len(r.instants) < r.maxSpans {
		r.instants = append(r.instants, i)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// RecordSample implements obs.Recorder.
func (r *Recorder) RecordSample(s obs.Sample) {
	r.mu.Lock()
	if len(r.samples) < r.maxSpans {
		r.samples = append(r.samples, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// NameProcess implements obs.Namer.
func (r *Recorder) NameProcess(pid int, name string) {
	r.mu.Lock()
	r.procs[pid] = name
	r.mu.Unlock()
}

// NameThread implements obs.Namer.
func (r *Recorder) NameThread(pid, tid int, name string) {
	r.mu.Lock()
	r.threads[[2]int{pid, tid}] = name
	r.mu.Unlock()
}

func (r *Recorder) reset() {
	r.spans = r.spans[:0]
	r.instants = r.instants[:0]
	r.samples = r.samples[:0]
	clear(r.procs)
	clear(r.threads)
	r.dropped = 0
}

// Options configures a Flight.
type Options struct {
	// RingSize is how many retained traces are kept (default 256).
	RingSize int
	// SampleRate is the probabilistic baseline keep fraction for
	// otherwise-uninteresting traces (default 0.01; 0 disables, >=1
	// keeps everything).
	SampleRate float64
	// SlowQuantile marks a trace slow when its latency reaches this
	// rolling per-workflow quantile (default 0.99).
	SlowQuantile float64
	// MinSamples gates the slow-quantile rule until the workflow has
	// seen this many requests (default 50) — early traffic would
	// otherwise all be "slow".
	MinSamples int
	// MaxSpans caps events of each kind per recorder (default 2048).
	MaxSpans int
	// SLOTarget is the availability target for the burn monitor
	// (default 0.99). A request is "bad" when it errors or violates its
	// admission SLO.
	SLOTarget float64
	// FastWindow / SlowWindow are the burn-rate windows (defaults 5m /
	// 1h).
	FastWindow time.Duration
	SlowWindow time.Duration
	// BurnThreshold trips the alert when both windows reach it
	// (default 14.4).
	BurnThreshold float64
	// Coincidence retains traces finishing within this long after an
	// adapt action or burn trip (default 2s).
	Coincidence time.Duration
	// RetainPerSec bounds retentions per workflow per second (default
	// 64; negative = unlimited). Under systemic overload every request
	// violates its SLO and an unthrottled sampler would pay a full
	// trace copy per request — the throttle keeps the always-on cost
	// bounded while the ring still fills with representative traces.
	// Errors and forced dumps are exempt.
	RetainPerSec int
	// Reg receives chiron_flight_* and chiron_slo_* metrics (obs.Default
	// when nil).
	Reg *obs.Registry
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.RingSize <= 0 {
		o.RingSize = 256
	}
	if o.SampleRate < 0 {
		o.SampleRate = 0
	} else if o.SampleRate == 0 {
		o.SampleRate = 0.01
	}
	if o.SlowQuantile <= 0 || o.SlowQuantile >= 1 {
		o.SlowQuantile = 0.99
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 50
	}
	if o.MaxSpans <= 0 {
		o.MaxSpans = 2048
	}
	if o.SLOTarget <= 0 || o.SLOTarget >= 1 {
		o.SLOTarget = 0.99
	}
	if o.FastWindow <= 0 {
		o.FastWindow = 5 * time.Minute
	}
	if o.SlowWindow <= 0 {
		o.SlowWindow = time.Hour
	}
	if o.BurnThreshold <= 0 {
		o.BurnThreshold = 14.4
	}
	if o.Coincidence <= 0 {
		o.Coincidence = 2 * time.Second
	}
	if o.RetainPerSec == 0 {
		o.RetainPerSec = 64
	}
	if o.Reg == nil {
		o.Reg = obs.Default
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Info describes one finished request to Finish.
type Info struct {
	Workflow string
	Latency  time.Duration
	SLO      time.Duration // admission SLO in effect (0 = none)
	Err      error
	// Hedged marks a request that launched a hedge attempt; its trace
	// (which carries the hedge.armed instant) is retained as "hedged".
	Hedged bool
}

// Retained is one kept trace.
type Retained struct {
	ID       uint64
	Workflow string
	Reasons  Reason
	Latency  time.Duration
	SLO      time.Duration
	Err      string
	At       time.Time
	Dropped  uint64 // events the span cap discarded

	spans    []obs.Span
	instants []obs.Instant
	samples  []obs.Sample
	procs    map[int]string
	threads  map[[2]int]string
}

// Summary is the /debug/flight listing row.
type Summary struct {
	ID       uint64   `json:"id"`
	Workflow string   `json:"workflow"`
	Reasons  []string `json:"reasons"`
	Latency  string   `json:"latency"`
	SLO      string   `json:"slo,omitempty"`
	Err      string   `json:"error,omitempty"`
	At       string   `json:"at"`
	Spans    int      `json:"spans"`
	Dropped  uint64   `json:"dropped_events,omitempty"`
}

// Annotation is one adapt/burn event on the flight timeline.
type Annotation struct {
	At       time.Time `json:"-"`
	AtStr    string    `json:"at"`
	Workflow string    `json:"workflow"`
	Kind     string    `json:"kind"`
	Detail   string    `json:"detail,omitempty"`
}

const maxAnnotations = 64

// wfState is the per-workflow tail-sampling and budget state.
type wfState struct {
	lat    *obs.Histogram // rolling latency for the slow-quantile rule (unregistered)
	good   *obs.Counter
	bad    *obs.Counter
	bFast  *obs.Gauge
	bSlow  *obs.Gauge
	alerts *obs.Counter
	burn   *burnState

	// lastEvent is the unix-nano time of the most recent adapt action
	// or burn trip for this workflow; traces finishing within
	// Coincidence of it are retained.
	lastEvent atomic.Int64

	// retEpoch/retCount implement the per-second retention throttle.
	// The epoch race on second boundaries is benign: it can only
	// over- or under-admit by a handful of traces.
	retEpoch atomic.Int64
	retCount atomic.Int64
}

// retainAllow charges one retention against the per-second budget.
func (w *wfState) retainAllow(now time.Time, budget int) bool {
	if budget < 0 {
		return true
	}
	epoch := now.Unix()
	if w.retEpoch.Load() != epoch {
		w.retEpoch.Store(epoch)
		w.retCount.Store(0)
	}
	return w.retCount.Add(1) <= int64(budget)
}

// Flight owns the recorder pool, the retention ring, the per-workflow
// SLO monitors and the annotation log.
type Flight struct {
	opt  Options
	pool sync.Pool

	seq    atomic.Uint64 // trace ids (1-based; 0 means "not retained")
	rng    atomic.Uint64 // splitmix64 state for sampling
	forced atomic.Int64  // ForceNext countdown

	mu        sync.Mutex
	ring      []*Retained // len == RingSize once full
	next      int
	anns      []Annotation
	annNext   int
	finished  *obs.Counter
	retained  *obs.Counter
	dropped   *obs.Counter
	throttled *obs.Counter
	ringGauge *obs.Gauge

	wfMu sync.RWMutex
	wfs  map[string]*wfState
}

// New builds a Flight with the given options.
func New(opt Options) *Flight {
	opt = opt.withDefaults()
	f := &Flight{
		opt:  opt,
		ring: make([]*Retained, 0, opt.RingSize),
		anns: make([]Annotation, 0, maxAnnotations),
		wfs:  map[string]*wfState{},
	}
	f.rng.Store(uint64(opt.Now().UnixNano())*2 + 1)
	f.pool.New = func() interface{} {
		return &Recorder{
			procs:    map[int]string{},
			threads:  map[[2]int]string{},
			maxSpans: opt.MaxSpans,
		}
	}
	reg := opt.Reg
	f.finished = reg.Counter("chiron_flight_finished_total", "requests observed by the flight recorder")
	f.retained = reg.Counter("chiron_flight_retained_total", "traces kept in the flight ring")
	f.dropped = reg.Counter("chiron_flight_dropped_events_total", "trace events discarded by the per-recorder span cap")
	f.throttled = reg.Counter("chiron_flight_throttled_total", "retentions skipped by the per-second budget")
	f.ringGauge = reg.Gauge("chiron_flight_ring_size", "retained traces currently in the ring")
	return f
}

// Acquire returns a pooled recorder ready for one request. Callers
// MUST pass it to Finish exactly once.
func (f *Flight) Acquire() *Recorder {
	r := f.pool.Get().(*Recorder)
	return r
}

// splitmix64 advances the sampling stream.
func (f *Flight) nextRand() uint64 {
	x := f.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// wf returns (creating on first use) the workflow's sampling state.
func (f *Flight) wf(name string) *wfState {
	f.wfMu.RLock()
	w, ok := f.wfs[name]
	f.wfMu.RUnlock()
	if ok {
		return w
	}
	f.wfMu.Lock()
	defer f.wfMu.Unlock()
	if w, ok = f.wfs[name]; ok {
		return w
	}
	reg := f.opt.Reg
	lbl := obs.Labels("workflow", name)
	w = &wfState{
		lat:    obs.NewHistogram(nil),
		good:   reg.Counter("chiron_slo_good_total"+lbl, "requests within SLO and error-free"),
		bad:    reg.Counter("chiron_slo_bad_total"+lbl, "requests errored or over SLO"),
		bFast:  reg.Gauge("chiron_slo_burn_fast_x1000"+lbl, "fast-window (5m) error-budget burn rate x1000"),
		bSlow:  reg.Gauge("chiron_slo_burn_slow_x1000"+lbl, "slow-window (1h) error-budget burn rate x1000"),
		alerts: reg.Counter("chiron_slo_burn_alerts_total"+lbl, "multi-window burn-rate alert trips"),
		burn:   newBurnState(f.opt.FastWindow, f.opt.SlowWindow, f.opt.SLOTarget),
	}
	f.wfs[name] = w
	return w
}

// Finish closes out one request: updates the workflow's latency
// distribution and SLO budget, decides retention, and either copies
// the trace into the ring (returning its id) or recycles the recorder.
// The recorder must not be used after Finish returns.
func (f *Flight) Finish(rec *Recorder, info Info) (id uint64, kept bool) {
	f.finished.Inc()
	now := f.opt.Now()
	w := f.wf(info.Workflow)

	sloViolated := info.SLO > 0 && info.Latency > info.SLO
	bad := info.Err != nil || sloViolated
	if bad {
		w.bad.Inc()
	} else {
		w.good.Inc()
	}
	fastBurn, slowBurn, tripNow, tripEdge := w.burn.observe(now, bad, f.opt.BurnThreshold)
	w.bFast.Set(int64(fastBurn * 1000))
	w.bSlow.Set(int64(slowBurn * 1000))
	if tripEdge {
		w.alerts.Inc()
		w.lastEvent.Store(now.UnixNano())
		f.note(now, info.Workflow, "burn",
			fmt.Sprintf("fast=%.1fx slow=%.1fx threshold=%.1fx", fastBurn, slowBurn, f.opt.BurnThreshold))
	}

	// Slow rule against the distribution BEFORE this observation, so a
	// uniform workload doesn't tag every request as its own p99.
	var reasons Reason
	if n := w.lat.Count(); int(n) >= f.opt.MinSamples {
		// Strict >: Quantile reports the bucket's upper bound, so a
		// uniform workload's every request equals its own "p99".
		if q := w.lat.Quantile(f.opt.SlowQuantile); q > 0 && info.Latency > q {
			reasons |= ReasonSlow
		}
	}
	w.lat.Observe(info.Latency)

	if info.Err != nil {
		reasons |= ReasonError
	}
	if sloViolated {
		reasons |= ReasonSLO
	}
	if info.Hedged {
		reasons |= ReasonHedged
	}
	if tripNow {
		reasons |= ReasonBurn
	}
	if le := w.lastEvent.Load(); le != 0 && now.UnixNano()-le <= int64(f.opt.Coincidence) {
		reasons |= ReasonAdapt
	}
	if f.forced.Load() > 0 && f.forced.Add(-1) >= 0 {
		reasons |= ReasonForced
	} else if reasons == 0 && f.opt.SampleRate > 0 {
		if f.opt.SampleRate >= 1 || f.nextRand() < uint64(f.opt.SampleRate*math.MaxUint64) {
			reasons |= ReasonSampled
		}
	}

	// Throttle quality-of-life retentions (slow/slo/burn/adapt/hedged/
	// sampled): during systemic overload every request qualifies, and
	// copying each one would put an O(spans) tax on the whole serving
	// plane. Errors and operator-forced dumps bypass the budget.
	if reasons != 0 && reasons&(ReasonError|ReasonForced) == 0 &&
		!w.retainAllow(now, f.opt.RetainPerSec) {
		f.throttled.Inc()
		reasons = 0
	}

	if rec.dropped > 0 {
		f.dropped.Add(rec.dropped)
	}
	if reasons == 0 {
		rec.reset()
		f.pool.Put(rec)
		return 0, false
	}

	id = f.seq.Add(1)
	kept = true
	ret := &Retained{
		ID:       id,
		Workflow: info.Workflow,
		Reasons:  reasons,
		Latency:  info.Latency,
		SLO:      info.SLO,
		At:       now,
		Dropped:  rec.dropped,
		spans:    append([]obs.Span(nil), rec.spans...),
		instants: append([]obs.Instant(nil), rec.instants...),
		samples:  append([]obs.Sample(nil), rec.samples...),
		procs:    make(map[int]string, len(rec.procs)),
		threads:  make(map[[2]int]string, len(rec.threads)),
	}
	if info.Err != nil {
		ret.Err = info.Err.Error()
	}
	for k, v := range rec.procs {
		ret.procs[k] = v
	}
	for k, v := range rec.threads {
		ret.threads[k] = v
	}
	rec.reset()
	f.pool.Put(rec)

	f.retained.Inc()
	f.mu.Lock()
	if len(f.ring) < f.opt.RingSize {
		f.ring = append(f.ring, ret)
	} else {
		f.ring[f.next] = ret
	}
	f.next = (f.next + 1) % f.opt.RingSize
	f.ringGauge.Set(int64(len(f.ring)))
	f.mu.Unlock()
	return id, true
}

// NoteEvent records an adapt-plane event ("replanned", "rollback",
// "suppressed", "calibrated") on the flight timeline. When
// retainNearby is true, traces finishing within the coincidence window
// are retained with reason "adapt" — used for the rare, significant
// actions; routine calibration only annotates.
func (f *Flight) NoteEvent(workflow, kind, detail string, retainNearby bool) {
	now := f.opt.Now()
	if retainNearby {
		f.wf(workflow).lastEvent.Store(now.UnixNano())
	}
	f.note(now, workflow, kind, detail)
}

func (f *Flight) note(now time.Time, workflow, kind, detail string) {
	a := Annotation{
		At:       now,
		AtStr:    now.UTC().Format(time.RFC3339Nano),
		Workflow: workflow,
		Kind:     kind,
		Detail:   detail,
	}
	f.mu.Lock()
	if len(f.anns) < maxAnnotations {
		f.anns = append(f.anns, a)
	} else {
		f.anns[f.annNext] = a
	}
	f.annNext = (f.annNext + 1) % maxAnnotations
	f.mu.Unlock()
}

// ForceNext retains the next n finished traces unconditionally
// (dump-on-demand).
func (f *Flight) ForceNext(n int) {
	if n > 0 {
		f.forced.Add(int64(n))
	}
}

// List returns summaries of the retained traces, newest first.
func (f *Flight) List() []Summary {
	f.mu.Lock()
	rets := append([]*Retained(nil), f.ring...)
	f.mu.Unlock()
	sort.Slice(rets, func(i, j int) bool { return rets[i].ID > rets[j].ID })
	out := make([]Summary, 0, len(rets))
	for _, r := range rets {
		s := Summary{
			ID:       r.ID,
			Workflow: r.Workflow,
			Reasons:  r.Reasons.Strings(),
			Latency:  r.Latency.String(),
			Err:      r.Err,
			At:       r.At.UTC().Format(time.RFC3339Nano),
			Spans:    len(r.spans),
			Dropped:  r.Dropped,
		}
		if r.SLO > 0 {
			s.SLO = r.SLO.String()
		}
		out = append(out, s)
	}
	return out
}

// Annotations returns the adapt/burn event log, newest first.
func (f *Flight) Annotations() []Annotation {
	f.mu.Lock()
	out := append([]Annotation(nil), f.anns...)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].At.After(out[j].At) })
	return out
}

// Len returns how many traces the ring currently holds.
func (f *Flight) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ring)
}

// get looks a retained trace up by id.
func (f *Flight) get(id uint64) *Retained {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.ring {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// WriteChrome exports one retained trace as Chrome trace_event JSON
// (Perfetto-loadable), or reports that the id is unknown/evicted.
func (f *Flight) WriteChrome(id uint64, w io.Writer) error {
	r := f.get(id)
	if r == nil {
		return fmt.Errorf("flight: trace %d not retained (evicted or never kept)", id)
	}
	// Copy into a Trace for the existing exporter; retained data is
	// immutable so no lock is needed past get.
	tr := obs.NewTrace()
	for pid, name := range r.procs {
		tr.NameProcess(pid, name)
	}
	for k, name := range r.threads {
		tr.NameThread(k[0], k[1], name)
	}
	for _, s := range r.spans {
		tr.RecordSpan(s)
	}
	for _, i := range r.instants {
		tr.RecordInstant(i)
	}
	for _, s := range r.samples {
		tr.RecordSample(s)
	}
	return tr.WriteChrome(w)
}
