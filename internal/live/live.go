// Package live executes a deployment plan with real goroutines on the
// wall clock — the in-process equivalent of deploying the generated
// orchestrators (package deploy) onto a worker.
//
// Where package engine *models* a request on virtual time, live *runs*
// one: every process group is a goroutine tree, threads of a
// pseudo-parallel runtime contend on a real token-passing GIL (held for
// CPU spans, released on blocking spans and at every switch interval),
// forks are serialized by the orchestrator exactly like Observation 2's
// block time, pools are worker goroutines pulling from a dispatch queue,
// and functions can be bound to real Go code that reads and writes a
// real in-memory store. Wall-clock scheduling noise makes results
// non-deterministic — that is the point; tests assert envelopes, not
// equalities.
//
// A plan is compiled once (Compile) and run many times (Program.Run) on
// an absolute schedule: every thread of control carries a cursor, its
// nominal position since the request began, and sleeps *until* the
// cursor's wall instant instead of *for* a duration, so a late wake-up
// is repaid by the next wait instead of piling up (DESIGN.md, "Absolute
// schedule").
package live

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/model"
	"chiron/internal/obs"
	"chiron/internal/storage"
)

// Ctx is handed to bound functions: access to the shared intermediate
// store and the function's own spec.
type Ctx struct {
	// Store is the request's intermediate-data store (shared memory /
	// MinIO stand-in).
	Store *storage.MemStore
	// Spec is the function being executed.
	Spec *behavior.Spec
	// Context carries cancellation.
	Context context.Context
}

// Fn is user code bound to a function name. When bound, the function's
// live duration is whatever the code takes (plus GIL contention); when
// not bound, the runtime replays the spec's segments.
type Fn func(*Ctx) error

// Options configure a live run.
type Options struct {
	// Const supplies block/startup/IPC/RPC costs.
	Const model.Constants
	// Scale multiplies every modelled duration before sleeping: 0.25
	// runs four times faster than nominal; reported timings are scaled
	// back. Zero means 1.0. Bound functions are never scaled.
	Scale float64
	// Bindings maps function names to real code.
	Bindings map[string]Fn
	// Timeout aborts the request (default 30s wall time).
	Timeout time.Duration
	// Rec, when non-nil, receives spans and instant events (package
	// obs): request/stage/wrap/function spans plus fork, GIL token
	// acquire/switch/release and IPC/RPC events, stamped in nominal
	// time from the schedule's cursors (the request span alone ends at
	// the wall-measured E2E). Live traces are envelopes, not byte-stable
	// artifacts.
	Rec obs.Recorder
	// Rand supplies the uniform [0,1) draws that decide which calls
	// take a segment's heavy tail; nil uses the math/rand/v2 global.
	// Runs draw from it concurrently, so it must be safe for that.
	Rand func() float64
}

func (o *Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// FnTiming is one function's place on the schedule (nominal time).
type FnTiming struct {
	Name    string
	Stage   int
	Sandbox int
	Start   time.Duration
	Finish  time.Duration
}

// Result is one live request.
type Result struct {
	// E2E is the nominal end-to-end latency: measured wall time divided
	// by Scale.
	E2E time.Duration
	// Scheduled is where the schedule itself ended: the root cursor,
	// nominal and independent of Scale. E2E/Scheduled is the executor's
	// own overhead (late wake-ups, bookkeeping); Scheduled against the
	// plan's predicted latency is model disagreement.
	Scheduled time.Duration
	// Functions in completion order.
	Functions []FnTiming
	// Store is the final intermediate-data store (bound functions'
	// outputs survive here).
	Store *storage.MemStore
}

// Run executes one request of the compiled plan, honouring the parent
// context: cancelling parent aborts the request between (and inside)
// segments, and a parent deadline acts exactly like Options.Timeout. The
// gateway (internal/serve) uses this to enforce per-request deadlines and
// to drain cleanly on shutdown. When both a parent deadline and
// Options.Timeout are set, the earlier one wins; when neither is set the
// 30s default backstop applies.
func (p *Program) Run(parent context.Context, opt Options) (*Result, error) {
	if opt.Timeout <= 0 {
		if _, hasDeadline := parent.Deadline(); !hasDeadline {
			opt.Timeout = 30 * time.Second
		}
	}
	ctx := parent
	if len(opt.Bindings) > 0 {
		// Bound code watches Ctx.Context, so the timeout must be a real
		// context; replayed segments only wait on the schedule, where
		// the timeout is one more instant to compare against.
		var cancel context.CancelFunc
		if opt.Timeout > 0 {
			ctx, cancel = context.WithTimeout(parent, opt.Timeout)
		} else {
			ctx, cancel = context.WithCancel(parent)
		}
		defer cancel()
		opt.Timeout = 0
	}
	r := runnerPool.Get().(*runner)
	res, err := r.run(ctx, p, opt)
	*r = runner{tids: r.tids[:0]}
	runnerPool.Put(r)
	return res, err
}

// runner is one request's shared state; runners are pooled.
type runner struct {
	p       *Program
	opt     Options
	ctx     context.Context
	done    <-chan struct{}
	scale   float64
	timeout time.Duration // wall offset from t0 past which waits abort; 0 = none
	t0      time.Duration // when the request began, on the timekeeper's clock
	verbose bool          // recorder wants per-quantum GIL instants
	expired atomic.Bool

	mu     sync.Mutex
	res    *Result
	runErr error
	tids   []int // per-sandbox function-row allocator (tracing)
}

var runnerPool = sync.Pool{New: func() any { return new(runner) }}

// thread is one thread of control's position on the schedule. It lives
// on its goroutine's stack.
type thread struct {
	// at is the cursor: nominal time since the request began.
	at time.Duration
}

// join collects the cursors of the threads a parent started: the parent
// resumes at the latest of them.
type join struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	end time.Duration
}

// newJoin is nil, and costs nothing, when there is nobody to wait for.
func newJoin(children int) *join {
	if children <= 0 {
		return nil
	}
	j := new(join)
	j.wg.Add(children)
	return j
}

// done ends a child thread at its cursor.
func (j *join) done(th *thread) {
	j.mu.Lock()
	j.end = max(j.end, th.at)
	j.mu.Unlock()
	j.wg.Done()
}

// wait blocks until every child is done and moves th past them.
func (j *join) wait(th *thread) {
	if j != nil {
		j.wg.Wait()
		th.at = max(th.at, j.end)
	}
}

func (r *runner) run(ctx context.Context, p *Program, opt Options) (*Result, error) {
	r.p, r.opt, r.ctx, r.done = p, opt, ctx, ctx.Done()
	r.scale, r.timeout = opt.scale(), opt.Timeout
	r.verbose = obs.IsVerbose(opt.Rec)
	r.res = &Result{Functions: make([]FnTiming, 0, p.nFns), Store: storage.NewMem()}
	if opt.Rec != nil {
		r.tids = append(r.tids, make([]int, p.nSandboxes)...)
	}
	r.t0 = now()

	var th thread
	var err error
	for si := 0; si < len(p.stages) && err == nil; si++ {
		err = r.runStage(&th, si)
	}
	if err != nil {
		return nil, err
	}
	res := r.res
	res.E2E, res.Scheduled = r.nominalNow(), th.at
	if rec := opt.Rec; rec != nil {
		if tr, ok := rec.(obs.Namer); ok {
			tr.NameProcess(0, "request")
		}
		// Span args are verbose-only: they duplicate what the track
		// layout and span names already say, and each Args literal is
		// an allocation the always-on flight path shouldn't pay.
		var args []obs.Arg
		if r.verbose {
			args = []obs.Arg{obs.A("workflow", p.name), obs.A("stages", len(p.stages))}
		}
		// The request alone ends on the clock, not on the schedule.
		r.span(0, 0, p.reqName, obs.CatRequest, 0, res.E2E, args...)
	}
	return res, nil
}

// Track-name tables: stage/wrap/sandbox indices are single digits in
// practice, and these names are emitted on every request now that the
// flight recorder is always on — precompute them instead of paying a
// fmt.Sprintf per span.
const smallTrack = 32

var (
	stageNames   [smallTrack]string
	wrapNames    [smallTrack]string
	sandboxNames [smallTrack]string
)

func init() {
	for i := 0; i < smallTrack; i++ {
		stageNames[i] = fmt.Sprintf("stage %d", i)
		wrapNames[i] = fmt.Sprintf("s%d.wrap", i)
		sandboxNames[i] = fmt.Sprintf("sandbox %d", i)
	}
}

func stageName(i int) string {
	if 0 <= i && i < smallTrack {
		return stageNames[i]
	}
	return fmt.Sprintf("stage %d", i)
}

func wrapName(i int) string {
	if 0 <= i && i < smallTrack {
		return wrapNames[i]
	}
	return fmt.Sprintf("s%d.wrap", i)
}

func sandboxName(i int) string {
	if 0 <= i && i < smallTrack {
		return sandboxNames[i]
	}
	return fmt.Sprintf("sandbox %d", i)
}

// nextTID hands out the next function thread row for a sandbox's
// pseudo-process (TID 0 is the wrap orchestrator row).
func (r *runner) nextTID(sandbox int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tids[sandbox]++
	return r.tids[sandbox]
}

// span emits a span between two cursors; args are verbose-only.
func (r *runner) span(pid, tid int, name, cat string, from, to time.Duration, args ...obs.Arg) {
	r.opt.Rec.RecordSpan(obs.Span{PID: pid, TID: tid, Name: name, Cat: cat, Start: from, End: to, Args: args})
}

// nominalNow is the wall time since the request began, in nominal time.
func (r *runner) nominalNow() time.Duration {
	return time.Duration(float64(now()-r.t0) / r.scale)
}

// sleep moves th d nominal time down the schedule and waits for the
// wall clock to catch up.
func (r *runner) sleep(th *thread, d time.Duration) {
	if d > 0 {
		th.at += d
		r.wait(th)
	}
}

// wait blocks until the wall instant of th's cursor, or returns at once
// when that instant has passed: a late wake-up leaves the thread behind
// its schedule, and the waits that follow are shortened or skipped until
// it has caught up. It never returns before the instant, and it never
// spins — the callers share the CPUs. The process's timekeeper wakes it
// (timekeeper.go): on Linux a timerfd, about 10 µs late on an idle
// 2-vCPU VM, where a Go timer came back up to a millisecond tick late.
// Cancellation and the schedule's timeout cut a wait short.
func (r *runner) wait(th *thread) {
	wall := time.Duration(float64(th.at) * r.scale)
	late := r.timeout > 0 && wall > r.timeout
	if late {
		wall = r.timeout
	}
	if at := r.t0 + wall; at > now() {
		select {
		case <-r.done:
			return
		default:
		}
		if !tk.sleep(at, r.done) {
			return
		}
	}
	if late {
		r.expired.Store(true)
	}
}

// aborted reports why the request must stop: the context's cause, or
// the schedule's timeout.
func (r *runner) aborted() error {
	select {
	case <-r.done:
		return context.Cause(r.ctx)
	default:
	}
	if r.expired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.runErr == nil {
		r.runErr = err
	}
	r.mu.Unlock()
}

// runStage executes one stage: the local wrap in place, remote wraps with
// invocation stride and RPC cost, all joined at a barrier (stages are
// strictly ordered). The last wrap runs on the caller's goroutine, so a
// one-wrap stage starts none.
func (r *runner) runStage(th *thread, si int) error {
	wraps := r.p.stages[si]
	start := th.at
	last := len(wraps) - 1
	j := newJoin(last)
	for i := range wraps[:last] {
		go r.wrapThread(j, si, &wraps[i], start)
	}
	r.invokeWrap(th, si, &wraps[last])
	j.wait(th)
	if r.opt.Rec != nil {
		var args []obs.Arg
		if r.verbose {
			args = []obs.Arg{obs.A("wraps", len(wraps))}
		}
		r.span(0, 0, stageName(si), obs.CatStage, start, th.at, args...)
	}
	if cause := r.aborted(); cause != nil {
		return fmt.Errorf("live: request aborted in stage %d: %w", si, cause)
	}
	r.mu.Lock()
	err := r.runErr
	r.mu.Unlock()
	return err
}

func (r *runner) wrapThread(j *join, si int, wp *wrapProg, at time.Duration) {
	th := thread{at: at}
	r.invokeWrap(&th, si, wp)
	j.done(&th)
}

// invokeWrap runs one wrap from the stage's start: a remote wrap is
// invoked at its stride and answers after an RPC.
func (r *runner) invokeWrap(th *thread, si int, wp *wrapProg) {
	if wp.remote == 0 {
		r.runWrap(th, si, wp)
		return
	}
	r.sleep(th, time.Duration(wp.remote)*r.opt.Const.InvokeCost)
	r.runWrap(th, si, wp)
	from := th.at
	r.sleep(th, r.opt.Const.RPCCost)
	if r.opt.Rec != nil && th.at > from {
		r.span(wp.sandbox+1, 0, "rpc", obs.CatRPC, from, th.at)
	}
}

// runWrap executes one wrap's process groups: the resident main group
// immediately, forked groups serialized by block time; results gathered
// over pipes (modelled as a final sleep). The orchestrator becomes its
// last process instead of starting a goroutine for it.
func (r *runner) runWrap(th *thread, si int, wp *wrapProg) {
	pid := wp.sandbox + 1
	if tr, ok := r.opt.Rec.(obs.Namer); ok {
		tr.NameProcess(pid, sandboxName(wp.sandbox))
	}
	start := th.at
	if wp.cfg.Pool {
		r.runPool(th, si, wp)
	} else {
		last := len(wp.procs) - 1
		j := newJoin(last)
		for i := range wp.procs {
			pp := &wp.procs[i]
			if !pp.resident && r.opt.Rec != nil {
				r.opt.Rec.RecordInstant(obs.Instant{
					PID: pid, TID: 0, Name: "fork", Cat: obs.CatFork,
					At: th.at, Args: []obs.Arg{obs.A("proc", pp.proc)},
				})
			}
			if i == last {
				r.runProcess(th, si, wp, pp)
				break
			}
			go r.procThread(j, si, wp, pp, th.at)
			if !pp.resident {
				// The orchestrator issued a fork, which blocks the next
				// one (Observation 2's sequential forking).
				r.sleep(th, r.opt.Const.ProcBlockStep)
			}
		}
		j.wait(th)
		if last > 0 {
			from := th.at
			r.sleep(th, time.Duration(last)*r.opt.Const.IPCCost)
			if r.opt.Rec != nil {
				r.span(pid, 0, "ipc", obs.CatIPC, from, th.at)
			}
		}
	}
	if r.opt.Rec != nil {
		var args []obs.Arg
		if r.verbose {
			args = []obs.Arg{obs.A("stage", si), obs.A("sandbox", wp.sandbox)}
		}
		r.span(pid, 0, wrapName(si), obs.CatWrap, start, th.at, args...)
	}
}

func (r *runner) procThread(j *join, si int, wp *wrapProg, pp *procProg, at time.Duration) {
	th := thread{at: at}
	r.runProcess(&th, si, wp, pp)
	j.done(&th)
}

// cpuGate is what a function's CPU spans contend for: a process's GIL
// token or a pool's cpuset slots. The channel's values are cursors — a
// holder hands over the instant it let go, so time spent blocked on the
// gate is on the schedule too.
type cpuGate struct {
	// slots holds the free tokens; nil when nothing contends.
	slots chan time.Duration
	// quantum makes a holder yield every switch interval so waiters
	// interleave, exactly like Figure 2's timeout-triggered drop; zero
	// holds for the whole span.
	quantum time.Duration
	// narrate emits the GIL's acquire/switch/release instants. They are
	// for verbose recorders only: the always-on flight recorder pays for
	// the coarse span tree, not for hundreds of scheduler events per CPU
	// segment.
	narrate bool
}

func newGate(slots int, at time.Duration) chan time.Duration {
	c := make(chan time.Duration, slots)
	for i := 0; i < slots; i++ {
		c <- at
	}
	return c
}

func (g *cpuGate) acquire(th *thread) {
	if g.slots != nil {
		th.at = max(th.at, <-g.slots)
	}
}

func (g *cpuGate) release(th *thread) {
	if g.slots != nil {
		g.slots <- th.at
	}
}

// runProcess executes one process: forked ones start up first, then the
// functions run as threads sharing a GIL (pseudo-parallel runtimes) or
// truly in parallel (GIL-free). The process main runs the last function
// itself, so a single-function process starts no goroutine and needs no
// token.
func (r *runner) runProcess(th *thread, si int, wp *wrapProg, pp *procProg) {
	if !pp.resident {
		r.sleep(th, r.opt.Const.ProcStartup)
	}
	gate := cpuGate{quantum: r.opt.Const.GILInterval, narrate: pp.gil && r.verbose}
	last := len(pp.fns) - 1
	j := newJoin(last)
	if last > 0 && pp.gil {
		gate.slots = newGate(1, th.at)
	}
	for i, fn := range pp.fns {
		// Thread clone cost, paid serially by the process main.
		if pp.clone {
			r.sleep(th, r.opt.Const.ThreadStartup)
		}
		if i == last {
			r.runFunction(th, si, wp.sandbox, fn, gate)
			break
		}
		go r.fnThread(j, si, wp.sandbox, fn, gate, th.at)
	}
	j.wait(th)
}

func (r *runner) fnThread(j *join, si, sandbox int, fn *behavior.Spec, gate cpuGate, at time.Duration) {
	th := thread{at: at}
	r.runFunction(&th, si, sandbox, fn, gate)
	j.done(&th)
}

// poolRun is one pool wrap's dispatch state.
type poolRun struct {
	join
	start time.Duration // when the dispatcher began submitting
	next  atomic.Int64  // next task to hand out
	gate  cpuGate
}

// runPool executes the wrap's functions on a worker pool: the dispatcher
// submits the tasks serially in the compiled order, free workers take
// them in that order, and CPU spans occupy a cpuset slot (pool workers
// are GIL-free processes). The caller is one of the workers.
func (r *runner) runPool(th *thread, si int, wp *wrapProg) {
	pr := &poolRun{start: th.at}
	pr.gate.slots = newGate(max(wp.cfg.CPUs, 1), th.at)
	pr.wg.Add(wp.workers - 1)
	for i := 1; i < wp.workers; i++ {
		go r.poolThread(pr, si, wp, th.at)
	}
	r.poolWorker(th, pr, si, wp)
	pr.wait(th)
}

func (r *runner) poolThread(pr *poolRun, si int, wp *wrapProg, at time.Duration) {
	th := thread{at: at}
	r.poolWorker(&th, pr, si, wp)
	pr.done(&th)
}

// poolWorker takes tasks until none are left or the request is aborted.
// Task k was submitted after k earlier dispatches (Eq. 4's (j-1) x
// T_Block), so a worker that is free sooner waits for it.
func (r *runner) poolWorker(th *thread, pr *poolRun, si int, wp *wrapProg) {
	for r.aborted() == nil {
		k := int(pr.next.Add(1)) - 1
		if k >= len(wp.tasks) {
			return
		}
		if issued := pr.start + time.Duration(k)*r.opt.Const.PoolDispatch; issued > th.at {
			th.at = issued
			r.wait(th)
		}
		r.runFunction(th, si, wp.sandbox, wp.tasks[k], pr.gate)
	}
}

// runFunction executes one function on th: bound code if present, spec
// replay otherwise, taking the gate for CPU spans.
func (r *runner) runFunction(th *thread, si, sandbox int, fn *behavior.Spec, gate cpuGate) {
	start := th.at
	pid, tid := sandbox+1, 0
	if r.opt.Rec != nil {
		tid = r.nextTID(sandbox)
	}
	if bound, ok := r.opt.Bindings[fn.Name]; ok {
		gate.acquire(th)
		if gate.narrate {
			r.gilEvent(pid, tid, obs.GILAcquire, th.at)
		}
		err := bound(&Ctx{Store: r.res.Store, Spec: fn, Context: r.ctx})
		// Real code takes real time: the schedule resumes from the clock.
		th.at = max(th.at, r.nominalNow())
		if gate.narrate {
			r.gilEvent(pid, tid, obs.GILRelease, th.at)
		}
		gate.release(th)
		if err != nil {
			r.fail(fmt.Errorf("live: function %s: %w", fn.Name, err))
		}
	} else {
		for _, seg := range fn.Segments {
			if dur := r.segmentDur(seg); seg.Kind.Blocking() {
				r.sleep(th, dur)
			} else {
				r.cpuSpan(th, dur, gate, pid, tid)
			}
		}
	}
	if r.opt.Rec != nil {
		var args []obs.Arg
		if r.verbose {
			args = []obs.Arg{obs.A("stage", si)}
		}
		r.span(pid, tid, fn.Name, obs.CatFunction, start, th.at, args...)
	}
	r.mu.Lock()
	r.res.Functions = append(r.res.Functions, FnTiming{Name: fn.Name, Stage: si, Sandbox: sandbox, Start: start, Finish: th.at})
	r.mu.Unlock()
}

// cpuSpan spends dur of CPU time holding the gate, one quantum at a
// time (in one piece when nothing contends). The trace sees the token protocol: one acquire when the span
// first takes the token, a switch at every intermediate re-acquisition,
// one release at the end — so a CPU span always carries exactly one
// gil.acquire.
func (r *runner) cpuSpan(th *thread, dur time.Duration, gate cpuGate, pid, tid int) {
	name := obs.GILAcquire
	for dur > 0 {
		q := dur
		if gate.slots != nil && gate.quantum > 0 && gate.quantum < q {
			q = gate.quantum
		}
		gate.acquire(th)
		if gate.narrate {
			r.gilEvent(pid, tid, name, th.at)
			name = obs.GILSwitch
		}
		r.sleep(th, q)
		dur -= q
		if gate.narrate && dur <= 0 {
			r.gilEvent(pid, tid, obs.GILRelease, th.at)
		}
		gate.release(th)
	}
}

func (r *runner) gilEvent(pid, tid int, name string, at time.Duration) {
	r.opt.Rec.RecordInstant(obs.Instant{PID: pid, TID: tid, Name: name, Cat: obs.CatGIL, At: at})
}

// segmentDur samples one live execution's duration for a segment:
// Dur, plus the heavy tail with probability TailProb. Only the live
// executor rolls this dice — the engine, profiler and predictor always
// see Dur, so a tail is unmodeled straggler noise by construction.
func (r *runner) segmentDur(seg behavior.Segment) time.Duration {
	if seg.TailProb > 0 && seg.TailDur > 0 {
		draw := rand.Float64
		if r.opt.Rand != nil {
			draw = r.opt.Rand
		}
		if draw() < seg.TailProb {
			return seg.Dur + seg.TailDur
		}
	}
	return seg.Dur
}
