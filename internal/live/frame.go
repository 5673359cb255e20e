package live

import (
	"sync"
	"sync/atomic"
	"time"
)

// A run's fork points — a stage's wraps, a wrap's processes, a process's
// threads, a pool's workers — start goroutines that end at a join, and
// contended ones share a gate. None of that depends on the request, so
// each Program keeps it in reusable run frames: one site per fork
// point, built by the first run that needs one and handed from run to
// run, so a fan-out of any width allocates nothing once a frame exists.

// forkKind says what a fork point's children run.
type forkKind uint8

const (
	forkStage   forkKind = iota // a stage's wraps but the last
	forkWrap                    // a wrap's processes but the last
	forkProcess                 // a process's functions but the last
	forkPool                    // a pool's workers but the caller
)

// fork is one fork point of a Program, numbered at Compile.
type fork struct {
	kind     forkKind
	si       int
	wp       *wrapProg // forkWrap, forkProcess, forkPool
	pp       *procProg // forkProcess
	children int       // goroutines it starts
	// slots is the size of the gate its threads contend for: 1 for a
	// process whose runtime holds a GIL, the cpuset for a pool, 0 when
	// nothing contends.
	slots int
}

// frame is what one run uses at its fork points: one site per fork of
// the Program. A frame belongs to one run at a time.
type frame struct {
	r     *runner // the run using the frame
	sites []site
	next  *frame // free-list link
}

// site is one fork point's share of a frame.
type site struct {
	*fork
	f *frame

	// The join: the parent resumes at the latest of its children's
	// cursors.
	wg  sync.WaitGroup
	mu  sync.Mutex
	end time.Duration

	// gate is what the children's CPU spans contend for. Its slots
	// channel is made with the frame and refilled by every run; a
	// process sets the rest for its run.
	gate cpuGate
	kids []kid

	// A pool's dispatch state.
	start time.Duration // when the dispatcher began submitting
	next  atomic.Int64  // next task to hand out
}

// kid is one child thread of a site. Its start is bound when the frame
// is built, so `go k.start()` allocates nothing.
type kid struct {
	s     *site
	i     int           // which of the fork's wraps, processes or functions it runs; a pool worker takes tasks instead
	at    time.Duration // the cursor it starts at, set by the parent before each start
	start func()
}

// newFrame builds a frame for p, with every join at rest and every
// gate full.
func (p *Program) newFrame() *frame {
	f := &frame{sites: make([]site, len(p.forks))}
	for i := range f.sites {
		s := &f.sites[i]
		s.fork, s.f = &p.forks[i], f
		if n := s.fork.slots; n > 0 {
			s.gate.slots = make(chan time.Duration, n)
			for range n {
				s.gate.slots <- 0
			}
		}
		s.kids = make([]kid, s.children)
		for j := range s.kids {
			k := &s.kids[j]
			k.s, k.i = s, j
			k.start = k.run
		}
	}
	return f
}

// frameList is a Program's free list of run frames. Like the
// timekeeper's waiters it grows to the peak number of concurrent runs
// and is never emptied: a sync.Pool is, by every GC, and each refill
// would build a frame again.
type frameList struct {
	mu   sync.Mutex
	free *frame
}

// takeFrame hands r an idle frame, building one when none is left.
func (p *Program) takeFrame(r *runner) *frame {
	p.frames.mu.Lock()
	f := p.frames.free
	if f != nil {
		p.frames.free, f.next = f.next, nil
	}
	p.frames.mu.Unlock()
	if f == nil {
		f = p.newFrame()
	}
	f.r = r
	return f
}

// giveFrame returns a frame whose run has ended: every thread it
// started has joined, so every gate holds all its tokens again.
func (p *Program) giveFrame(f *frame) {
	f.r = nil
	p.frames.mu.Lock()
	f.next = p.frames.free
	p.frames.free = f
	p.frames.mu.Unlock()
}

// fork readies site idx of r's frame for a parent at cursor at: the
// join counts its children, and the gate's tokens, all of them idle,
// are replaced by tokens at at.
func (r *runner) fork(idx int, at time.Duration) *site {
	s := &r.f.sites[idx]
	s.wg.Add(len(s.kids))
	if c := s.gate.slots; c != nil {
		for len(c) > 0 {
			<-c
		}
		for len(c) < cap(c) {
			c <- at
		}
	}
	return s
}

// spawn starts child i at cursor at.
func (s *site) spawn(i int, at time.Duration) {
	k := &s.kids[i]
	k.at = at
	go k.start()
}

// run is a child thread: it runs its share of the fork from its
// parent's cursor and ends at the site's join.
func (k *kid) run() {
	s := k.s
	r := s.f.r
	th := thread{at: k.at}
	switch s.kind {
	case forkStage:
		r.invokeWrap(&th, s.si, &r.p.stages[s.si].wraps[k.i])
	case forkWrap:
		r.runProcess(&th, s.si, s.wp, &s.wp.procs[k.i])
	case forkProcess:
		r.runFunction(&th, s.si, s.wp.sandbox, s.pp.fns[k.i], s.gate)
	case forkPool:
		r.poolWorker(&th, s)
	}
	s.done(&th)
}

// done ends a child thread at its cursor.
func (s *site) done(th *thread) {
	s.mu.Lock()
	s.end = max(s.end, th.at)
	s.mu.Unlock()
	s.wg.Done()
}

// wait blocks until every child is done, moves th past them and resets
// the join for the frame's next run. A nil site has no children.
func (s *site) wait(th *thread) {
	if s != nil {
		s.wg.Wait()
		th.at = max(th.at, s.end)
		s.end = 0
	}
}
