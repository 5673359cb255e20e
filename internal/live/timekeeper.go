package live

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// The timekeeper is the one place every wait of every request sleeps.
// Go's own timers wake an idle process only at whole milliseconds (the
// netpoller rounds its sleep down to milliseconds and a sub-millisecond
// timer fires after about one tick), so a wait shorter than a tick took
// a tick and Scale < 1 measured the host's timer instead of the plan.
// Here the waits sit in one min-heap of deadlines and a single alarm is
// armed for the earliest: on Linux a timerfd that the netpoller watches,
// so epoll returns when the kernel's hrtimer expires (alarm_linux.go).
// Elsewhere, or when no timerfd can be made, a time.Timer arms the same
// heap (alarm_other.go, timerAlarm).

// epoch is the timekeeper's time origin: deadlines are monotonic
// offsets from it.
var epoch = time.Now()

// now is the monotonic time since epoch.
func now() time.Duration { return time.Since(epoch) }

// alarm calls its fire function once, no earlier than d from now,
// replacing whatever it was armed for. d is always positive.
type alarm interface {
	arm(d time.Duration)
}

// timerAlarm arms the heap with a Go timer: tick-granular when the
// process is idle, but it needs nothing from the operating system.
type timerAlarm struct{ t *time.Timer }

func newTimerAlarm(fire func()) alarm {
	t := time.AfterFunc(time.Hour, fire)
	t.Stop()
	return timerAlarm{t}
}

func (a timerAlarm) arm(d time.Duration) { a.t.Reset(d) }

// waiter is one blocked wait. It belongs to the timekeeper: waiters are
// recycled through its free list, which grows to the peak number of
// concurrent waits and is never emptied (a sync.Pool would be, by every
// GC, and each refill allocates a channel).
type waiter struct {
	at   time.Duration // deadline, since epoch
	idx  int           // position in the heap; -1 when not in it
	wake chan struct{} // receives one value when the deadline passes
	next *waiter       // free-list link
}

type timekeeper struct {
	mu    sync.Mutex
	heap  waitHeap
	free  *waiter
	alarm alarm // made by the first wait
}

// tk is the process's timekeeper.
var tk timekeeper

// yieldBelow is the shortest wait worth parking for at once. A parked
// waiter costs about 11 µs of CPU and wakes about 9 µs after its
// deadline (p50 of 2 000 waits of 0.5-5 µs, idle 2-vCPU VM), and under
// load it waits for a processor to poll the netpoller. A shorter wait
// first yields the processor once, and whatever else is runnable runs
// meanwhile; only a wait that outlasts that parks. The null request's
// one wait, a 300 ns thread clone at Scale 0.001, is one of these:
// parked, it moved null_udp's p50 from 24 to 38 µs.
const yieldBelow = 10 * time.Microsecond

// sleep blocks until now() >= at, or until done is closed; it reports
// whether the deadline was reached. It never returns early on its own:
// the alarm may fire early or spuriously, but a waiter is woken only
// once its deadline is past.
func (k *timekeeper) sleep(at time.Duration, done <-chan struct{}) bool {
	if at-now() < yieldBelow {
		runtime.Gosched()
		if now() >= at {
			return true
		}
	}
	k.mu.Lock()
	if k.alarm == nil {
		k.alarm = newAlarm(k.fire)
	}
	w := k.free
	if w != nil {
		k.free = w.next
		w.next = nil
	} else {
		w = &waiter{wake: make(chan struct{}, 1)}
	}
	w.at = at
	heap.Push(&k.heap, w)
	if w.idx == 0 {
		// The new earliest deadline: the alarm was armed for a later one
		// or for none.
		k.alarm.arm(max(at-now(), 1))
	}
	k.mu.Unlock()

	reached := true
	select {
	case <-w.wake:
	case <-done:
		reached = false
	}
	k.mu.Lock()
	if !reached {
		if w.idx >= 0 {
			heap.Remove(&k.heap, w.idx)
		} else {
			// fire already popped it and sent the wake, under this
			// lock: drain it, so the waiter is recycled clean.
			<-w.wake
		}
	}
	w.next = k.free
	k.free = w
	k.mu.Unlock()
	return reached
}

// fire wakes every waiter whose deadline has passed and re-arms the
// alarm for the earliest one left.
func (k *timekeeper) fire() {
	k.mu.Lock()
	t := now()
	for len(k.heap) > 0 && k.heap[0].at <= t {
		w := heap.Pop(&k.heap).(*waiter)
		w.wake <- struct{}{} // buffered, and sent once per wait
	}
	if len(k.heap) > 0 {
		k.alarm.arm(k.heap[0].at - t)
	}
	k.mu.Unlock()
}

// waitHeap orders the waiters by deadline and keeps each one's index,
// so that an aborted wait can leave from the middle.
type waitHeap []*waiter

func (h waitHeap) Len() int           { return len(h) }
func (h waitHeap) Less(i, j int) bool { return h[i].at < h[j].at }

func (h waitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *waitHeap) Push(x any) {
	w := x.(*waiter)
	w.idx = len(*h)
	*h = append(*h, w)
}

func (h *waitHeap) Pop() any {
	old := *h
	n := len(old) - 1
	w := old[n]
	old[n] = nil
	*h = old[:n]
	w.idx = -1
	return w
}
