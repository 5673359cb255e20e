package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// deadlineOnlyCtx carries a deadline without ever firing Done: it
// isolates the admission queue's own deadline handling (expired-reject,
// slack ordering, grant-time shed) from the racing ctx.Done path that a
// context.WithTimeout would add on top.
type deadlineOnlyCtx struct {
	context.Context
	dl time.Time
}

func (c deadlineOnlyCtx) Deadline() (time.Time, bool) { return c.dl, true }

// TestAdmissionExpiredDeadlineRejected: a request whose deadline has
// already passed must be refused before it consumes a queue seat or an
// execution slot.
func TestAdmissionExpiredDeadlineRejected(t *testing.T) {
	a := testApp(t, Options{})
	adm := newAdmission(a, 1, 10, 1)
	adm.prime(time.Millisecond)

	ctx := deadlineOnlyCtx{context.Background(), time.Now().Add(-time.Millisecond)}
	if _, err := adm.admit(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired admit: %v, want DeadlineExceeded", err)
	}
	if got := a.m.deadlineExpired.Value(); got != 1 {
		t.Fatalf("deadline_expired_total = %d, want 1", got)
	}
	if d := adm.depth(); d != 0 {
		t.Fatalf("expired request left depth %d", d)
	}
	// The slot was never touched: the next request takes the fast path.
	if _, err := adm.admit(context.Background()); err != nil {
		t.Fatalf("admit after expired reject: %v", err)
	}
	adm.done()
}

// TestAdmissionSlackOrdering: the queue is EDF, not FIFO — a waiter
// with a tight deadline enqueued later is granted before a
// deadline-less waiter that arrived first.
func TestAdmissionSlackOrdering(t *testing.T) {
	a := testApp(t, Options{})
	adm := newAdmission(a, 1, 10, 1)
	adm.prime(time.Millisecond)

	if _, err := adm.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	go func() {
		if _, err := adm.admit(context.Background()); err != nil {
			order <- "fifo-err"
			return
		}
		order <- "fifo"
	}()
	waitFor(t, func() bool { return adm.depth() == 1 })
	go func() {
		ctx := deadlineOnlyCtx{context.Background(), time.Now().Add(30 * time.Second)}
		if _, err := adm.admit(ctx); err != nil {
			order <- "deadline-err"
			return
		}
		order <- "deadline"
	}()
	waitFor(t, func() bool { return adm.depth() == 2 })

	adm.done()
	if first := <-order; first != "deadline" {
		t.Fatalf("first grant went to %q, want the deadline waiter", first)
	}
	adm.done()
	if second := <-order; second != "fifo" {
		t.Fatalf("second grant went to %q, want the FIFO waiter", second)
	}
	adm.done()
}

// TestAdmissionGrantTimeShed: a waiter whose deadline passed while it
// queued is shed at grant time — it gets DeadlineExceeded instead of a
// warm slot it can no longer use, and the slot goes back to the pool.
func TestAdmissionGrantTimeShed(t *testing.T) {
	a := testApp(t, Options{})
	adm := newAdmission(a, 1, 10, 1)
	adm.prime(time.Millisecond)

	if _, err := adm.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		ctx := deadlineOnlyCtx{context.Background(), time.Now().Add(20 * time.Millisecond)}
		_, err := adm.admit(ctx)
		errCh <- err
	}()
	waitFor(t, func() bool { return adm.depth() == 1 })
	time.Sleep(30 * time.Millisecond) // let the waiter's deadline lapse in the queue

	adm.done()
	if err := <-errCh; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline waiter: %v, want DeadlineExceeded", err)
	}
	if got := a.m.deadlineShed.Value(); got != 1 {
		t.Fatalf("deadline_shed_total = %d, want 1", got)
	}
	// The shed handed the slot onward (to free, with nobody else queued).
	if _, err := adm.admit(context.Background()); err != nil {
		t.Fatalf("admit after shed: %v", err)
	}
	adm.done()
}

// TestPoolColdCancelAccounting: cancelling an acquire mid-cold-boot must
// unwind leased/total and the resident gauge, leave the coldstarts
// counter monotone, and tick chiron_serve_cold_cancelled_total.
func TestPoolColdCancelAccounting(t *testing.T) {
	a := testApp(t, Options{Scale: 1}) // coldWall = full 167ms ColdStart
	if _, err := a.Register(testWorkflow(4 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)
	pool := a.index.Load().byName["wf-test"].active.Load().pool

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pool.acquire(ctx, false)
		done <- err
	}()
	waitFor(t, func() bool { return a.m.cold.Value() == 1 }) // boot has begun
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: %v, want Canceled", err)
	}

	if got := a.m.coldCancelled.Value(); got != 1 {
		t.Fatalf("cold_cancelled_total = %d, want 1", got)
	}
	if got := a.m.cold.Value(); got != 1 {
		t.Fatalf("coldstarts_total = %d, want 1 (counters stay monotonic)", got)
	}
	st := pool.stats()
	if st.Total != 0 || st.Warm != 0 || st.ResidentMB != 0 {
		t.Fatalf("pool not unwound after cancel: %+v", st)
	}
	pool.mu.Lock()
	leased := pool.leased
	pool.mu.Unlock()
	if leased != 0 {
		t.Fatalf("leased = %d after cancel, want 0", leased)
	}

	// The pool still serves: a fresh acquire boots cold and parks warm.
	cold, err := pool.acquire(context.Background(), false)
	if err != nil || !cold {
		t.Fatalf("acquire after cancel: cold=%v err=%v", cold, err)
	}
	pool.release(time.Now())
	if st := pool.stats(); st.Warm != 1 || st.Total != 1 {
		t.Fatalf("pool after release: %+v", st)
	}
}

// TestPoolHedgeBootKept: a hedge's cold boot cut short by its context
// (the primary won) is not unwound. The instance parks warm, is not
// counted as cancelled, and serves the next lease as a warm hit.
func TestPoolHedgeBootKept(t *testing.T) {
	a := testApp(t, Options{Scale: 1}) // coldWall = full 167ms ColdStart
	if _, err := a.Register(testWorkflow(4 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)
	pool := a.index.Load().byName["wf-test"].active.Load().pool

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pool.acquire(ctx, true)
		done <- err
	}()
	waitFor(t, func() bool { return a.m.cold.Value() == 1 }) // boot has begun
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled hedge acquire: %v, want Canceled", err)
	}
	if got := a.m.coldCancelled.Value(); got != 0 {
		t.Fatalf("cold_cancelled_total = %d, want 0 (the boot was kept)", got)
	}
	if st := pool.stats(); st.Warm != 1 || st.Total != 1 || st.ResidentMB != pool.perInstMB {
		t.Fatalf("pool after a kept hedge boot: %+v, want 1 warm of 1", st)
	}

	cold, err := pool.acquire(context.Background(), false)
	if err != nil || cold {
		t.Fatalf("acquire after a kept hedge boot: cold=%v err=%v, want a warm hit", cold, err)
	}
	pool.release(time.Now())
	if got := a.m.cold.Value(); got != 1 {
		t.Fatalf("coldstarts_total = %d, want 1", got)
	}
}
