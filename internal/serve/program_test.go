package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestProgramCacheFollowsBehaviour: an epoch compiles its plan once per
// behaviour snapshot. Re-registering a heavier behaviour under traffic
// replaces the cached Program exactly once, no request fails across the
// switch, and a behaviour the plan no longer fits is still reported as
// ErrStalePlan (from the cache too).
func TestProgramCacheFollowsBehaviour(t *testing.T) {
	a := testApp(t, Options{Scale: 0.05, Window: 1 << 20})
	light := testWorkflow(2 * time.Millisecond)
	if _, err := a.Register(light); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)
	wf, err := a.workflow("wf-test")
	if err != nil {
		t.Fatal(err)
	}
	ps := wf.active.Load()

	// Every stored *compiledPlan is one compilation; the clients sample
	// the cache after each request and report what they saw.
	var (
		mu   sync.Mutex
		seen = map[*compiledPlan]bool{}
		wg   sync.WaitGroup
	)
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := a.Invoke(context.Background(), "wf-test", nil); err != nil {
					t.Errorf("invoke across a re-registration: %v", err)
					return
				}
				mu.Lock()
				seen[ps.compiled.Load()] = true
				mu.Unlock()
			}
		}()
	}
	waitFor(t, func() bool { c := ps.compiled.Load(); return c != nil && c.beh == light })
	heavy := testWorkflow(4 * time.Millisecond)
	if _, err := a.Register(heavy); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ps.compiled.Load().beh == heavy })
	time.Sleep(20 * time.Millisecond) // a few more requests on the new Program
	close(stop)
	wg.Wait()

	if wf.active.Load() != ps {
		t.Fatal("the epoch changed under the test; Window should have frozen the controller")
	}
	var lights, heavies int
	for c := range seen {
		switch {
		case c.err != nil:
			t.Errorf("cached a compile error: %v", c.err)
		case c.beh == light:
			lights++
		case c.beh == heavy:
			heavies++
		}
	}
	if lights != 1 || heavies != 1 {
		t.Fatalf("saw %d Programs for the first behaviour and %d for the second, want 1 and 1", lights, heavies)
	}

	// Drop a function the plan places: the pair no longer validates.
	dropped := testWorkflow(2 * time.Millisecond)
	dropped.Stages[1].Functions = dropped.Stages[1].Functions[:1]
	if _, err := a.Register(dropped); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := a.Invoke(context.Background(), "wf-test", nil); !errors.Is(err, ErrStalePlan) {
			t.Fatalf("invoke %d after dropping a placed function: %v, want ErrStalePlan", i, err)
		}
	}
	if c := ps.compiled.Load(); c.beh != dropped || c.err == nil {
		t.Fatalf("cache holds %+v, want the failed compilation of the dropped behaviour", c)
	}
	// Lease accounting survived the failed requests.
	if _, err := a.Register(heavy); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Invoke(context.Background(), "wf-test", nil); err != nil {
		t.Fatalf("invoke after restoring the behaviour: %v", err)
	}
}
