package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
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

func TestHashNameFNV(t *testing.T) {
	// Pinned FNV-64a vectors: the UDP wire format depends on these
	// exact values, so a change here is a protocol break.
	cases := map[string]uint64{
		"":              14695981039346656037,
		"a":             12638187200555641996,
		"SocialNetwork": 9757268868648466704,
	}
	for in, want := range cases {
		if got := HashName(in); got != want {
			t.Errorf("HashName(%q) = %d, want %d", in, got, want)
		}
	}
	if HashName("wf-a") == HashName("wf-b") {
		t.Fatal("distinct names collided")
	}
}

func TestAdmitHashLifecycle(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	if _, err := a.AdmitHash(context.Background(), HashName("wf-test")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown hash: %v", err)
	}
	if _, err := a.Register(testWorkflow(4 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AdmitHash(context.Background(), HashName("wf-test")); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("unplanned workflow: %v", err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)

	ad, err := a.AdmitHash(context.Background(), HashName("wf-test"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ad.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cold || res.PlanVersion != 1 || res.E2E <= 0 {
		t.Fatalf("fast result %+v", res)
	}

	// Release without Execute must return the slot: the full
	// concurrency budget stays admittable afterwards.
	for i := 0; i < 2*a.index.Load().byName["wf-test"].adm.capacity; i++ {
		ad, err := a.AdmitHash(context.Background(), HashName("wf-test"))
		if err != nil {
			t.Fatalf("admit %d after releases: %v", i, err)
		}
		ad.Release()
	}
}

// TestAdmitHashZeroAlloc is the guarded budget for the ingress step the
// UDP plane runs per packet: hash lookup, drain tracking, admission
// fast path, release. 0 allocs once warm.
func TestAdmitHashZeroAlloc(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	if _, err := a.Register(testWorkflow(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)
	h := HashName("wf-test")
	ctx := context.Background()
	if avg := testing.AllocsPerRun(200, func() {
		ad, err := a.AdmitHash(ctx, h)
		if err != nil {
			t.Fatal(err)
		}
		ad.Release()
	}); avg > 0 {
		t.Fatalf("AdmitHash+Release allocates %.1f per run, want 0", avg)
	}
	// The unknown-hash reject is a packet-flood path too: no allocs.
	bad := HashName("no-such-workflow")
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := a.AdmitHash(ctx, bad); err == nil {
			t.Fatal("unknown hash admitted")
		}
	}); avg > 0 {
		t.Fatalf("unknown-hash reject allocates %.1f per run, want 0", avg)
	}
}

// TestServedRequestAllocs budgets a whole served request, AdmitHash +
// Execute, with the flight recorder and registry wired as chirond wires
// them (default sampling and ring). Window 1<<20 freezes the adaptive
// controller, as bench/e2e does: a re-plan would count its own
// allocations. A one-minute SLO keeps every request within it; at the
// auto SLO each one violates it, and the first 64 a second are retained
// with a full trace copy.
func TestServedRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation budgets are checked without it")
	}
	null, err := dag.FromStages("null", 0, []*behavior.Spec{{
		Name:     "null",
		Runtime:  behavior.Python,
		Segments: []behavior.Segment{{Kind: behavior.CPU, Dur: time.Microsecond}},
		MemMB:    1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		wf     *dag.Workflow // nil: the builtin of that name
		scale  float64
		budget float64
	}{
		// Nothing: the live result is pooled and released by Execute,
		// and serve binds no function, so no store is made.
		{"null", null, 0.001, 0},
		// 0 in most runs, 1 in some: the run's fork points reuse its
		// Program's frames and its result is pooled like the null
		// run's, but retention (the 1% healthy sample and the
		// rolling-p99 slow rule) is random, a retained trace is copied
		// into the ring, and AllocsPerRun truncates the mean.
		{"SocialNetwork", nil, 0.01, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			fl := flight.New(flight.Options{Reg: reg})
			a := testApp(t, Options{Scale: tc.scale, Window: 1 << 20, Reg: reg, Flight: fl})
			if tc.wf != nil {
				_, err = a.Register(tc.wf)
			} else {
				_, err = a.RegisterBuiltin(tc.name)
			}
			if err != nil {
				t.Fatal(err)
			}
			mustPlan(t, a, tc.name, time.Minute)
			h, ctx := HashName(tc.name), context.Background()
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
			avg := testing.AllocsPerRun(100, run)
			t.Logf("%.0f allocations per served request", avg)
			if avg > tc.budget {
				t.Fatalf("served request allocates %.2f per run, budget %.0f", avg, tc.budget)
			}
		})
	}
}

// TestRegisterClearsEarlierMiss: a miss stores nothing, so registering
// a name that missed before makes it resolvable at once on both planes,
// and every miss's error names the workflow it missed.
func TestRegisterClearsEarlierMiss(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	for i := 0; i < 3; i++ {
		_, err := a.Invoke(context.Background(), "ghost", nil)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if !strings.Contains(err.Error(), `"ghost"`) {
			t.Fatalf("miss %d does not name the workflow: %v", i, err)
		}
	}

	w := testWorkflow(2 * time.Millisecond)
	w.Name = "ghost"
	if _, err := a.Register(w); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Invoke(context.Background(), "ghost", nil); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("after register: %v (want ErrNoPlan, not ErrNotFound)", err)
	}
	if _, err := a.AdmitHash(context.Background(), HashName("ghost")); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("AdmitHash after register: %v (want ErrNoPlan, not ErrNotFound)", err)
	}
}

// TestRegistryVisibleUnderConcurrency: readers on both planes race 200
// registrations. A name whose Register has returned never misses
// afterwards, by name or by hash, and a workflow a reader can find
// always carries its behaviour, even mid-registration.
func TestRegistryVisibleUnderConcurrency(t *testing.T) {
	const n = 200
	a := testApp(t, Options{Scale: 0.02})
	names := make([]string, n)
	for i := range names {
		names[i] = "wf-" + strconv.Itoa(i)
	}
	var registered atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				done := int(registered.Load())
				if done < n {
					// Probe the name being registered now.
					if wf, err := a.workflow(names[done]); err == nil && wf.snapshot() == nil {
						t.Errorf("%s resolved with no behaviour", names[done])
						return
					}
				}
				if done == 0 {
					continue
				}
				name := names[i%done]
				if _, err := a.workflow(name); err != nil {
					t.Errorf("registered %s missed by name: %v", name, err)
					return
				}
				if _, err := a.AdmitHash(ctx, HashName(name)); !errors.Is(err, ErrNoPlan) {
					t.Errorf("registered %s by hash: %v, want ErrNoPlan", name, err)
					return
				}
			}
		}(r)
	}
	for i, name := range names {
		w := testWorkflow(2 * time.Millisecond)
		w.Name = name
		if created, err := a.Register(w); err != nil || !created {
			t.Fatalf("register %s: created %v, %v", name, created, err)
		}
		registered.Store(int64(i + 1))
	}
	if got := a.Workflows(); len(got) != n {
		t.Fatalf("Workflows lists %d names, want %d", len(got), n)
	}
}

// TestMissStoresNothing: unknown names and hashes leave the registry
// snapshot as it was, however many arrive.
func TestMissStoresNothing(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	if _, err := a.Register(testWorkflow(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	before := a.index.Load()
	ctx := context.Background()
	for i := 0; i < 10000; i++ {
		junk := "junk-" + strconv.Itoa(i)
		if _, err := a.workflow(junk); !errors.Is(err, ErrNotFound) {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if _, err := a.AdmitHash(ctx, HashName(junk)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("hash lookup %d: %v", i, err)
		}
	}
	if a.index.Load() != before {
		t.Fatal("junk lookups replaced the registry snapshot")
	}
}

// TestWorkflowLookupZeroAlloc: resolving a registered name, the first
// step of every HTTP request, allocates nothing.
func TestWorkflowLookupZeroAlloc(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	if _, err := a.Register(testWorkflow(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := a.workflow("wf-test"); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Fatalf("known-name lookup allocates %.1f per run, want 0", avg)
	}
}

// TestHashCollisionRefused: a new name whose hash belongs to another
// registered name is refused, by withWorkflow, by Register and
// as a 409 over HTTP, and the registered workflow keeps its hash.
func TestHashCollisionRefused(t *testing.T) {
	first := &workflowState{name: "first"}
	one, err := withWorkflow(&workflowIndex{}, first, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := withWorkflow(one, &workflowState{name: "second"}, 7); !errors.Is(err, ErrHashCollision) {
		t.Fatalf("second name on hash 7: %v, want ErrHashCollision", err)
	}
	if one.byHash[7] != first || len(one.byName) != 1 {
		t.Fatal("a refused build changed the snapshot it started from")
	}

	// Plant a workflow on wf-test's hash under another name, as a real
	// FNV-64a collision would.
	a, srv := httpApp(t, Options{Scale: 0.02})
	impostor := &workflowState{app: a, name: "impostor", adm: newAdmission(a, 1, 1, 1)}
	next, err := withWorkflow(a.index.Load(), impostor, HashName("wf-test"))
	if err != nil {
		t.Fatal(err)
	}
	a.index.Store(next)
	if _, err := a.Register(testWorkflow(2 * time.Millisecond)); !errors.Is(err, ErrHashCollision) {
		t.Fatalf("Register on a taken hash: %v, want ErrHashCollision", err)
	}
	if code, body := doJSON(t, "POST", srv.URL+"/workflows", map[string]interface{}{"workflow": testWorkflow(2 * time.Millisecond)}); code != http.StatusConflict {
		t.Fatalf("POST /workflows on a taken hash: %d %v, want 409", code, body)
	}
	if _, err := a.workflow("wf-test"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused name resolves: %v", err)
	}
	if a.index.Load().byHash[HashName("wf-test")] != impostor {
		t.Fatal("the refused registration moved the hash")
	}
}

func TestKeepAliveJitterSpreadsExpiry(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02, KeepAlive: time.Minute, KeepAliveJitter: 0.2})
	if _, err := a.Register(testWorkflow(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)
	ps := a.index.Load().byName["wf-test"].active.Load()
	now := time.Now()
	min, max := now.Add(time.Minute), now.Add(time.Minute)
	for i := 0; i < 64; i++ {
		e := ps.pool.expiry(now)
		if e.Before(min) {
			min = e
		}
		if e.After(max) {
			max = e
		}
		lo, hi := now.Add(48*time.Second), now.Add(72*time.Second)
		if e.Before(lo) || e.After(hi) {
			t.Fatalf("expiry %v outside [%v, %v]", e.Sub(now), 48*time.Second, 72*time.Second)
		}
	}
	if max.Sub(min) < time.Second {
		t.Fatalf("64 jittered expiries spread only %v; epoch-wide expiry would synchronize", max.Sub(min))
	}

	// Jitter disabled (negative): expiry is exactly keep-alive.
	b := testApp(t, Options{Scale: 0.02, KeepAlive: time.Minute, KeepAliveJitter: -1})
	if _, err := b.Register(testWorkflow(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, b, "wf-test", 400*time.Millisecond)
	pb := b.index.Load().byName["wf-test"].active.Load()
	if e := pb.pool.expiry(now); !e.Equal(now.Add(time.Minute)) {
		t.Fatalf("jitter-disabled expiry %v, want exactly %v", e.Sub(now), time.Minute)
	}
}
