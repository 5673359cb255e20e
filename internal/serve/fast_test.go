package serve

import (
	"context"
	"errors"
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
	for i := 0; i < 2*a.wfs["wf-test"].adm.capacity; i++ {
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
		{"null", null, 0.001, 4},
		// 14 in most runs, 15 in some: retention (the 1% healthy sample
		// and the rolling-p99 slow rule) is random, a retained trace is
		// copied into the ring, and AllocsPerRun truncates the mean.
		{"SocialNetwork", nil, 0.01, 15},
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
			if avg := testing.AllocsPerRun(100, run); avg > tc.budget {
				t.Fatalf("served request allocates %.2f per run, budget %.0f", avg, tc.budget)
			}
		})
	}
}

func TestNegativeCacheUnknownWorkflows(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	// First miss takes the registry lock and seeds the cache; repeats
	// are answered by the cache.
	for i := 0; i < 3; i++ {
		if _, err := a.Invoke(context.Background(), "ghost", nil); !errors.Is(err, ErrNotFound) {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if hits := a.m.negHits.Value(); hits != 2 {
		t.Fatalf("negative-cache hits = %d, want 2", hits)
	}

	// Registering the name must unpoison it immediately.
	w := testWorkflow(2 * time.Millisecond)
	w.Name = "ghost"
	if _, err := a.Register(w); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Invoke(context.Background(), "ghost", nil); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("after register: %v (want ErrNoPlan, not ErrNotFound)", err)
	}
}

func TestNegativeCacheBounded(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	// Overflow the cap: the cache must evict per-entry rather than grow
	// without bound, and lookups keep working throughout.
	for i := 0; i < a.opt.NegCacheCap+10; i++ {
		name := "junk-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + itoa(i)
		if _, err := a.workflow(name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if n := a.neg.Len(); n > a.opt.NegCacheCap {
		t.Fatalf("negative cache grew past cap: %d", n)
	}
}

func TestNegativeCacheSurvivesJunkFlood(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	// A handful of legitimate-but-unregistered names are probed
	// repeatedly (clients retrying a typo'd workflow), interleaved with a
	// flood of one-shot junk names several times the cache capacity.
	// Under the old drop-the-whole-map scheme every flood wiped the hot
	// names; under the 2Q policy they are promoted out of the probation
	// queue and keep answering from the cache.
	hot := []string{"typo-a", "typo-b", "typo-c", "typo-d"}
	warm := func() {
		for _, n := range hot {
			if _, err := a.workflow(n); !errors.Is(err, ErrNotFound) {
				t.Fatalf("hot lookup %q: %v", n, err)
			}
		}
	}
	// Probe twice so each hot name ages through the probation queue once
	// and is re-admitted into the protected main queue.
	warm()
	for i := 0; i < a.opt.NegCacheCap; i++ {
		_, _ = a.workflow("flood-" + itoa(i))
	}
	warm()
	for i := 0; i < 4*a.opt.NegCacheCap; i++ {
		_, _ = a.workflow("flood2-" + itoa(i))
		if i%256 == 0 {
			warm()
		}
	}

	before := a.m.negHits.Value()
	warm()
	if got := a.m.negHits.Value() - before; got != uint64(len(hot)) {
		t.Fatalf("hot negative entries evicted by junk flood: %d/%d served from cache", got, len(hot))
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestKeepAliveJitterSpreadsExpiry(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02, KeepAlive: time.Minute, KeepAliveJitter: 0.2})
	if _, err := a.Register(testWorkflow(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)
	ps := a.wfs["wf-test"].active.Load()
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
	pb := b.wfs["wf-test"].active.Load()
	if e := pb.pool.expiry(now); !e.Equal(now.Add(time.Minute)) {
		t.Fatalf("jitter-disabled expiry %v, want exactly %v", e.Sub(now), time.Minute)
	}
}
