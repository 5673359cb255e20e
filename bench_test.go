// Benchmarks: one testing.B per figure/table of the paper's evaluation
// (each iteration regenerates the full experiment, so `go test -bench=.`
// doubles as the reproduction harness), plus micro-benchmarks of the hot
// substrates (GIL simulation, wrap execution, PGP planning, the engine).
// They are profiling entry points, not gates: serving-plane latency and
// throughput are measured end to end by `make bench-e2e` (bench/README.md).
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig13 -benchtime=1x   # one-shot table
package chiron_test

import (
	"context"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"chiron"
	"chiron/internal/behavior"
	"chiron/internal/engine"
	"chiron/internal/experiments"
	"chiron/internal/gil"
	"chiron/internal/model"
	"chiron/internal/obs"
	"chiron/internal/parallel"
	"chiron/internal/pgp"
	"chiron/internal/platform"
	"chiron/internal/predict"
	"chiron/internal/profiler"
	"chiron/internal/serve"
	"chiron/internal/udp"
	"chiron/internal/workloads"
)

// benchExperiment runs one experiment per iteration. Quick mode keeps
// -bench=. affordable; run cmd/chiron-bench for the full-size tables.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Default()
	cfg.Quick = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig03SchedulingOverhead(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig04Transmission(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig05Timelines(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig06LatencyComparison(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig07NoGILCPUs(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig08Resources(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkTable01Isolation(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkFig11PGPTrace(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12PredictionError(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13OverallLatency(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14SLOViolations(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15LatencyCDF(b *testing.B)         { benchExperiment(b, "fig15") }
func BenchmarkFig16MemoryThroughput(b *testing.B)   { benchExperiment(b, "fig16") }
func BenchmarkFig17CPUAllocation(b *testing.B)      { benchExperiment(b, "fig17") }
func BenchmarkFig18NoGIL(b *testing.B)              { benchExperiment(b, "fig18") }
func BenchmarkFig19DollarCost(b *testing.B)         { benchExperiment(b, "fig19") }

// ---- substrate micro-benchmarks ----

func gilSpecs(n int) []*behavior.Spec {
	specs := make([]*behavior.Spec, n)
	for i := range specs {
		specs[i] = &behavior.Spec{
			Name: "f", Runtime: behavior.Python,
			Segments: []behavior.Segment{
				{Kind: behavior.CPU, Dur: 2 * time.Millisecond},
				{Kind: behavior.NetIO, Dur: time.Millisecond},
				{Kind: behavior.CPU, Dur: time.Millisecond},
			},
			MemMB: 1,
		}
	}
	return specs
}

// BenchmarkGILSimulate50Threads measures Algorithm 1's core: simulating
// 50 GIL-contended threads (the Predictor's inner loop).
func BenchmarkGILSimulate50Threads(b *testing.B) {
	specs := gilSpecs(50)
	opt := gil.Options{Procs: 1, Quantum: 5 * time.Millisecond, Spawn: gil.MainThread,
		SpawnBatch: 8, SpawnCost: 300 * time.Microsecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gil.Simulate(specs, opt)
	}
}

// BenchmarkGILSimulate200Pool measures the pool scheduler at FINRA-200
// scale.
func BenchmarkGILSimulate200Pool(b *testing.B) {
	specs := gilSpecs(200)
	opt := gil.Options{Procs: 8, Quantum: 5 * time.Millisecond, Spawn: gil.Dispatcher,
		SpawnCost: 450 * time.Microsecond, Workers: 200}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gil.Simulate(specs, opt)
	}
}

// BenchmarkProfileWorkflow measures the Profiler on the FINRA-50 workflow
// (solo runs, strace recording, log parsing, rescaling).
func BenchmarkProfileWorkflow(b *testing.B) {
	w := workloads.FINRA(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPGPPlanFINRA100 measures the scheduler on the paper's Figure 11
// input: FINRA-100 under a 200 ms SLO.
func BenchmarkPGPPlanFINRA100(b *testing.B) {
	w := workloads.FINRA(100)
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pgp.Plan(w, set, pgp.Options{Const: model.Default(), SLO: 200 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPGPPlanHeterogeneous measures Kernighan-Lin refinement on the
// mixed-class SLApp-V (the homogeneous shortcut does not apply).
func BenchmarkPGPPlanHeterogeneous(b *testing.B) {
	w := workloads.SLAppV()
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pgp.Plan(w, set, pgp.Options{Const: model.Default(), SLO: 60 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRequestFINRA50 measures one ground-truth request under
// the Chiron deployment.
func BenchmarkEngineRequestFINRA50(b *testing.B) {
	w := workloads.FINRA(50)
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sys := platform.Chiron(model.Default())
	plan, err := sys.Plan(w, set, 300*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	env := sys.Env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Seed = int64(i)
		if _, err := engine.Run(w, plan, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRequestASF200 measures the most event-heavy baseline:
// Step Functions driving FINRA-200 one-to-one.
func BenchmarkEngineRequestASF200(b *testing.B) {
	w := workloads.FINRA(200)
	sys := platform.ASF(model.Default())
	plan, err := sys.Plan(w, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	env := sys.Env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Seed = int64(i)
		if _, err := engine.Run(w, plan, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeployFacade measures the whole public-API path: profile +
// plan + one invocation.
func BenchmarkDeployFacade(b *testing.B) {
	w := chiron.SocialNetwork()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dep, err := chiron.Deploy(w, 80*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dep.Invoke(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- parallel harness benchmarks ----

// benchSuiteQuick regenerates a representative slice of the evaluation
// (one experiment per fan-out shape) at a given worker-pool width.
func benchSuiteQuick(b *testing.B, workers int) {
	b.Helper()
	prev := parallel.Workers()
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	ids := []string{"fig3", "fig6", "fig13", "fig15"}
	cfg := experiments.Default()
	cfg.Quick = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			if _, err := experiments.Run(id, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSuiteQuickSequential is the 1-worker baseline for the harness:
// compare against BenchmarkSuiteQuickParallel for the multi-core speedup
// (tables are byte-identical either way).
func BenchmarkSuiteQuickSequential(b *testing.B) { benchSuiteQuick(b, 1) }

// BenchmarkSuiteQuickParallel runs the same slice with the pool at
// NumCPU workers.
func BenchmarkSuiteQuickParallel(b *testing.B) { benchSuiteQuick(b, runtime.NumCPU()) }

// BenchmarkPGPPlanCachedReplan measures a warm re-plan: the second and
// later Plan calls for an unchanged workload are served almost entirely
// from the shared prediction cache (the adapt controller's steady-state
// path). The first iteration pays the cold simulations; b.N iterations
// amortize to the cached cost. Reported alongside: the cache hit rate.
func BenchmarkPGPPlanCachedReplan(b *testing.B) {
	w := workloads.FINRA(100)
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opt := pgp.Options{Const: model.Default(), SLO: 200 * time.Millisecond}
	if _, err := pgp.Plan(w, set, opt); err != nil { // warm the cache
		b.Fatal(err)
	}
	before := predict.ExecCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pgp.Plan(w, set, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := predict.ExecCacheStats()
	lookups := (after.Hits - before.Hits) + (after.Misses - before.Misses)
	if lookups > 0 {
		b.ReportMetric(float64(after.Hits-before.Hits)/float64(lookups), "hit-rate")
	}
}

// BenchmarkGILSimulatePooled50Threads is BenchmarkGILSimulate50Threads on
// a reused Sim — the zero-copy path PGP's candidate pricing runs on. The
// allocs/op column is the guarded budget: 0 once warm.
func BenchmarkGILSimulatePooled50Threads(b *testing.B) {
	specs := gilSpecs(50)
	opt := gil.Options{Procs: 1, Quantum: 5 * time.Millisecond, Spawn: gil.MainThread,
		SpawnBatch: 8, SpawnCost: 300 * time.Microsecond}
	s := gil.NewSim()
	s.Simulate(specs, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Simulate(specs, opt)
	}
}

// BenchmarkGILSimulatePooled200Pool is the dispatcher scheduler at
// FINRA-200 scale on a reused Sim.
func BenchmarkGILSimulatePooled200Pool(b *testing.B) {
	specs := gilSpecs(200)
	opt := gil.Options{Procs: 8, Quantum: 5 * time.Millisecond, Spawn: gil.Dispatcher,
		SpawnCost: 450 * time.Microsecond, Workers: 200}
	s := gil.NewSim()
	s.Simulate(specs, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Simulate(specs, opt)
	}
}

// BenchmarkUDPPacketPath is the per-packet ingress cost in isolation:
// filter, header parse, token verification and shared-queue admission
// (plus release), exactly what the receive loop and worker spend on one
// datagram before modelled execution begins. The acceptance bar is 0
// allocs/op — the UDP plane must be able to shed or admit a flood
// without touching the garbage collector.
func BenchmarkUDPPacketPath(b *testing.B) {
	app := serve.New(serve.Options{Scale: 0.001, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = app.Shutdown(ctx)
	}()
	if _, err := app.RegisterBuiltin("SocialNetwork"); err != nil {
		b.Fatal(err)
	}
	if _, err := app.PlanWorkflow("SocialNetwork", 0); err != nil {
		b.Fatal(err)
	}

	secret, err := udp.NewSecret()
	if err != nil {
		b.Fatal(err)
	}
	addr := netip.MustParseAddrPort("127.0.0.1:40000")
	var pkt [udp.HeaderSize + 16]byte
	if _, err := udp.EncodeInvoke(pkt[:], secret.Token(addr), udp.HashWorkflow("SocialNetwork"), 1, 0, 0, []byte("0123456789abcdef")); err != nil {
		b.Fatal(err)
	}

	ctx := context.Background()
	var h udp.Header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !udp.Filter(pkt[:]) {
			b.Fatal("filter dropped a valid packet")
		}
		if err := udp.ParseHeader(pkt[:], &h); err != nil {
			b.Fatal(err)
		}
		if h.Token != secret.Token(addr) {
			b.Fatal("token mismatch")
		}
		ad, err := app.AdmitHash(ctx, h.Hash)
		if err != nil {
			b.Fatal(err)
		}
		ad.Release()
	}
}
