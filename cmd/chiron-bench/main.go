// Command chiron-bench regenerates the paper's evaluation: every figure
// and table of "Rethinking Deployment for Serverless Functions" as an
// aligned text table, with the paper's reported values attached as notes.
//
// Usage:
//
//	chiron-bench               # run everything, print to stdout
//	chiron-bench -exp fig13    # one experiment
//	chiron-bench -quick        # trimmed sweeps (CI-sized)
//	chiron-bench -parallel 1   # sequential run (identical output)
//	chiron-bench -out results  # additionally write one .txt per experiment
//	chiron-bench -list         # list experiment IDs
//	chiron-bench -trace d      # write a Chrome trace of one FINRA-100 request to d/
//
// Experiments fan out across a worker pool (-parallel, default NumCPU);
// every experiment derives its tables from fixed seeds, so the output is
// byte-identical at any worker count — only the wall-clock changes. Both
// -out and -trace directories receive a run-manifest.json recording the
// run's provenance (seed, constants fingerprint, flags, go version).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"chiron/internal/engine"
	"chiron/internal/experiments"
	"chiron/internal/obs"
	"chiron/internal/parallel"
	"chiron/internal/platform"
	"chiron/internal/predict"
	"chiron/internal/profiler"
	"chiron/internal/sim"
	"chiron/internal/workloads"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment ID (fig3..fig19, table1, abl-*), 'all' (paper), or 'ablations'")
		quick   = flag.Bool("quick", false, "trim sweeps for a fast pass")
		out     = flag.String("out", "", "directory to also write per-experiment .txt files")
		seed    = flag.Int64("seed", 1, "jitter seed")
		reqs    = flag.Int("requests", 0, "samples for distributional metrics (0 = default)")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		workers = flag.Int("parallel", runtime.NumCPU(), "worker-pool width (1 = sequential; output is identical either way)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		trace   = flag.String("trace", "", "directory for a Chrome trace (trace.json), text timeline and manifest of one FINRA-100 Chiron request")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.Order {
			fmt.Println(id)
		}
		for _, id := range experiments.Ablations {
			fmt.Println(id)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	parallel.SetWorkers(*workers)

	// Baselines for the exit-time throughput report: simulator events and
	// heap allocations consumed by this run only.
	runStart := time.Now()
	eventsStart := sim.TotalFired()
	var msStart runtime.MemStats
	runtime.ReadMemStats(&msStart)

	cfg := experiments.Default()
	cfg.Quick = *quick
	cfg.Seed = *seed
	if *reqs > 0 {
		cfg.Requests = *reqs
	}

	// Run provenance: every -out and -trace directory gets this manifest.
	setFlags := map[string]string{}
	expSet := false
	flag.Visit(func(f *flag.Flag) {
		setFlags[f.Name] = f.Value.String()
		if f.Name == "exp" {
			expSet = true
		}
	})
	build := obs.ReadBuild()
	man := obs.Manifest{
		Tool:        "chiron-bench",
		GoVersion:   runtime.Version(),
		Version:     build.Version,
		VCSRevision: build.Revision,
		Seed:        cfg.Seed,
		Workers:     parallel.Workers(),
		Quick:       cfg.Quick,
		Requests:    cfg.Requests,
		ConstantsFP: obs.Fingerprint(cfg.Const),
		Flags:       setFlags,
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
	}

	if *trace != "" {
		if err := writeTrace(*trace, cfg, man); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: wrote trace.json, timeline.txt and %s to %s\n", obs.ManifestName, *trace)
		if !expSet {
			// A bare -trace run is about the trace, not the tables.
			printRunStats(runStart, eventsStart, &msStart)
			return
		}
	}

	ids := experiments.Order
	switch *exp {
	case "all":
	case "ablations":
		ids = experiments.Ablations
	default:
		ids = []string{*exp}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	start := time.Now()
	// Fan the experiment drivers themselves across the pool; each one
	// measures its own elapsed wall-clock. Results come back in paper
	// order, so stdout reads the same as a sequential run.
	type outcome struct {
		text    string
		elapsed time.Duration
	}
	results, err := parallel.Map(len(ids), func(i int) (outcome, error) {
		t0 := time.Now()
		tab, err := experiments.Run(ids[i], cfg)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", ids[i], err)
		}
		return outcome{text: tab.String(), elapsed: time.Since(t0)}, nil
	})
	if err != nil {
		fatal(err)
	}
	for i, res := range results {
		fmt.Print(res.text)
		fmt.Printf("(%s regenerated in %v)\n\n", ids[i], res.elapsed.Round(time.Millisecond))
		if *out != "" {
			path := filepath.Join(*out, ids[i]+".txt")
			if err := os.WriteFile(path, []byte(res.text), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	if *out != "" {
		m := man
		m.Experiments = ids
		for _, e := range workloads.Suite() {
			m.Workloads = append(m.Workloads, e.Name)
		}
		if err := m.WriteFile(*out); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("done: %d experiment(s) in %v\n", len(ids), time.Since(start).Round(time.Millisecond))
	printRunStats(runStart, eventsStart, &msStart)

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// printRunStats reports the shared prediction cache's counters and the
// simulation-core throughput (events/sec and heap allocations per
// event — the zero-allocation hot path's scoreboard).
func printRunStats(runStart time.Time, eventsStart uint64, msStart *runtime.MemStats) {
	cs := predict.ExecCacheStats()
	hitRate := 0.0
	if total := cs.Hits + cs.Misses; total > 0 {
		hitRate = float64(cs.Hits) / float64(total) * 100
	}
	fmt.Printf("prediction cache: %d hits / %d misses / %d evictions (%.1f%% hit rate)\n",
		cs.Hits, cs.Misses, cs.Evictions, hitRate)
	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)
	events := sim.TotalFired() - eventsStart
	allocs := msEnd.Mallocs - msStart.Mallocs
	elapsed := time.Since(runStart).Seconds()
	if events > 0 && elapsed > 0 {
		fmt.Printf("simulation core: %d events fired (%.2fM events/sec), %.2f allocs/event\n",
			events, float64(events)/elapsed/1e6, float64(allocs)/float64(events))
	}
}

// writeTrace runs one FINRA-100 request on the Chiron deployment with
// tracing on and writes the Chrome trace, a text timeline and the run
// manifest into dir. The trace is in virtual time, so its bytes depend
// only on (workflow, plan, seed) — never on -parallel.
func writeTrace(dir string, cfg experiments.Config, man obs.Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w := workloads.FINRA(100)
	set, err := profiler.ProfileWorkflow(w, profiler.DefaultOptions())
	if err != nil {
		return err
	}
	sys := platform.Chiron(cfg.Const)
	plan, err := sys.Plan(w, set, 0)
	if err != nil {
		return err
	}
	env := sys.Env()
	env.Seed = cfg.Seed
	tr := obs.NewTrace()
	env.Rec = tr
	if _, err := engine.Run(w, plan, env); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "timeline.txt"), []byte(tr.Timeline(112)), 0o644); err != nil {
		return err
	}
	man.Workloads = []string{w.Name}
	return man.WriteFile(dir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chiron-bench:", err)
	os.Exit(1)
}
