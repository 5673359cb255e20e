// Command e2e is the repository's end-to-end serving benchmark: four
// closed-loop workloads against an in-process chirond serving plane
// (serve.App behind udp.Server or an http.Server on loopback), six
// end-to-end metrics and a per-layer breakdown timed from outside, around
// calls into the layers' public functions. README.md in the parent
// directory has the workload and metric tables.
//
//	e2e -workload null_udp -seed 1 -seconds 20 -trace 0   one run; last line is the result JSON
//	e2e -seed 1                                           every workload, each in a fresh process
//	e2e -selfcheck 5                                      A/B the one binary against itself
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value. The result line carries value and unit;
// the name is the map key.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wlName    = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a fresh process)")
		seed      = flag.Int64("seed", 1, "fixes the payload bytes")
		seconds   = flag.Int("seconds", 20, "length of the measured window")
		trace     = flag.Int("trace", 0, "1: report the per-layer metrics of a traced run instead of the end-to-end ones")
		selfcheck = flag.Int("selfcheck", 0, "run N sets alternately labelled A and B and compare them against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *selfcheck > 0:
		err = runSelfcheck(*selfcheck, *seed, *seconds)
	case *wlName == "":
		err = runAll(*seed, *seconds, *trace)
	default:
		wl := findWorkload(*wlName)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *wlName)
			os.Exit(2)
		}
		err = runOne(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that finished and printed its result but
// failed an output check.
var errIncorrect = errors.New("output checks failed")

// runOne is one run of one workload in this process: repeated set-up,
// the measured window (and, traced, the per-layer phases), the output
// checks, then every metric by name and the result line.
func runOne(wl *workload, seed int64, dur time.Duration, traced bool) error {
	sr, err := setupRepeated(wl, seed, setupRuns)
	if err != nil {
		return err
	}
	e := sr.env
	defer e.close()

	// Traced, the window is split: an untraced half gives the client and
	// process numbers and the p50 the traced half is compared with.
	winDur := dur
	if traced {
		winDur = dur / 2
	}
	w, err := runWindow(e, winDur)
	if err != nil {
		return err
	}
	defer w.free()
	s := w.summarize()
	problems := checkWindow(e, w, &s)

	var metrics map[string]metric
	if traced {
		var more []string
		metrics, more, err = layerMetrics(e, sr, seed, w, &s, dur-winDur, traceDir)
		if err != nil {
			return err
		}
		problems = append(problems, more...)
	} else {
		metrics = endToEndMetrics(sr, &s)
	}

	fmt.Printf("workload %s seed %d window %.1fs clients %d traced %v\n", wl.name, seed, winDur.Seconds(), numClients, traced)
	fmt.Printf("attempted %d ok %d failed %d rejected %d (failed/attempted %.6f)\n",
		s.attempted, s.ok, s.failed, s.rejected, float64(s.failed+s.rejected)/float64(max(s.attempted, 1)))
	fmt.Printf("host took %.2f%% of the window's CPU time from this machine (steal)\n", 100*w.stealRatio())
	printMetrics(metrics)
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(result{
		Correct:   len(problems) == 0,
		Attempted: s.attempted,
		Failed:    s.failed + s.rejected,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(problems) > 0 {
		return errIncorrect
	}
	return nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// checkWindow holds the window's outputs against what the program
// reports about itself. Per-reply checks (status, plan version, HTTP
// body) were made by the clients and show up as failed requests.
func checkWindow(e *env, w *windowResult, s *summary) []string {
	var p []string
	if s.ok == 0 {
		p = append(p, "no request succeeded")
	}
	if s.failed > 0 || s.rejected > 0 {
		p = append(p, fmt.Sprintf("%d failed and %d rejected of %d requests", s.failed, s.rejected, s.attempted))
	}
	if got := w.delta("chiron_serve_requests_total"); got != uint64(s.ok) {
		p = append(p, fmt.Sprintf("chiron_serve_requests_total grew by %d, clients saw %d OK replies", got, s.ok))
	}
	h, hw, hl := w.delta("chiron_serve_hedges_total"), w.delta("chiron_serve_hedge_wins_total"), w.delta("chiron_serve_hedge_wasted_total")
	if h != hw+hl {
		p = append(p, fmt.Sprintf("hedges %d != wins %d + wasted %d", h, hw, hl))
	}
	if e.wl.hedgeQ == 0 && h != 0 {
		p = append(p, fmt.Sprintf("%d hedges with hedging off", h))
	}
	if n := w.ctr1["chiron_udp_filtered_total"]; n != 0 {
		p = append(p, fmt.Sprintf("udp filtered %d datagrams", n))
	}
	if n := w.ctr1["chiron_serve_replans_total"]; n != 0 {
		p = append(p, fmt.Sprintf("adapt re-planned %d times with the controller frozen", n))
	}
	return p
}

// endToEndMetrics are the numbers a user of the serving plane sees. The
// tail percentiles are per-layer metrics (client.p99_us): on the null
// workloads they spread by more than a tenth between runs of one binary,
// and BENCHMARK.json bounds a metric on every workload or on none.
func endToEndMetrics(sr *setupResult, s *summary) map[string]metric {
	return map[string]metric{
		"p50_us":        {us(percentile(s.sorted, 0.50)), "us"},
		"ops_per_s":     {s.opsPerSec, "1/s"},
		"allocs_per_op": {s.allocsPerOp, "count"},
		"bytes_per_op":  {s.bytesPerOp, "B"},
		"setup_s":       {median(sr.totals), "s"},
	}
}
