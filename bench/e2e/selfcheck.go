package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a fresh process of this binary, passing
// its output through, and returns the result line.
func runChild(wl *workload, seed int64, seconds, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Println()
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, runErr)
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", wl.name, err)
	}
	return &r, nil
}

// runAll is the one command: every workload, each in a fresh process
// with the default Go runtime, untraced and then, if asked, traced.
func runAll(seed int64, seconds, trace int) error {
	for _, wl := range allWorkloads {
		for tr := 0; tr <= trace; tr++ {
			if _, err := runChild(wl, seed, seconds, tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// benchmarkSpec is the part of BENCHMARK.json selfcheck reads: the
// end-to-end metrics with their direction and bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck runs 2n untraced sets of every workload from this one
// binary, labels them A and B alternately, and compares the two labels
// the way a parent commit and a change are compared: per workload and
// metric, B's median may be worse than A's by at most the metric's
// bound. Each set has its own seed, so the 2n runs of a workload also
// give the run-to-run spread (quartile distance over median).
func runSelfcheck(n int, seed int64, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	// values[workload][metric][label] are the per-set values.
	values := map[string]map[string]*[2][]float64{}
	for set := 0; set < 2*n; set++ {
		for _, wl := range allWorkloads {
			r, err := runChild(wl, seed+int64(set), seconds, 0)
			if err != nil {
				return err
			}
			if values[wl.name] == nil {
				values[wl.name] = map[string]*[2][]float64{}
			}
			for name, m := range r.Metrics {
				if values[wl.name][name] == nil {
					values[wl.name][name] = &[2][]float64{}
				}
				ab := values[wl.name][name]
				ab[set%2] = append(ab[set%2], m.Value)
			}
		}
	}

	fmt.Printf("\nselfcheck: %d sets A, %d sets B, %d s windows, one binary\n", n, n, seconds)
	fmt.Println("| workload | metric | A median [q1, q3] | B median [q1, q3] | B worse by | spread | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, wl := range allWorkloads {
		for _, em := range spec.EndToEnd {
			ab := values[wl.name][em.Name]
			if ab == nil {
				return fmt.Errorf("%s reported no %s", wl.name, em.Name)
			}
			a, b := ab[0], ab[1]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if em.Better == "higher" {
				worse = -worse
			}
			all := append(append([]float64(nil), a...), b...)
			q1, q3 := quartiles(all)
			spread := (q3 - q1) / median(all)
			verdict := "ok"
			if worse > em.Bound {
				verdict = "EXCEEDS"
				bad++
			}
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			fmt.Printf("| %s | %s (%s) | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %+.2f%% | %.2f%% | %.0f%% | %s |\n",
				wl.name, em.Name, em.Unit, ma, aq1, aq3, mb, bq1, bq3, 100*worse, 100*spread, 100*em.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d workload/metric pairs differ by more than their bound", bad)
	}
	return nil
}
