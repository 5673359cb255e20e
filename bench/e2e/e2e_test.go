package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"chiron/internal/metrics"
)

func TestPercentileIsCeilNearestRank(t *testing.T) {
	five := []time.Duration{10, 20, 30, 40, 50}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {0.81, 50}, {0.99, 50}, {1, 50},
	} {
		if got := percentile(five, tc.p); got != tc.want {
			t.Errorf("percentile(1..5, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}

	// One rule in the repository: internal/metrics.Percentile.
	rng := rand.New(rand.NewSource(7))
	for n := 1; n < 200; n += 13 {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(rng.Intn(1000))
		}
		sorted := slices.Clone(s)
		slices.Sort(sorted)
		for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
			if got, want := percentile(sorted, p), metrics.Percentile(s, p); got != want {
				t.Errorf("n=%d p=%v: percentile %v, metrics.Percentile %v", n, p, got, want)
			}
		}
	}
}

func TestHighestSupportedPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {99, 0.5}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 3, 9, 2, 8, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

func TestSelfTimeIsDepthMinusDepthBelow(t *testing.T) {
	// live 9 µs, + core 11 µs, + wire 25 µs.
	got := selfTimes([]time.Duration{9000, 11000, 25000})
	if want := []time.Duration{9000, 2000, 14000}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var sum time.Duration
	for _, s := range got {
		sum += s
	}
	if sum != 25000 {
		t.Errorf("self times sum to %v, want the outermost median 25µs", sum)
	}
	// A noisy outer depth may read below the inner one; the self time
	// is then negative, not clamped, so the sum still telescopes.
	if got := selfTimes([]time.Duration{100, 90}); got[1] != -10 {
		t.Errorf("selfTimes(100, 90)[1] = %v, want -10", got[1])
	}
}

func TestCheckInvokeBody(t *testing.T) {
	body := []byte(`{"workflow":"null","plan_version":3,"cold":false,"queue_wait_ms":0,"e2e_ms":12.5,"total_ms":12.5,"invocation_id":9,"functions":[{"name":"null","stage":0,"sandbox":0,"start_ms":0,"finish_ms":12.5}]}`)
	if out, ver := checkInvokeBody(body, 1); out != outOK || ver != 3 {
		t.Errorf("good body: %v, version %d", out, ver)
	}
	if out, _ := checkInvokeBody(body, 2); out != outFailed {
		t.Errorf("one timing where two functions are wanted: %v", out)
	}
	zero := []byte(`{"plan_version":3,"total_ms":0,"functions":[{"name":"null"}]}`)
	if out, _ := checkInvokeBody(zero, 1); out != outFailed {
		t.Errorf("total_ms 0: %v", out)
	}
	if out, _ := checkInvokeBody([]byte(`{"error":"x"}`), 1); out != outFailed {
		t.Errorf("error body: %v", out)
	}
}

// smoke is wl with a warm-up short enough for a test.
func smoke(wl *workload) *workload {
	c := *wl
	c.warmup = max(wl.warmup/100, 4)
	return &c
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range allWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			sr, err := setupRepeated(smoke(wl), 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer sr.env.close()
			w, err := runWindow(sr.env, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer w.free()
			s := w.summarize()
			for _, p := range checkWindow(sr.env, w, &s) {
				t.Error("check failed:", p)
			}
			for name, m := range endToEndMetrics(sr, &s) {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive number", name, m.Value)
				}
			}
		})
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func sortedKeys(m map[string]metric) []string {
	k := make([]string, 0, len(m))
	for n := range m {
		k = append(k, n)
	}
	sort.Strings(k)
	return k
}

// TestBenchmarkJSONNamesWhatTheProgramReports runs a short traced run and
// holds BENCHMARK.json against the program: same workloads with the same
// reasons, and exactly the metrics, with their units, that a run prints.
func TestBenchmarkJSONNamesWhatTheProgramReports(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(allWorkloads))
	}
	for i, wl := range allWorkloads {
		if bf.Workloads[i].Name != wl.name || bf.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, wl.name, wl.why)
		}
	}

	out := t.TempDir()
	sr, err := setupRepeated(smoke(findWorkload("null_udp")), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.env.close()
	w, err := runWindow(sr.env, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer w.free()
	s := w.summarize()
	layers, problems, err := layerMetrics(sr.env, sr, 1, w, &s, 6*traceBlock, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error("check failed:", p)
	}
	if _, err := os.Stat(filepath.Join(out, "trace-null_udp.json")); err != nil {
		t.Error(err)
	}

	compare := func(kind string, listed []struct{ Name, Unit string }, got map[string]metric) {
		var names []string
		for _, l := range listed {
			names = append(names, l.Name)
			if m, ok := got[l.Name]; ok && m.Unit != l.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, program %q", kind, l.Name, l.Unit, m.Unit)
			}
		}
		sort.Strings(names)
		if keys := sortedKeys(got); !reflect.DeepEqual(names, keys) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nprogram        %v", kind, names, keys)
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEndMetrics(sr, &s))
	compare("per_layer", bf.PerLayer, layers)
}
