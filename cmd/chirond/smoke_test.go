package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"chiron/internal/obs"
	"chiron/internal/udp"
	"chiron/internal/workloads"
)

// TestDaemonSmoke drives a booted chirond the way an operator would,
// over its real HTTP and UDP listeners: serve a workflow from the warm
// pool, win hedges on a straggler workload, trip a burn alert and fetch
// its trace, run closed-loop UDP clients, then drain. Counters are read
// as deltas between two /metrics scrapes, so the legs do not depend on
// one another's traffic.
//
// Every pool starts empty and the adaptive controller is live, as in a
// freshly started daemon.
func TestDaemonSmoke(t *testing.T) {
	var stdout bytes.Buffer
	d, drain := start(t, &stdout, "-udp", "127.0.0.1:0", "-scale", "0.01", "-hedge-quantile", "1.5")
	base := "http://" + d.httpAddr.String()

	if !t.Run("boot", func(t *testing.T) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz: HTTP %d", resp.StatusCode)
		}
		if !strings.Contains(stdout.String(), "chirond build: version=") {
			t.Fatalf("no build line on stdout:\n%s", stdout.String())
		}
	}) {
		return
	}

	t.Run("serve", func(t *testing.T) {
		const n = 50
		deploy(t, base, "SocialNetwork", `{"builtin":"SocialNetwork"}`, "500ms")
		before := scrape(t, base)
		invokeN(t, base, "SocialNetwork", n)
		after := scrape(t, base)
		if got := delta(t, before, after, "chiron_serve_requests_total"); got != n {
			t.Errorf("requests_total grew by %v, want %d", got, n)
		}
		// The first invoke boots an instance cold. Until the first window
		// calibrates the prediction, the executor's overhead carries early
		// requests past their hedge delay, and the first hedge boots a
		// second instance that the pool keeps. Serial load then runs warm.
		// A re-plan retires the pool and boots again, so a handful of cold
		// boots is allowed, not one per hedge.
		cold := delta(t, before, after, "chiron_serve_coldstarts_total")
		warm := delta(t, before, after, "chiron_serve_warmhits_total")
		if cold > 5 || warm < n-5 {
			t.Errorf("cold=%v warm=%v over %d serial invokes, want cold <= 5, warm >= %d", cold, warm, n, n-5)
		}
	})

	t.Run("hedge", func(t *testing.T) {
		// TailHeavy with its 200 ms stall stretched to 1 s. At Scale 0.01
		// a wrap shorter than a timer tick (1.1 ms on a 2-vCPU VM) still
		// takes a tick, so a hedge armed at 1.5x TailHeavy's ~1.1 ms run
		// cannot finish inside its 2 ms stall: it won 0 of ~35 hedges a
		// run. The 10 ms stall leaves room for a cold boot too.
		//
		// The stall hits 4% of requests, and a hedge on a stalled primary
		// wins unless it stalls as well. With n serial requests:
		//   - no straggler at all: 0.96^400 = 8.1e-8;
		//   - no stalled primary with an unstalled hedge:
		//     (1 - 0.04*0.96)^400 = 1.6e-7;
		//   - hedges == wins + wasted is exact, not probabilistic, and a
		//     duplicate completion from a lost hedge race would push
		//     requests_total past n.
		const n, wf = 400, "TailHeavy1s"
		w := workloads.TailHeavy()
		w.Name = wf
		w.Stages[1].Functions[0].Segments[1].TailDur = time.Second
		body, err := json.Marshal(map[string]any{"workflow": w})
		if err != nil {
			t.Fatal(err)
		}
		deploy(t, base, wf, string(body), "500ms")
		before := scrape(t, base)
		invokeN(t, base, wf, n)
		after := scrape(t, base)
		if got := delta(t, before, after, "chiron_serve_requests_total"); got != n {
			t.Errorf("requests_total grew by %v, want %d", got, n)
		}
		hedges := delta(t, before, after, "chiron_serve_hedges_total")
		wins := delta(t, before, after, "chiron_serve_hedge_wins_total")
		wasted := delta(t, before, after, "chiron_serve_hedge_wasted_total")
		if wins < 1 || hedges != wins+wasted {
			t.Errorf("hedges=%v wins=%v wasted=%v, want wins >= 1 and hedges == wins + wasted", hedges, wins, wasted)
		}
	})

	t.Run("obs", func(t *testing.T) {
		// A 1 ms SLO is impossible, so every request is bad: the burn
		// monitor trips and the flight recorder keeps slo-tagged traces.
		const n, wf = 200, "MovieReviewing"
		deploy(t, base, wf, `{"builtin":"`+wf+`"}`, "1ms")
		before := scrape(t, base)
		invokeN(t, base, wf, n)
		after := scrape(t, base)
		if got := delta(t, before, after, "chiron_slo_bad_total", "workflow", wf); got != n {
			t.Errorf("slo_bad_total{workflow=%q} grew by %v, want %d", wf, got, n)
		}
		for _, name := range []string{
			"chiron_slo_burn_alerts_total", "chiron_slo_bad_total", "chiron_flight_retained_total",
			"chiron_build_info", "chiron_runtime_goroutines",
		} {
			if got := after.sum(name); got < 1 {
				t.Errorf("%s = %v, want >= 1", name, got)
			}
		}

		var list struct {
			Retained []struct {
				ID       uint64   `json:"id"`
				Workflow string   `json:"workflow"`
				Reasons  []string `json:"reasons"`
			} `json:"retained"`
		}
		getJSON(t, base+"/debug/flight", &list)
		var id uint64
		for _, tr := range list.Retained {
			for _, r := range tr.Reasons {
				if r == "slo" && tr.Workflow == wf {
					id = tr.ID
				}
			}
		}
		if id == 0 {
			t.Fatalf("no slo-tagged %s trace among %d retained", wf, len(list.Retained))
		}
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		getJSON(t, fmt.Sprintf("%s/debug/flight/trace?id=%d", base, id), &trace)
		if len(trace.TraceEvents) == 0 {
			t.Fatalf("trace %d has no traceEvents", id)
		}
	})

	t.Run("udp", func(t *testing.T) {
		// Closed loop: each client keeps one invocation outstanding. An
		// overload reply is backpressure, not loss; a timeout or any
		// other status is a dropped or failed completion.
		const clients, perClient = 8, 25
		before := scrape(t, base)
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			ok   int
			errs []error
		)
		hash := udp.HashWorkflow("SocialNetwork")
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fail := func(err error) {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
				c, err := udp.Dial(d.udpAddr.String(), 5*time.Second)
				if err != nil {
					fail(err)
					return
				}
				defer c.Close()
				for j := 0; j < perClient; j++ {
					r, err := c.Invoke(hash, nil, 5*time.Second, 0)
					if err == nil && r.Status != udp.StatusOK && r.Status != udp.StatusOverloaded {
						err = fmt.Errorf("invoke: status %d", r.Status)
					}
					if err != nil {
						fail(err)
						return
					}
					if r.Status == udp.StatusOK {
						mu.Lock()
						ok++
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		if len(errs) > 0 {
			t.Fatalf("%d of %d UDP clients failed, first: %v", len(errs), clients, errs[0])
		}
		if ok == 0 {
			t.Fatal("no UDP invoke completed")
		}
		after := scrape(t, base)
		if got := delta(t, before, after, "chiron_udp_filtered_total"); got != 0 {
			t.Errorf("udp_filtered_total grew by %v; a correct client never sends a malformed datagram", got)
		}
		if got := delta(t, before, after, "chiron_udp_completed_total"); got != float64(ok) {
			t.Errorf("udp_completed_total grew by %v, clients saw %d OK replies", got, ok)
		}
	})

	t.Run("drain", func(t *testing.T) {
		if err := drain(); err != nil {
			t.Fatalf("serve: %v", err)
		}
		if !strings.Contains(stdout.String(), "chirond: drained cleanly") {
			t.Fatalf("no drain line on stdout:\n%s", stdout.String())
		}
		if err := d.app.CheckInvariants(); err != nil {
			t.Fatalf("serving-plane invariants after drain: %v", err)
		}
	})
}

// TestTwoDaemonsOwnTheirMetrics boots two daemons in one process. Each
// /metrics must count only its own daemon's requests, as absolute
// values, and each app must be at rest after its drain.
func TestTwoDaemonsOwnTheirMetrics(t *testing.T) {
	type booted struct {
		d     *daemon
		drain func() error
		n     int
	}
	var ds []booted
	for _, n := range []int{3, 5} {
		d, drain := start(t, io.Discard, "-scale", "0.01", "-preload", "SocialNetwork", "-plan")
		ds = append(ds, booted{d, drain, n})
	}
	// Both daemons serve before either is scraped, so a series they
	// shared would count the other daemon's requests too.
	for _, b := range ds {
		invokeN(t, "http://"+b.d.httpAddr.String(), "SocialNetwork", b.n)
	}
	for i, b := range ds {
		s := scrape(t, "http://"+b.d.httpAddr.String())
		if _, ok := s["chiron_serve_requests_total"]; !ok {
			t.Fatalf("daemon %d: /metrics has no chiron_serve_requests_total", i)
		}
		if got := s.sum("chiron_serve_requests_total"); got != float64(b.n) {
			t.Errorf("daemon %d: chiron_serve_requests_total = %v, want %d", i, got, b.n)
		}
	}
	for _, b := range ds {
		if err := b.drain(); err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	for i, b := range ds {
		if err := b.d.app.CheckInvariants(); err != nil {
			t.Errorf("daemon %d: serving-plane invariants after drain: %v", i, err)
		}
	}
}

// start boots chirond on an ephemeral HTTP port with args and serves it
// until drain is called or the test ends. drain stops serving, waits
// for the drain and returns serve's error, on every call.
func start(t *testing.T, stdout io.Writer, args ...string) (d *daemon, drain func() error) {
	t.Helper()
	d, err := boot(append([]string{"-addr", "127.0.0.1:0"}, args...), stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- d.serve(ctx) }()
	var (
		once     sync.Once
		serveErr error
	)
	drain = func() error {
		once.Do(func() {
			cancel()
			serveErr = <-served
		})
		return serveErr
	}
	t.Cleanup(func() { _ = drain() })
	return d, drain
}

// mustPost fails the test unless the POST answers 2xx. It drains the
// body so the connection is reused.
func mustPost(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: HTTP %d", url, resp.StatusCode)
	}
}

// deploy registers a workflow from body and plans it at slo.
func deploy(t *testing.T, base, name, body, slo string) {
	t.Helper()
	mustPost(t, base+"/workflows", body)
	mustPost(t, base+"/workflows/"+name+"/plan", `{"slo":"`+slo+`"}`)
}

// invokeN makes n serial invokes of name, each of which must be 2xx.
func invokeN(t *testing.T, base, name string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustPost(t, base+"/workflows/"+name+"/invoke", "")
	}
}

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// promScrape is one /metrics exposition that passed obs.CheckProm.
type promScrape map[string]*obs.PromFamily

func scrape(t *testing.T, base string) promScrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.CheckProm(resp.Body)
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	return fams
}

// sum adds the samples of family name that carry every given
// label=value pair (0 when the family is absent).
func (s promScrape) sum(name string, labelPairs ...string) float64 {
	total := 0.0
	f, ok := s[name]
	if !ok {
		return 0
	}
samples:
	for _, smp := range f.Samples {
		for i := 0; i+1 < len(labelPairs); i += 2 {
			if smp.Labels[labelPairs[i]] != labelPairs[i+1] {
				continue samples
			}
		}
		total += smp.Value
	}
	return total
}

// delta is how much family name (filtered as in sum) grew between two
// scrapes. The family must be in the second one.
func delta(t *testing.T, before, after promScrape, name string, labelPairs ...string) float64 {
	t.Helper()
	if _, ok := after[name]; !ok {
		t.Fatalf("/metrics has no %s", name)
	}
	return after.sum(name, labelPairs...) - before.sum(name, labelPairs...)
}
