package serve

import (
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
	"chiron/internal/obs/flight"
)

// flightApp boots a gateway with a deterministic flight recorder:
// probabilistic sampling off, so every retention is explainable.
func flightApp(t *testing.T, ring int, opt Options) (*App, *flight.Flight, string) {
	t.Helper()
	if opt.Reg == nil {
		opt.Reg = obs.NewRegistry()
	}
	fl := flight.New(flight.Options{RingSize: ring, SampleRate: -1, Reg: opt.Reg})
	opt.Flight = fl
	a, srv := httpApp(t, opt)
	return a, fl, srv.URL
}

// TestFlightRetainsSLOViolationEndToEnd: a workflow planned with an
// unreachable SLO violates on every request; the flight recorder must
// retain the trace, tag it, and serve it back as a Chrome trace.
func TestFlightRetainsSLOViolationEndToEnd(t *testing.T) {
	a, fl, url := flightApp(t, 16, Options{Scale: 0.05})
	if _, err := a.Register(testWorkflow(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", time.Microsecond) // impossible SLO: every request violates

	code, body := doJSON(t, "POST", url+"/workflows/wf-test/invoke", nil)
	if code != http.StatusOK {
		t.Fatalf("invoke: %d %v", code, body)
	}
	idf, ok := body["flight_trace_id"].(float64)
	if !ok || idf <= 0 {
		t.Fatalf("invoke result carries no flight_trace_id: %v", body)
	}

	// The listing shows the retained trace with its reason tags.
	code, list := doJSON(t, "GET", url+"/debug/flight", nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/flight: %d", code)
	}
	retained := list["retained"].([]interface{})
	if len(retained) == 0 {
		t.Fatal("no retained traces after an SLO violation")
	}
	top := retained[0].(map[string]interface{})
	if top["id"].(float64) != idf || top["workflow"] != "wf-test" {
		t.Fatalf("retained[0] = %v", top)
	}
	reasons := fmt.Sprint(top["reasons"])
	if !strings.Contains(reasons, "slo") {
		t.Fatalf("reasons = %s, want slo", reasons)
	}

	// The trace itself comes back as Chrome trace_event JSON with the
	// request's span tree.
	resp, err := http.Get(fmt.Sprintf("%s/debug/flight/trace?id=%d", url, uint64(idf)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", resp.StatusCode, raw)
	}
	var chrome struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, raw)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	if !strings.Contains(string(raw), "request wf-test") {
		t.Errorf("trace missing request span:\n%s", raw)
	}

	// Unknown and malformed ids fail loudly.
	for _, q := range []string{"?id=999999", "?id=abc", ""} {
		resp, err := http.Get(url + "/debug/flight/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("trace%s: got 200", q)
		}
	}
	_ = fl
}

// TestHedgesKeepAdaptAnnotations: a hedge is a per-request event, not an
// adapt-plane one. A burst of hedged requests must leave an earlier
// replan visible on the /debug/flight timeline (64 entries) and tag
// the hedged requests' own traces instead.
func TestHedgesKeepAdaptAnnotations(t *testing.T) {
	a, fl, url := flightApp(t, 16, Options{Scale: 0.05, HedgeQuantile: 0.05, Window: 1 << 20})
	if _, err := a.Register(testWorkflow(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", time.Minute)
	fl.NoteEvent("wf-test", "replanned", "drift=2.00", true)

	// Quantile 0.05 arms a hedge on nearly every request; one whose
	// primary the scheduler finishes before the hedge timer runs does
	// not count toward the 100.
	for hedged, i := 0, 0; hedged < 100; i++ {
		if i == 400 {
			t.Fatalf("only %d of %d requests hedged (quantile 0.05)", hedged, i)
		}
		res, err := a.Invoke(context.Background(), "wf-test", nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hedged {
			hedged++
		}
	}

	code, list := doJSON(t, "GET", url+"/debug/flight", nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/flight: %d", code)
	}
	var kinds []string
	for _, x := range list["annotations"].([]interface{}) {
		kinds = append(kinds, fmt.Sprint(x.(map[string]interface{})["kind"]))
	}
	if !strings.Contains(strings.Join(kinds, ","), "replanned") {
		t.Fatalf("replanned annotation lost after 100 hedges; timeline kinds = %v", kinds)
	}
	hedgedTraces := 0
	for _, x := range list["retained"].([]interface{}) {
		if strings.Contains(fmt.Sprint(x.(map[string]interface{})["reasons"]), "hedged") {
			hedgedTraces++
		}
	}
	if hedgedTraces == 0 {
		t.Fatal("no retained trace carries the hedged reason")
	}
}

// TestFlightForceEndpoint arms dump-on-demand over HTTP and expects the
// next request retained even when healthy.
func TestFlightForceEndpoint(t *testing.T) {
	a, fl, url := flightApp(t, 16, Options{Scale: 0.05})
	if _, err := a.Register(testWorkflow(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", time.Minute) // generous SLO: requests are healthy

	code, body := doJSON(t, "POST", url+"/debug/flight/force?n=1", nil)
	if code != http.StatusOK || body["forced"].(float64) != 1 {
		t.Fatalf("force: %d %v", code, body)
	}
	code, body = doJSON(t, "POST", url+"/workflows/wf-test/invoke", nil)
	if code != http.StatusOK {
		t.Fatalf("invoke: %d %v", code, body)
	}
	if body["flight_trace_id"] == nil {
		t.Fatalf("forced invoke not retained: %v", body)
	}
	if fl.Len() != 1 {
		t.Fatalf("ring = %d, want 1", fl.Len())
	}
	// Second healthy request: force budget spent, not retained.
	code, body = doJSON(t, "POST", url+"/workflows/wf-test/invoke", nil)
	if code != http.StatusOK {
		t.Fatal("invoke")
	}
	if body["flight_trace_id"] != nil {
		t.Fatalf("healthy request retained after budget spent: %v", body)
	}
}

// TestFlightExemplarOnGatewayHistogram: a retained request's trace id
// must surface as an OpenMetrics exemplar on chiron_serve_latency.
func TestFlightExemplarOnGatewayHistogram(t *testing.T) {
	a, _, url := flightApp(t, 16, Options{Scale: 0.05})
	if _, err := a.Register(testWorkflow(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", time.Microsecond)
	if code, _ := doJSON(t, "POST", url+"/workflows/wf-test/invoke", nil); code != http.StatusOK {
		t.Fatal("invoke")
	}

	// Classic scrape: strict-parseable, no exemplars.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	classic, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(classic), "trace_id") {
		t.Error("classic /metrics carries exemplars")
	}
	if _, err := obs.CheckProm(strings.NewReader(string(classic))); err != nil {
		t.Fatalf("classic /metrics fails strict parse: %v", err)
	}

	// OpenMetrics negotiation via Accept header.
	req, _ := http.NewRequest("GET", url+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("Content-Type = %s", ct)
	}
	if !strings.Contains(string(om), "chiron_serve_latency_bucket") ||
		!strings.Contains(string(om), "trace_id") {
		t.Errorf("OpenMetrics output missing latency exemplar:\n%s", om)
	}
	if !strings.HasSuffix(string(om), "# EOF\n") {
		t.Error("OpenMetrics output missing # EOF")
	}
}

// TestReadyzFlipsOnDrain: /readyz mirrors the drain barrier so a
// rolling restart can pull the instance from rotation before SIGTERM
// kills it; /healthz stays 200 (the process is alive, just draining).
func TestReadyzFlipsOnDrain(t *testing.T) {
	a, _, url := flightApp(t, 16, Options{Scale: 0.05})

	get := func(path string) int {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := get("/readyz"); c != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain: %d, want 503", c)
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Fatalf("/healthz after drain: %d, want 200", c)
	}
}

// TestTraceMemoryBounded drives sustained load with both trace sinks
// active (?trace=1 and the flight ring) and asserts neither grows
// beyond its cap: the ring stays at RingSize and every ?trace=1
// response is a fresh bounded trace, across 10k invokes.
func TestTraceMemoryBounded(t *testing.T) {
	const (
		ring    = 8
		total   = 10_000
		workers = 8
	)
	// SampleRate 1: every request is retained — worst-case ring churn —
	// without the impossible-SLO trick (which would trip admission
	// control into 429s once a queue forms).
	reg := obs.NewRegistry()
	fl := flight.New(flight.Options{RingSize: ring, SampleRate: 1, Reg: reg})
	a, srv := httpApp(t, Options{Scale: 0.0005, Reg: reg, Flight: fl})
	url := srv.URL
	if _, err := a.Register(testWorkflow(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", time.Minute)

	client := &http.Client{}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < total/workers; i++ {
				path := "/workflows/wf-test/invoke"
				if i%100 == 0 {
					path += "?trace=1" // exercise the Tee path too
				}
				resp, err := client.Post(url+path, "application/json", nil)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("invoke %d: %d", i, resp.StatusCode)
					return
				}
				if n := fl.Len(); n > ring {
					errs <- fmt.Errorf("flight ring grew to %d (cap %d)", n, ring)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n := fl.Len(); n != ring {
		t.Fatalf("ring = %d, want full %d", n, ring)
	}
}
