package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/obs"
	"chiron/internal/predict"
	"chiron/internal/serve"
	"chiron/internal/udp"
	"chiron/internal/workloads"
)

// numClients is the closed-loop client count of every workload: one per
// vCPU of the box the benchmark was sized on. Callers that wait for a
// reply before sending the next request are a closed loop.
const numClients = 2

// payloadSize is the opaque invocation payload both planes carry; its
// bytes come from -seed.
const payloadSize = 64

// workload is one traffic mix. The four below are chosen so that each of
// ROADMAP items 1-3 and 5 has one workload that shows a change to it and
// one that must not move; README.md has the map.
type workload struct {
	name string
	why  string
	// http selects the HTTP/JSON plane; otherwise the binary UDP plane.
	http   bool
	build  func() *dag.Workflow
	scale  float64
	hedgeQ float64
	// warmup is a request count, not a duration, so set-up time scales
	// with the program's speed and not with a timer.
	warmup int
	// prewarm is how many instances are booted cold before warm-up, so
	// the measured window leases warm ones only.
	prewarm int
}

var allWorkloads = []*workload{
	{
		name:  "null_udp",
		why:   "smallest request the system can serve, binary UDP plane: fixed per-request costs of udp, serve core and live are all there is",
		build: nullWorkflow, scale: 0.001, warmup: 20000, prewarm: numClients,
	},
	{
		name: "null_http", http: true,
		why:   "same null workflow and serve core through the HTTP/JSON handler on a loopback listener: shows ingress cost, must not move on a UDP change",
		build: nullWorkflow, scale: 0.001, warmup: 20000, prewarm: numClients,
	},
	{
		// Scale 1, not less: live sleeps every segment on its own timer,
		// and a timer under a millisecond costs either a full millisecond
		// (the netpoller's granularity) or almost nothing (a spinning
		// thread picks it up). At Scale 0.01 the 14-28 µs segments sit on
		// that edge and one binary's p50 flips between 5 and 9 ms from run
		// to run; at Scale 1 every segment is over a millisecond and the
		// p50 repeats to half a percent.
		name:  "social_udp",
		why:   "SocialNetwork (4 stages, 10 functions) at Scale 1: the live executor replaying millisecond segments is over 99% of the request, ingress under 0.1%, so only executor changes move it",
		build: workloads.SocialNetwork, scale: 1, warmup: 100, prewarm: numClients,
	},
	{
		name:  "tail_hedged",
		why:   "TailHeavy (4% of calls stall +200 ms) at Scale 1 with HedgeQuantile 3: the hedged path of the serve core (second lease, hedge goroutine, CAS); sleep-dominated",
		build: workloads.TailHeavy, scale: 1, hedgeQ: 3, warmup: 100, prewarm: 2 * numClients,
	},
}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// nullWorkflow is one stage of one Python function with a single 1 µs
// CPU segment: at Scale 0.001 the modelled work is a nanosecond, so what
// is measured is the fixed cost of serving a request.
func nullWorkflow() *dag.Workflow {
	w, err := dag.FromStages("null", 0, []*behavior.Spec{{
		Name:     "null",
		Runtime:  behavior.Python,
		Segments: []behavior.Segment{{Kind: behavior.CPU, Dur: time.Microsecond}},
		MemMB:    1,
	}})
	if err != nil {
		panic(err) // the literal above is a valid workflow, as the builtins' are
	}
	return w
}

// setupTimes are the control-plane steps of one set-up, all inside
// setup_s.
type setupTimes struct {
	register    time.Duration
	plan        time.Duration
	firstInvoke time.Duration
	total       time.Duration
}

// env is one served workload: the in-process serving plane on loopback
// and its connected clients, warmed up and ready for a window.
type env struct {
	wl      *workload
	wf      *dag.Workflow
	numFns  int
	reg     *obs.Registry
	app     *serve.App
	plan    *serve.PlanInfo
	hash    uint64
	udpSrv  *udp.Server
	httpSrv *http.Server
	addr    string
	clients []client
	payload []byte
	times   setupTimes
}

// setup builds everything between process start and the measured window:
// serve.New, register, plan, listener, dial, cold boots and a warm-up of
// wl.warmup requests through the same clients the window uses.
func setup(wl *workload, seed int64) (*env, error) {
	t0 := time.Now()
	e := &env{wl: wl, reg: obs.NewRegistry()}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	e.wf = wl.build()
	e.numFns = e.wf.NumFunctions()
	e.hash = serve.HashName(e.wf.Name)
	e.payload = make([]byte, payloadSize)
	rand.New(rand.NewSource(seed)).Read(e.payload)

	// Window 1<<20 freezes the adaptive controller: a plan swap inside
	// the window would cold-storm it and measure adaptation.
	e.app = serve.New(serve.Options{
		Scale:         wl.scale,
		HedgeQuantile: wl.hedgeQ,
		Window:        1 << 20,
		Reg:           e.reg,
	})
	t := time.Now()
	if _, err := e.app.Register(e.wf); err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	e.times.register = time.Since(t)
	t = time.Now()
	var err error
	if e.plan, err = e.app.PlanWorkflow(e.wf.Name, 0); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	e.times.plan = time.Since(t)

	if wl.http {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		e.addr = ln.Addr().String()
		e.httpSrv = &http.Server{Handler: e.app.Handler()}
		go func() { _ = e.httpSrv.Serve(ln) }() // returns when close() shuts the server down
	} else {
		if e.udpSrv, err = udp.New(e.app, udp.Options{Reg: e.reg}); err != nil {
			return nil, err
		}
		e.addr = e.udpSrv.Addr().String()
	}
	for i := 0; i < numClients; i++ {
		c, err := dial(e)
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, c)
	}

	// Cold boots: prewarm concurrent invocations each find no idle
	// instance and boot one.
	t = time.Now()
	if _, err := e.app.Invoke(context.Background(), e.wf.Name, nil); err != nil {
		return nil, fmt.Errorf("first invoke: %w", err)
	}
	e.times.firstInvoke = time.Since(t)
	var wg sync.WaitGroup
	errs := make(chan error, wl.prewarm+numClients) // one slot per goroutine below
	for i := 0; i < wl.prewarm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.app.Invoke(context.Background(), e.wf.Name, nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, fmt.Errorf("prewarm: %w", err)
	default:
	}

	// Warm-up through the real clients; every reply must already be OK
	// on the plan version the window will check against.
	for i, c := range e.clients {
		n := wl.warmup / numClients
		if i == 0 {
			n += wl.warmup % numClients
		}
		wg.Add(1)
		go func(c client, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if out, ver := c.invoke(); out != outOK || ver != e.plan.Version {
					errs <- fmt.Errorf("warm-up request %d: outcome %v, plan version %d (want %d)", j, out, ver, e.plan.Version)
					return
				}
			}
		}(c, n)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	e.times.total = time.Since(t0)
	ok = true
	return e, nil
}

// close stops the listeners, drains the app and waits for both.
func (e *env) close() {
	for _, c := range e.clients {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.httpSrv != nil {
		_ = e.httpSrv.Shutdown(ctx)
	}
	if e.udpSrv != nil {
		_ = e.udpSrv.Close()
	}
	if e.app != nil {
		_ = e.app.Shutdown(ctx)
	}
}

// counter reads one registry counter by its exposition name.
func (e *env) counter(name string) uint64 { return e.reg.Counter(name, "").Value() }

// setupRuns is how many times one run sets the workload up: setup_s is
// the median, and the window runs on the last. The first plans against
// cold process-wide caches (serve.plan_cold_ms), the rest against warm
// ones (serve.plan_warm_ms).
const setupRuns = 3

// setupResult is what the repeated set-ups of one run yield.
type setupResult struct {
	env      *env
	totals   []float64 // seconds, one per set-up
	cold     setupTimes
	warm     setupTimes
	hitRatio float64 // prediction-cache hits / lookups over all set-ups
}

func setupRepeated(wl *workload, seed int64, runs int) (*setupResult, error) {
	r := &setupResult{}
	before := predict.ExecCacheStats()
	for i := 0; i < runs; i++ {
		e, err := setup(wl, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		r.totals = append(r.totals, e.times.total.Seconds())
		if i == 0 {
			r.cold = e.times
		}
		r.warm = e.times
		if i < runs-1 {
			e.close()
		} else {
			r.env = e
		}
	}
	after := predict.ExecCacheStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		r.hitRatio = float64(hits) / float64(hits+misses)
	}
	return r, nil
}
