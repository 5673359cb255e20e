// Command chirond is the Chiron serving daemon: an HTTP gateway over
// internal/serve, plus binary UDP ingress with -udp. It registers
// workflows, plans them with PGP, executes invocations on the live
// executor behind warm-wrap pools and admission control, and adapts
// plans to live latency drift. Adaptation is calibrated and hysteretic
// (-cooldown, -min-improve), a regressing swap rolls back automatically
// (-rollback-guard), and retired plan epochs (-plan-history) can be
// restored manually via POST /workflows/{name}/plan/rollback.
//
//	chirond -addr 127.0.0.1:8080 -preload SocialNetwork -plan -slo 300ms
//
// The daemon prints "chirond listening on http://HOST:PORT" once the
// listener is up (use -addr 127.0.0.1:0 for an ephemeral port and parse
// that line). SIGINT/SIGTERM drain gracefully: the listeners close,
// in-flight requests finish, then the process exits 0.
//
// TestDaemonSmoke boots the daemon in-process and drives both planes,
// hedging, the observability endpoints and the drain:
//
//	go test ./cmd/chirond -run Smoke -v
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chiron/internal/obs"
	"chiron/internal/obs/flight"
	"chiron/internal/serve"
	"chiron/internal/udp"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	d, err := boot(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		err = d.serve(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chirond:", err)
		os.Exit(1)
	}
}

// daemon is a booted chirond: the app is built, preloaded workflows are
// planned and the listeners are bound, but nothing is served until
// serve runs.
type daemon struct {
	app      *serve.App
	httpAddr net.Addr
	udpAddr  net.Addr // nil without -udp

	ln         net.Listener
	srv        *http.Server
	usrv       *udp.Server
	runtimeInt time.Duration
	drainWait  time.Duration
	stdout     io.Writer
}

// boot parses argv, builds the app, preloads (and plans) workflows and
// binds the HTTP and UDP listeners.
func boot(argv []string, stdout, stderr io.Writer) (*daemon, error) {
	fs := flag.NewFlagSet("chirond", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		udpAddr      = fs.String("udp", "", "binary UDP ingress listen address (e.g. 127.0.0.1:9053; empty = disabled)")
		scale        = fs.Float64("scale", 1.0, "time scale for modelled durations (0.05 = 20x faster than nominal)")
		slo          = fs.Duration("slo", 0, "default latency SLO at plan time (0 = workflow SLO or auto)")
		timeout      = fs.Duration("timeout", 30*time.Second, "per-request execution timeout")
		maxConc      = fs.Int("max-concurrency", 0, "max concurrent executions per workflow (0 = 2x GOMAXPROCS)")
		maxQueue     = fs.Int("max-queue", 64, "admission queue depth per workflow")
		keepAlive    = fs.Duration("keepalive", time.Minute, "warm instance keep-alive")
		cooldown     = fs.Int("cooldown", 0, "min full windows between plan adaptations (0 = default 2)")
		minImp       = fs.Float64("min-improve", 0, "min-improvement gate fraction for adopting a fresh plan (0 = default 0.1)")
		rbGuard      = fs.Float64("rollback-guard", 0, "post-swap regression factor that triggers auto-rollback (0 = default 1.1)")
		history      = fs.Int("plan-history", 0, "retired plan epochs kept per workflow for rollback (0 = default 4)")
		preload      = fs.String("preload", "", "comma-separated builtin workloads to register at boot (e.g. SocialNetwork)")
		planBoot     = fs.Bool("plan", false, "plan preloaded workflows at boot")
		drainWait    = fs.Duration("drain", 30*time.Second, "max graceful drain on SIGTERM")
		flightRing   = fs.Int("flight-ring", 0, "retained flight traces kept for /debug/flight (0 = default 256)")
		flightSample = fs.Float64("flight-sample", 0, "flight recorder probabilistic sample rate for healthy traces (0 = default 0.01)")
		sloTarget    = fs.Float64("slo-target", 0, "SLO availability target for the burn-rate monitor, e.g. 0.99 (0 = default 0.99)")
		runtimeInt   = fs.Duration("runtime-interval", 5*time.Second, "runtime/metrics polling interval for chiron_runtime_* gauges (0 disables)")
		hedgeQ       = fs.Float64("hedge-quantile", 0, "arm a hedged second attempt once a request runs past this multiple of the bias-corrected predicted latency (0 = hedging off)")
		hedgeMax     = fs.Int("hedge-max-inflight", 0, "max concurrent hedge attempts across all workflows (0 = default 64)")
	)
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}

	// One registry per daemon: build info, the flight recorder, the
	// serving plane, UDP ingress and the runtime bridge all publish into
	// it, and /metrics serves it. Nothing else in the process does, so two
	// daemons in one process share no series.
	reg := obs.NewRegistry()
	build := obs.RegisterBuildInfo(reg)
	fl := flight.New(flight.Options{
		RingSize:   *flightRing,
		SampleRate: *flightSample,
		SLOTarget:  *sloTarget,
		Reg:        reg,
	})
	app := serve.New(serve.Options{
		Scale:          *scale,
		SLO:            *slo,
		RequestTimeout: *timeout,
		MaxConcurrency: *maxConc,
		MaxQueue:       *maxQueue,
		KeepAlive:      *keepAlive,
		Cooldown:       *cooldown,
		MinImprovement: *minImp,
		RollbackGuard:  *rbGuard,
		PlanHistory:    *history,
		Reg:            reg,
		Flight:         fl,

		HedgeQuantile:    *hedgeQ,
		HedgeMaxInflight: *hedgeMax,
	})
	fmt.Fprintf(stdout, "chirond build: version=%s go=%s\n", build.Version, build.GoVersion)

	for _, name := range strings.Split(*preload, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := app.RegisterBuiltin(name); err != nil {
			return nil, err
		}
		if *planBoot {
			info, err := app.PlanWorkflow(name, *slo)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "chirond: planned %s v%d predicted=%v slo=%v wraps=%d\n",
				name, info.Version, info.Predicted, info.SLO, info.Plan.NumWraps())
		}
	}

	d := &daemon{
		app:        app,
		srv:        &http.Server{Handler: app.Handler()},
		runtimeInt: *runtimeInt,
		drainWait:  *drainWait,
		stdout:     stdout,
	}
	var err error
	if d.ln, err = net.Listen("tcp", *addr); err != nil {
		return nil, err
	}
	d.httpAddr = d.ln.Addr()
	fmt.Fprintf(stdout, "chirond listening on http://%s\n", d.httpAddr)

	// Binary UDP ingress: same app, so UDP invocations share the HTTP
	// plane's admission queues, warm pools and metrics registry.
	if *udpAddr != "" {
		if d.usrv, err = udp.New(app, udp.Options{Addr: *udpAddr, Reg: reg}); err != nil {
			d.ln.Close()
			return nil, err
		}
		d.udpAddr = d.usrv.Addr()
		fmt.Fprintf(stdout, "chirond udp listening on %s\n", d.udpAddr)
	}
	return d, nil
}

// serve serves until ctx is done, then drains once: UDP ingress closes
// (in-flight UDP invokes finish), the HTTP listener closes and in-flight
// requests finish, then the app drains its pools. A listener failure
// returns without draining.
func (d *daemon) serve(ctx context.Context) error {
	if d.runtimeInt > 0 {
		bridge := obs.NewRuntimeBridge(d.app.Registry())
		bridge.Start(d.runtimeInt)
		defer bridge.Stop()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- d.srv.Serve(d.ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(d.stdout, "chirond: draining (max %v)\n", d.drainWait)
	dctx, cancel := context.WithTimeout(context.Background(), d.drainWait)
	defer cancel()
	if d.usrv != nil {
		_ = d.usrv.Close()
	}
	if err := d.srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := d.app.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(d.stdout, "chirond: drained cleanly")
	return nil
}
