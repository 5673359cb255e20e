package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"time"

	"chiron/internal/live"
	"chiron/internal/model"
	"chiron/internal/obs"
	"chiron/internal/obs/flight"
	"chiron/internal/serve"
	"chiron/internal/udp"
	"chiron/internal/workloads"
)

// stallOver is how far above the median a reply must be to count as a
// stall: on the null workloads about half a percent of replies take a
// flat four milliseconds, which costs throughput but not the median.
const stallOver = time.Millisecond

// traceDir is where a traced run writes trace-<workload>.json, relative
// to the directory the benchmark is run from (the repository root).
const traceDir = "bench/out"

// layerMetrics runs the traced phase and the serial probes that follow
// it and returns every per-layer metric and any failed check. w and s are
// the untraced half of the run; the trace file goes into outDir.
func layerMetrics(e *env, sr *setupResult, seed int64, w *windowResult, s *summary, dur time.Duration, outDir string) (map[string]metric, []string, error) {
	tracers, err := runTraced(e, dur)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		for _, t := range tracers {
			freeOffHeap(t.spans)
		}
	}()
	var problems []string
	d := layerDurations(tracers)
	var p50 [numLayers]time.Duration
	for ly := range d {
		if len(d[ly]) == 0 {
			problems = append(problems, fmt.Sprintf("traced phase recorded no %s span", layerNames[ly]))
		}
		p50[ly] = percentile(d[ly], 0.5)
	}
	var (
		traceErrs, coreCalls, respBytes int
		queueWait                       time.Duration
		nominal                         []time.Duration
	)
	for _, t := range tracers {
		traceErrs += t.errs
		coreCalls += t.coreCalls
		queueWait += t.queueWait
		nominal = append(nominal, t.nominal...)
		respBytes = max(respBytes, t.respBytes)
	}
	if traceErrs > 0 {
		problems = append(problems, fmt.Sprintf("%d traced calls failed", traceErrs))
	}
	slices.Sort(nominal)
	file, err := writeTrace(outDir, e, seed, tracers)
	if err != nil {
		return nil, nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace: %d spans in %s\n", len(d[lyLive])+len(d[lyCore])*3+len(d[lyInvoke])+len(d[lyHandler])+len(d[lyWire]), file)

	// Self time by depth. The HTTP chain runs through Invoke and the
	// handler; the UDP plane calls the core directly.
	httpChain := selfTimes([]time.Duration{p50[lyLive], p50[lyCore], p50[lyInvoke], p50[lyHandler], p50[lyWire]})
	udpChain := selfTimes([]time.Duration{p50[lyLive], p50[lyCore], p50[lyWire]})
	var udpWire, httpWire time.Duration
	if e.wl.http {
		httpWire = httpChain[4]
	} else {
		udpWire = udpChain[2]
	}

	ctx := context.Background()
	liveAllocs := allocsPerRun(func() { _, _, _, _ = e.runLive(ctx) })
	coreAllocs := allocsPerRun(func() {
		if ad, err := e.app.AdmitHashID(ctx, e.hash, 1); err == nil {
			_, _ = ad.Execute(ctx)
		}
	})
	finra, err := finra50RunTime()
	if err != nil {
		return nil, nil, err
	}
	echo, err := echoRTT()
	if err != nil {
		return nil, nil, err
	}
	status, err := e.app.WorkflowStatus(e.wf.Name)
	if err != nil {
		return nil, nil, err
	}

	predictedWall := float64(e.plan.Predicted) * e.wl.scale
	hedges := float64(w.delta("chiron_serve_hedges_total"))
	ok := float64(max(s.ok, 1))
	stall := percentile(s.sorted, 0.5) + stallOver
	firstStall, _ := slices.BinarySearch(s.sorted, stall+1)
	var stallTime, allTime time.Duration
	for i, v := range s.sorted {
		allTime += v
		if i >= firstStall {
			stallTime += v
		}
	}
	gcCycles := w.mem1.NumGC - w.mem0.NumGC
	m := map[string]metric{
		"udp.decode_ns":    {timePerCall(udpDecodeProbe(e)), "ns"},
		"udp.encode_ns":    {timePerCall(udpEncodeProbe(e)), "ns"},
		"udp.wire_self_us": {us(udpWire), "us"},
		"udp.shed":         {float64(w.delta("chiron_udp_shed_total")), "count"},
		"udp.filtered":     {float64(w.delta("chiron_udp_filtered_total")), "count"},
		"udp.errors":       {float64(w.delta("chiron_udp_errors_total")), "count"},

		"serve.invoke_self_us":       {us(httpChain[2]), "us"},
		"serve.http_handler_self_us": {us(httpChain[3]), "us"},
		"serve.http_wire_self_us":    {us(httpWire), "us"},
		"serve.http_resp_bytes":      {float64(respBytes), "B"},

		"serve.admit_ns": {timePerCall(func() {
			if ad, err := e.app.AdmitHash(ctx, e.hash); err == nil {
				ad.Release()
			}
		}), "ns"},
		"serve.core_self_us":  {us(udpChain[1]), "us"},
		"serve.core_allocs":   {coreAllocs - liveAllocs, "count"},
		"serve.queue_wait_us": {us(queueWait) / float64(max(coreCalls, 1)), "us"},
		"serve.cold_starts":   {float64(w.delta("chiron_serve_coldstarts_total")), "count"},
		"serve.errors":        {float64(w.delta("chiron_serve_errors_total")), "count"},
		"serve.rejected":      {float64(w.delta("chiron_serve_rejected_total")), "count"},

		"serve.hedge_rate":      {hedges / ok, "ratio"},
		"serve.hedge_win_ratio": {float64(w.delta("chiron_serve_hedge_wins_total")) / max(hedges, 1), "ratio"},
		"serve.hedge_wasted":    {float64(w.delta("chiron_serve_hedge_wasted_total")), "count"},

		"live.run_us":         {us(p50[lyLive]), "us"},
		"live.overhead_x":     {float64(p50[lyLive]) / predictedWall, "x"},
		"live.allocs_per_run": {liveAllocs, "count"},
		"live.nominal_err_x":  {float64(percentile(nominal, 0.5)) / float64(e.plan.Predicted), "x"},
		"live.finra50_run_us": {us(finra), "us"},

		"flight.finish_ns": {timePerCall(func() {
			fl := e.app.Flight()
			fl.Finish(fl.Acquire(), flight.Info{Workflow: e.wf.Name, Latency: time.Nanosecond})
		}), "ns"},
		"flight.retained_ratio": {float64(w.delta("chiron_flight_retained_total")) / float64(max(w.delta("chiron_flight_finished_total"), 1)), "ratio"},
		"obs.observe_ns":        {timePerCall(observeProbe()), "ns"},
		"obs.scrape_us":         {us(scrapeTime(e.reg)), "us"},

		"serve.register_us":       {us(sr.warm.register), "us"},
		"serve.plan_cold_ms":      {ms(sr.cold.plan), "ms"},
		"serve.plan_warm_ms":      {ms(sr.warm.plan), "ms"},
		"serve.first_invoke_ms":   {ms(sr.warm.firstInvoke), "ms"},
		"predict.cache_hit_ratio": {sr.hitRatio, "ratio"},
		"adapt.replans":           {float64(status.Replans), "count"},
		"adapt.bias":              {status.Bias, "x"},

		"client.p50_us":           {us(percentile(s.sorted, 0.50)), "us"},
		"client.p90_us":           {us(percentile(s.sorted, 0.90)), "us"},
		"client.p99_us":           {us(percentile(s.sorted, 0.99)), "us"},
		"client.p999_us":          {us(percentile(s.sorted, 0.999)), "us"},
		"client.top_percentile":   {100 * highestSupported(s.ok), "%"},
		"client.stall_ratio":      {float64(s.ok-firstStall) / ok, "ratio"},
		"client.stall_time_share": {float64(stallTime) / float64(max(allTime, 1)), "ratio"},
		"client.echo_rtt_us":      {us(echo), "us"},

		"proc.cpu_us_per_op":     {us(s.cpuPerOp), "us"},
		"proc.gc_cycles_per_kop": {1000 * float64(gcCycles) / ok, "count"},
		"proc.gc_pause_p99_us":   {us(gcPauseP99(&w.mem1, gcCycles)), "us"},
		"proc.peak_rss_mb":       {float64(w.ru1.Maxrss) / 1024, "MB"},
		"proc.goroutines_end":    {float64(runtime.NumGoroutine()), "count"},
		"proc.steal_ratio":       {w.stealRatio(), "ratio"},
		"trace.overhead_ratio":   {float64(p50[lyWire]) / float64(max(percentile(s.sorted, 0.5), 1)), "ratio"},
	}
	return m, problems, nil
}

// probeBudget bounds each serial probe; probeCalls is how many calls a
// probe of a sub-microsecond function makes.
const (
	probeBudget = 500 * time.Millisecond
	probeCalls  = 200_000
)

// timePerCall is the mean wall time of one call of fn, in nanoseconds,
// over probeCalls calls or probeBudget, whichever ends first.
func timePerCall(fn func()) float64 {
	start := time.Now()
	n := 0
	for n < probeCalls {
		for i := 0; i < 1000; i++ {
			fn()
		}
		n += 1000
		if time.Since(start) > probeBudget {
			break
		}
	}
	return float64(time.Since(start)) / float64(n)
}

// allocsPerRun is the mean number of heap allocations of one serial call
// of fn, whole process, over up to 2000 calls or probeBudget.
func allocsPerRun(fn func()) float64 {
	fn() // first call may fill a pool
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for n < 2000 && time.Since(start) < probeBudget {
		fn()
		n++
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// udpDecodeProbe is what the receive loop does to every datagram before
// dispatch: the stateless filter and the header parse.
func udpDecodeProbe(e *env) func() {
	pkt := make([]byte, udp.HeaderSize+len(e.payload))
	n, err := udp.EncodeInvoke(pkt, 1, e.hash, 1, 0, 0, e.payload)
	if err != nil {
		panic(err) // the buffer is sized for the payload above
	}
	pkt = pkt[:n]
	var h udp.Header
	return func() {
		if udp.Filter(pkt) {
			_ = udp.ParseHeader(pkt, &h)
		}
	}
}

func udpEncodeProbe(e *env) func() {
	pkt := make([]byte, udp.HeaderSize+len(e.payload))
	id := uint64(0)
	return func() {
		id++
		_, _ = udp.EncodeInvoke(pkt, 1, e.hash, id, 0, 0, e.payload)
	}
}

func observeProbe() func() {
	h := obs.NewHistogram(nil)
	d := time.Duration(0)
	return func() {
		d += 37 * time.Microsecond
		h.Observe(d % time.Second)
	}
}

// scrapeTime is one /metrics rendering of the run's registry.
func scrapeTime(reg *obs.Registry) time.Duration {
	start := time.Now()
	_ = reg.WriteProm(io.Discard)
	return time.Since(start)
}

// gcPauseP99 is the p99 stop-the-world pause among the window's last
// cycles (MemStats keeps 256).
func gcPauseP99(m *runtime.MemStats, cycles uint32) time.Duration {
	n := min(int(cycles), len(m.PauseNs))
	p := make([]time.Duration, n)
	for i := range p {
		p[i] = time.Duration(m.PauseNs[(int(m.NumGC)+255-i)%256])
	}
	slices.Sort(p)
	return percentile(p, 0.99)
}

// echoRTT is the median round trip of a bare UDP echo on loopback, driven
// like the UDP client drives the server: the generator-plus-kernel floor
// under every D3 number.
func echoRTT() (time.Duration, error) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, udp.MaxDatagram)
		for {
			n, addr, err := srv.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			_, _ = srv.WriteToUDPAddrPort(buf[:n], addr)
		}
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	conn, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	pkt := make([]byte, udp.HeaderSize+payloadSize)
	rtts := make([]time.Duration, 0, 20000)
	for i := 0; i < cap(rtts); i++ {
		t0 := time.Now()
		if err := conn.SetReadDeadline(t0.Add(replyTimeout)); err != nil {
			return 0, err
		}
		if _, err := conn.Write(pkt); err != nil {
			return 0, err
		}
		if _, err := conn.Read(pkt); err != nil {
			return 0, err
		}
		rtts = append(rtts, time.Since(t0))
	}
	slices.Sort(rtts)
	return percentile(rtts, 0.5), nil
}

// finra50RunTime is the median live.RunCtx of FINRA-50 at Scale 0.01: a
// 50-way fan-out guard for the executor, which no end-to-end workload
// covers.
func finra50RunTime() (time.Duration, error) {
	wf := workloads.FINRA(50)
	app := serve.New(serve.Options{Scale: 0.01, Window: 1 << 20, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = app.Shutdown(ctx)
	}()
	if _, err := app.Register(wf); err != nil {
		return 0, err
	}
	plan, err := app.PlanWorkflow(wf.Name, 0)
	if err != nil {
		return 0, err
	}
	runs := make([]time.Duration, 0, 30)
	for i := 0; i < cap(runs); i++ {
		t0 := time.Now()
		if _, err := live.RunCtx(context.Background(), wf, plan.Plan, live.Options{Const: model.Default(), Scale: 0.01}); err != nil {
			return 0, err
		}
		runs = append(runs, time.Since(t0))
	}
	slices.Sort(runs)
	return percentile(runs, 0.5), nil
}
