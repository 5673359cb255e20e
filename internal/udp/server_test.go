package udp

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/obs"
	"chiron/internal/serve"
)

// testWorkflow mirrors serve's test fixture: a 2-stage workflow with a
// parameterized per-function cost.
func testWorkflow(cpu time.Duration) *dag.Workflow {
	mk := func(name string) *behavior.Spec {
		return &behavior.Spec{
			Name: name, Runtime: behavior.Python,
			Segments: []behavior.Segment{
				{Kind: behavior.CPU, Dur: cpu},
				{Kind: behavior.NetIO, Dur: cpu / 2},
			},
			MemMB: 64,
		}
	}
	w, err := dag.FromStages("wf-test", 0,
		[]*behavior.Spec{mk("f1")},
		[]*behavior.Spec{mk("f2"), mk("f3")},
	)
	if err != nil {
		panic(err)
	}
	return w
}

// testServer boots a serve.App with one planned workflow and a UDP
// server on an ephemeral port, sharing one metrics registry.
func testServer(t *testing.T, opt serve.Options, cpu time.Duration) (*serve.App, *Server, *obs.Registry) {
	t.Helper()
	if opt.Scale == 0 {
		opt.Scale = 0.02
	}
	app := serve.New(opt)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = app.Shutdown(ctx)
	})
	if _, err := app.Register(testWorkflow(cpu)); err != nil {
		t.Fatal(err)
	}
	if _, err := app.PlanWorkflow("wf-test", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	srv, err := New(app, Options{Reg: app.Registry(), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return app, srv, app.Registry()
}

func testDial(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestConnectAndSyncInvoke(t *testing.T) {
	_, srv, reg := testServer(t, serve.Options{}, 4*time.Millisecond)
	c := testDial(t, srv)
	if c.Token() == 0 {
		t.Fatal("handshake issued zero token")
	}

	h := HashWorkflow("wf-test")
	r, err := c.Invoke(h, []byte(`{"k":"v"}`), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Type != TypeReply || r.Status != StatusOK {
		t.Fatalf("reply %+v", r)
	}
	if !r.Cold || r.PlanVersion != 1 || r.E2E <= 0 || r.Aux <= 0 {
		t.Fatalf("first invoke should be cold with timings: %+v", r)
	}
	r2, err := c.Invoke(h, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cold {
		t.Fatal("second sequential invoke should hit the warm pool")
	}
	if got := reg.Counter("chiron_udp_completed_total", "").Value(); got != 2 {
		t.Fatalf("completed counter = %d, want 2", got)
	}
	if got := reg.Counter("chiron_udp_filtered_total", "").Value(); got != 0 {
		t.Fatalf("filtered counter = %d, want 0", got)
	}
	if h := reg.IntHistogram("chiron_udp_bytes", "", obs.DefSizeBuckets()); h.Count() < 3 {
		t.Fatalf("bytes histogram observed %d datagrams", h.Count())
	}
}

func TestAsyncInvoke(t *testing.T) {
	_, srv, _ := testServer(t, serve.Options{}, 4*time.Millisecond)
	c := testDial(t, srv)

	r, err := c.Invoke(HashWorkflow("wf-test"), []byte("async"), 0, FlagAsync)
	if err != nil {
		t.Fatal(err)
	}
	if r.Type != TypeAck || r.Status != StatusAccepted {
		t.Fatalf("expected submission ack, got %+v", r)
	}
	done, err := c.Await(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Type != TypeReply || done.Status != StatusOK || done.E2E <= 0 {
		t.Fatalf("completion %+v", done)
	}
}

func TestRejections(t *testing.T) {
	_, srv, reg := testServer(t, serve.Options{}, 4*time.Millisecond)
	c := testDial(t, srv)

	// Unknown workflow hash.
	r, err := c.Invoke(HashWorkflow("no-such-workflow"), nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusNotFound {
		t.Fatalf("unknown hash: %+v", r)
	}

	// Forged token: reject before admission.
	c.token ^= 0xFFFF
	r, err = c.Invoke(HashWorkflow("wf-test"), nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusBadToken {
		t.Fatalf("forged token: %+v", r)
	}
	if got := reg.Counter("chiron_udp_rejected_total", "").Value(); got != 2 {
		t.Fatalf("rejected counter = %d, want 2", got)
	}

	// Re-handshake recovers.
	if err := c.connect(); err != nil {
		t.Fatal(err)
	}
	if r, err = c.Invoke(HashWorkflow("wf-test"), nil, 0, 0); err != nil || r.Status != StatusOK {
		t.Fatalf("after re-handshake: %+v err=%v", r, err)
	}
}

func TestJunkIsFiltered(t *testing.T) {
	_, srv, reg := testServer(t, serve.Options{}, 4*time.Millisecond)
	raw, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	junk := [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0xC7, 0x1E, 0xD1}, // truncated magic
		make([]byte, HeaderSize),
		make([]byte, MaxDatagram),
	}
	for _, b := range junk {
		if _, err := raw.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for reg.Counter("chiron_udp_filtered_total", "").Value() < uint64(len(junk)) {
		if time.Now().After(deadline) {
			t.Fatalf("filtered = %d, want %d", reg.Counter("chiron_udp_filtered_total", "").Value(), len(junk))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter("chiron_udp_completed_total", "").Value(); got != 0 {
		t.Fatalf("junk completed %d invocations", got)
	}
}

func TestDeadlineTimesOut(t *testing.T) {
	// Nominal E2E ~1.2s scaled by 0.1 → ~120ms wall; a 20ms deadline
	// must expire mid-execution and report StatusTimeout.
	_, srv, _ := testServer(t, serve.Options{Scale: 0.1}, 400*time.Millisecond)
	c := testDial(t, srv)
	r, err := c.Invoke(HashWorkflow("wf-test"), nil, 20*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusTimeout {
		t.Fatalf("expected timeout, got %+v", r)
	}
}

// TestSharedAdmissionAndWarmPool is the cross-plane integration check:
// a UDP invocation and an HTTP-path invocation of the same workflow
// contend for the same admission slots and reuse the same warm pool.
func TestSharedAdmissionAndWarmPool(t *testing.T) {
	// MaxConcurrency 1: one slot shared by both planes. Scale 1 with
	// 100ms functions gives a ~300ms execution window to race against.
	app, srv, reg := testServer(t, serve.Options{
		Scale: 1, MaxConcurrency: 1, KeepAlive: time.Minute,
	}, 100*time.Millisecond)
	c := testDial(t, srv)

	// 1. Async UDP invoke: the ack proves the packet holds the single
	// admission slot while it executes.
	r, err := c.Invoke(HashWorkflow("wf-test"), nil, 0, FlagAsync)
	if err != nil {
		t.Fatal(err)
	}
	if r.Type != TypeAck {
		t.Fatalf("ack %+v", r)
	}

	// 2. An HTTP-path invocation now queues behind the UDP one and must
	// time out waiting for the shared slot — same admission queue.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	_, err = app.Invoke(ctx, "wf-test", nil)
	cancel()
	if err == nil {
		t.Fatal("HTTP invoke ran concurrently with UDP invoke despite MaxConcurrency=1")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued HTTP invoke: %v", err)
	}

	// 3. UDP completion frees the slot and parks its instance warm.
	done, err := c.Await(r.ID)
	if err != nil || done.Status != StatusOK {
		t.Fatalf("completion %+v err=%v", done, err)
	}
	if !done.Cold {
		t.Fatal("first UDP invoke should have booted cold")
	}

	// 4. The HTTP-path invocation now reuses the instance UDP booted —
	// same warm pool, observable in the shared metrics.
	res, err := app.Invoke(context.Background(), "wf-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cold {
		t.Fatal("HTTP invoke booted cold instead of reusing the UDP-warmed instance")
	}
	if cold := reg.Counter("chiron_serve_coldstarts_total", "").Value(); cold != 1 {
		t.Fatalf("cold starts = %d, want exactly the UDP boot", cold)
	}
	if warm := reg.Counter("chiron_serve_warmhits_total", "").Value(); warm != 1 {
		t.Fatalf("warm hits = %d, want the HTTP reuse", warm)
	}
}

func TestServerCloseDrains(t *testing.T) {
	_, srv, _ := testServer(t, serve.Options{}, 4*time.Millisecond)
	c := testDial(t, srv)
	if r, err := c.Invoke(HashWorkflow("wf-test"), nil, 0, 0); err != nil || r.Status != StatusOK {
		t.Fatalf("%+v err=%v", r, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close:", err)
	}
}
