package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"chiron/internal/live"
	"chiron/internal/model"
	"chiron/internal/obs/flight"
)

// A traced run enters the serving plane at four depths and times each
// call from here, outside the program:
//
//	D0  live.RunCtx(workflow, plan)               the executor alone
//	D1  App.AdmitHashID + Admitted.Execute        + admission, lease, flight, metrics
//	D2  App.Invoke, then Handler().ServeHTTP      + name lookup, result; + mux and JSON
//	D3  the socket round trip                     + the ingress plane and the kernel
//
// The clients cycle through the depths together, traceBlock at a time:
// within a block every client calls at one depth, so a D3 block is the
// untraced window's traffic exactly, and over the phase all depths see
// the same minutes of the machine. A layer's self time is the
// difference between the median of its depth and the median of the
// depth below.
type layer uint8

const (
	lyLive layer = iota
	lyCore
	lyAdmit   // child of lyCore
	lyExecute // child of lyCore
	lyInvoke
	lyHandler
	lyWire
	numLayers
)

var layerNames = [numLayers]string{
	lyLive:    "d0.live.RunCtx",
	lyCore:    "d1.serve.core",
	lyAdmit:   "d1.serve.AdmitHashID",
	lyExecute: "d1.serve.Execute",
	lyInvoke:  "d2.serve.Invoke",
	lyHandler: "d2.serve.ServeHTTP",
	lyWire:    "d3.wire.roundtrip",
}

// entryLayers are the depths the clients cycle through.
var entryLayers = []layer{lyLive, lyCore, lyInvoke, lyHandler, lyWire}

const traceBlock = 100 * time.Millisecond

// span is one timed call. It holds no pointers so that spans can live
// off-heap; Start and End are nanoseconds since the traced phase began.
type span struct {
	ID, Parent uint32
	Req        uint32
	Layer      layer
	Client     uint8
	Start, End int64
}

// maxSpansPerClient bounds the trace file (about 100 bytes a span); a
// traced phase ends early when a client reaches it.
const maxSpansPerClient = 100_000

// tracer is one client's span buffer and the sums read off the calls'
// results.
type tracer struct {
	client    uint8
	spans     []span
	reqs      uint32
	errs      int
	queueWait time.Duration
	coreCalls int
	nominal   []time.Duration // live.Result.E2E of the D0 calls
	respBytes int
}

func (t *tracer) add(ly layer, parent, req uint32, start, end int64) uint32 {
	id := uint32(t.client)*maxSpansPerClient + uint32(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: ly, Client: t.client, Start: start, End: end})
	return id
}

// respRecorder is the ResponseWriter ServeHTTP is called with at D2.
type respRecorder struct {
	hdr  http.Header
	code int
	n    int
}

func (r *respRecorder) Header() http.Header  { return r.hdr }
func (r *respRecorder) WriteHeader(code int) { r.code = code }
func (r *respRecorder) Write(b []byte) (int, error) {
	r.n += len(b)
	return len(b), nil
}

// runLive is the D0 call: the executor on the active plan, recording
// into a flight recorder as it does under serve. Acquire and Finish are
// serve's cost, not the executor's, and stay outside the timed part; the
// options are the ones serve passes with its defaults.
func (e *env) runLive(ctx context.Context) (start, end time.Time, res *live.Result, err error) {
	fl := e.app.Flight()
	fr := fl.Acquire()
	start = time.Now()
	res, err = live.RunCtx(ctx, e.wf, e.plan.Plan, live.Options{
		Const: model.Default(), Scale: e.wl.scale, Timeout: 30 * time.Second, Rec: fr,
	})
	end = time.Now()
	info := flight.Info{Workflow: e.wf.Name, Err: err}
	if res != nil {
		info.Latency = res.E2E
	}
	fl.Finish(fr, info)
	return start, end, res, err
}

// runTraced is the traced phase: the clients cycle through the entry
// depths for dur, or until a span buffer is full.
func runTraced(e *env, dur time.Duration) ([]*tracer, error) {
	tracers := make([]*tracer, len(e.clients))
	for i := range tracers {
		buf, err := offHeap[span](maxSpansPerClient)
		if err != nil {
			return nil, err
		}
		tracers[i] = &tracer{client: uint8(i), spans: buf[:0]}
	}
	handler := e.app.Handler()
	path := invokePath(e.wf.Name)
	ctx := context.Background()
	begin := time.Now()
	since := func(t time.Time) int64 { return int64(t.Sub(begin)) }

	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(c client, t *tracer) {
			defer wg.Done()
			rec := &respRecorder{hdr: http.Header{}}
			for len(t.spans)+3 <= cap(t.spans) {
				elapsed := time.Since(begin)
				if elapsed >= dur {
					break
				}
				t.reqs++
				req := uint32(t.client)*maxSpansPerClient + t.reqs
				switch ly := entryLayers[int(elapsed/traceBlock)%len(entryLayers)]; ly {
				case lyLive:
					t0, t1, res, err := e.runLive(ctx)
					if err != nil {
						t.errs++
						continue
					}
					t.nominal = append(t.nominal, res.E2E)
					t.add(ly, 0, req, since(t0), since(t1))
				case lyCore:
					t0 := time.Now()
					ad, err := e.app.AdmitHashID(ctx, e.hash, uint64(req))
					if err != nil {
						t.errs++
						continue
					}
					t1 := time.Now()
					fast, err := ad.Execute(ctx)
					t2 := time.Now()
					if err != nil || fast.PlanVersion != e.plan.Version {
						t.errs++
						continue
					}
					t.queueWait += fast.QueueWait
					t.coreCalls++
					parent := t.add(ly, 0, req, since(t0), since(t2))
					t.add(lyAdmit, parent, req, since(t0), since(t1))
					t.add(lyExecute, parent, req, since(t1), since(t2))
				case lyInvoke:
					t0 := time.Now()
					res, err := e.app.Invoke(ctx, e.wf.Name, nil)
					t1 := time.Now()
					if err != nil || len(res.Functions) != e.numFns || res.TotalMs <= 0 {
						t.errs++
						continue
					}
					t.add(ly, 0, req, since(t0), since(t1))
				case lyHandler:
					r, err := http.NewRequestWithContext(ctx, http.MethodPost, path, nil)
					if err != nil {
						t.errs++
						continue
					}
					clear(rec.hdr)
					rec.code, rec.n = 0, 0
					t0 := time.Now()
					handler.ServeHTTP(rec, r)
					t1 := time.Now()
					if rec.code != http.StatusOK {
						t.errs++
						continue
					}
					t.respBytes = rec.n
					t.add(ly, 0, req, since(t0), since(t1))
				case lyWire:
					t0 := time.Now()
					out, ver := c.invoke()
					t1 := time.Now()
					if out != outOK || ver != e.plan.Version {
						t.errs++
						continue
					}
					t.add(ly, 0, req, since(t0), since(t1))
				}
			}
		}(c, tracers[i])
	}
	wg.Wait()
	return tracers, nil
}

// layerDurations gathers every span's duration by layer, ascending.
func layerDurations(tracers []*tracer) [numLayers][]time.Duration {
	var d [numLayers][]time.Duration
	for _, t := range tracers {
		for _, s := range t.spans {
			d[s.Layer] = append(d[s.Layer], time.Duration(s.End-s.Start))
		}
	}
	for i := range d {
		slices.Sort(d[i])
	}
	return d
}

// selfTimes turns the median of each depth, outermost last, into each
// depth's self time: its median minus that of the depth below it. The
// innermost depth's self time is its whole median.
func selfTimes(medians []time.Duration) []time.Duration {
	self := make([]time.Duration, len(medians))
	for i, m := range medians {
		self[i] = m
		if i > 0 {
			self[i] -= medians[i-1]
		}
	}
	return self
}

// writeTrace writes every span as one JSON document. README.md, "Reading
// a trace", describes the fields.
func writeTrace(dir string, e *env, seed int64, tracers []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, "trace-"+e.wl.name+".json")
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"clients\":%d,\"clock\":\"ns since the traced phase began\",\"spans\":[\n", e.wl.name, seed, len(tracers))
	var b []byte
	first := true
	for _, t := range tracers {
		for _, s := range t.spans {
			b = b[:0]
			if !first {
				b = append(b, ",\n"...)
			}
			first = false
			b = append(b, `{"id":`...)
			b = strconv.AppendUint(b, uint64(s.ID), 10)
			b = append(b, `,"parent":`...)
			b = strconv.AppendUint(b, uint64(s.Parent), 10)
			b = append(b, `,"req":`...)
			b = strconv.AppendUint(b, uint64(s.Req), 10)
			b = append(b, `,"client":`...)
			b = strconv.AppendUint(b, uint64(s.Client), 10)
			b = append(b, `,"name":"`...)
			b = append(b, layerNames[s.Layer]...)
			b = append(b, `","start_ns":`...)
			b = strconv.AppendInt(b, s.Start, 10)
			b = append(b, `,"end_ns":`...)
			b = strconv.AppendInt(b, s.End, 10)
			b = append(b, '}')
			_, _ = w.Write(b) // a failed write surfaces at Flush
		}
	}
	_, _ = w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}
