package udp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"chiron/internal/obs"
	"chiron/internal/serve"
)

// Options configures the UDP ingress server.
type Options struct {
	// Addr is the UDP listen address (default 127.0.0.1:0).
	Addr string
	// Workers is the number of invoke workers draining the receive loop
	// (default 4x GOMAXPROCS). Admission still happens in serve.App's
	// shared queue; workers only bound how many datagrams are in flight
	// between socket and admission.
	Workers int
	// Backlog is how many parsed packets may queue for workers beyond
	// the workers themselves (default 2x Workers). When the backlog is
	// full the receive loop sheds invokes with StatusOverloaded instead
	// of letting the kernel socket buffer bloat silently.
	Backlog int
	// Reg receives the udp metrics; pass the same registry as the HTTP
	// gateway so both planes report side by side (default: a fresh one).
	Reg *obs.Registry
}

// job is one in-flight datagram: buffers, source address and parsed
// header, preallocated once and recycled through a free list so the
// receive path allocates nothing per packet.
type job struct {
	buf  [MaxDatagram]byte
	out  [ReplySize]byte
	n    int
	addr netip.AddrPort
	h    Header
}

type serverMetrics struct {
	packets   *obs.Counter
	filtered  *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	connects  *obs.Counter
	shed      *obs.Counter
	errors    *obs.Counter
	bytes     *obs.IntHistogram
}

// Server is the binary ingress plane: one UDP socket, a preallocated
// receive loop, and a worker pool feeding invocations into the same
// serve.App — same admission queue, warm pools and plan epochs — as the
// HTTP gateway.
type Server struct {
	app    *serve.App
	conn   *net.UDPConn
	secret Secret
	m      serverMetrics

	free chan *job // recycled packet buffers
	work chan *job // parsed invokes awaiting a worker

	recvDone  chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// New binds the socket and starts the receive loop and workers.
func New(app *serve.App, opt Options) (*Server, error) {
	if opt.Addr == "" {
		opt.Addr = "127.0.0.1:0"
	}
	if opt.Workers <= 0 {
		opt.Workers = 4 * runtime.GOMAXPROCS(0)
	}
	if opt.Backlog <= 0 {
		opt.Backlog = 2 * opt.Workers
	}
	if opt.Reg == nil {
		opt.Reg = obs.NewRegistry()
	}
	laddr, err := net.ResolveUDPAddr("udp", opt.Addr)
	if err != nil {
		return nil, fmt.Errorf("udp: listen addr: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udp: listen: %w", err)
	}
	secret, err := NewSecret()
	if err != nil {
		conn.Close()
		return nil, err
	}

	numJobs := opt.Workers + opt.Backlog
	s := &Server{
		app:    app,
		conn:   conn,
		secret: secret,
		m: serverMetrics{
			packets:   opt.Reg.Counter("chiron_udp_packets_total", "UDP datagrams received"),
			filtered:  opt.Reg.Counter("chiron_udp_filtered_total", "datagrams dropped by the stateless packet filter"),
			rejected:  opt.Reg.Counter("chiron_udp_rejected_total", "well-formed packets refused (bad token, shed, admission reject)"),
			completed: opt.Reg.Counter("chiron_udp_completed_total", "invocations completed over UDP"),
			connects:  opt.Reg.Counter("chiron_udp_connects_total", "connect handshakes answered"),
			shed:      opt.Reg.Counter("chiron_udp_shed_total", "invokes shed because the worker backlog was full"),
			errors:    opt.Reg.Counter("chiron_udp_errors_total", "socket write failures"),
			bytes:     opt.Reg.IntHistogram("chiron_udp_bytes", "received datagram sizes (bytes)", obs.DefSizeBuckets()),
		},
		free:     make(chan *job, numJobs),
		work:     make(chan *job, numJobs),
		recvDone: make(chan struct{}),
	}
	for i := 0; i < numJobs; i++ {
		s.free <- &job{}
	}
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	go s.recvLoop()
	return s, nil
}

// Addr is the bound listen address (resolves :0 for tests).
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Close stops the receive loop, drains the workers (in-flight
// invocations finish — they hold serve.App drain units) and closes the
// socket. Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.conn.Close() // unblocks ReadMsgUDPAddrPort
		<-s.recvDone
		close(s.work)
		s.wg.Wait()
	})
	return s.closeErr
}

// recvLoop is the hot path: one goroutine, zero allocations per packet.
// It reads into a pooled buffer, runs the stateless filter, answers
// connects inline and hands token-verified invokes to the workers.
func (s *Server) recvLoop() {
	defer close(s.recvDone)
	// scratch keeps the socket draining when every pooled job is in
	// flight: reads land here and invokes are shed with a reject.
	scratch := &job{}
	for {
		var j *job
		select {
		case j = <-s.free:
		default:
			j = scratch
		}
		n, _, _, addr, err := s.conn.ReadMsgUDPAddrPort(j.buf[:], nil)
		if err != nil {
			if j != scratch {
				s.free <- j
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.m.packets.Inc()
		s.m.bytes.Observe(int64(n))
		if !Filter(j.buf[:n]) {
			s.m.filtered.Inc()
			if j != scratch {
				s.free <- j
			}
			continue
		}
		if ParseHeader(j.buf[:n], &j.h) != nil { // unreachable after Filter; stay defensive
			s.m.filtered.Inc()
			if j != scratch {
				s.free <- j
			}
			continue
		}
		dispatched := false
		switch j.h.Type {
		case TypeConnect:
			s.m.connects.Inc()
			s.sendReply(j, addr, &Reply{
				Type: TypeConnectAck, Status: StatusOK,
				Token: s.secret.Token(addr), ID: j.h.ID,
			})
		case TypeInvoke:
			switch {
			case j.h.Token != s.secret.Token(addr):
				s.m.rejected.Inc()
				s.sendReply(j, addr, &Reply{Type: TypeReply, Status: StatusBadToken, ID: j.h.ID})
			case j == scratch:
				s.m.shed.Inc()
				s.m.rejected.Inc()
				s.sendReply(j, addr, &Reply{Type: TypeReply, Status: StatusOverloaded, ID: j.h.ID})
			default:
				j.n = n
				j.addr = addr
				s.work <- j // cap == pool size: never blocks
				dispatched = true
			}
		default:
			// Reply-family packets have no business arriving here.
			s.m.rejected.Inc()
		}
		if !dispatched && j != scratch {
			s.free <- j
		}
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.work {
		s.handle(j)
		s.free <- j // cap == pool size: never blocks
	}
}

// handle admits and executes one invoke packet. Admission blocks in the
// workflow's shared queue exactly like an HTTP request; the worker pool
// size bounds how many UDP invocations can be queued there at once.
func (s *Server) handle(j *job) {
	ctx := context.Background()
	var cancel context.CancelFunc
	if j.h.DeadlineMs > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.h.DeadlineMs)*time.Millisecond)
		defer cancel()
	}

	// The wire header's client-chosen id is the invocation's correlation
	// id (nothing dedupes on it): hedged re-issues inside serve share it,
	// and the per-request ms deadline above orders this packet in the
	// admission queue by remaining slack (an already-expired one is
	// rejected before it queues).
	ad, err := s.app.AdmitHashID(ctx, j.h.Hash, j.h.ID)
	if err != nil {
		s.m.rejected.Inc()
		st, aux := classify(err)
		s.sendReply(j, j.addr, &Reply{Type: TypeReply, Status: st, ID: j.h.ID, Aux: aux})
		return
	}

	if j.h.Flags&FlagAsync != 0 {
		// Ack the submission now; the completion reply follows when the
		// run finishes. The admitted slot (and its drain unit) is held
		// through execution, so shutdown still waits for this work.
		s.sendReply(j, j.addr, &Reply{Type: TypeAck, Status: StatusAccepted, ID: j.h.ID})
	}

	fast, err := ad.Execute(ctx)
	if err != nil {
		st, aux := classify(err)
		s.sendReply(j, j.addr, &Reply{Type: TypeReply, Status: st, ID: j.h.ID, Aux: aux})
		return
	}
	s.m.completed.Inc()
	s.sendReply(j, j.addr, &Reply{
		Type: TypeReply, Status: StatusOK, ID: j.h.ID,
		PlanVersion: uint32(fast.PlanVersion), Cold: fast.Cold,
		E2E: fast.E2E, QueueWait: fast.QueueWait, Aux: fast.ColdStart,
	})
}

// classify maps serve errors onto wire status codes (by sentinel, never
// by error text). Aux carries the overload retry-after hint.
func classify(err error) (status byte, aux time.Duration) {
	var ov *serve.OverloadError
	switch {
	case errors.As(err, &ov):
		return StatusOverloaded, ov.RetryAfter
	case errors.Is(err, serve.ErrNotFound):
		return StatusNotFound, 0
	case errors.Is(err, serve.ErrNoPlan):
		return StatusNoPlan, 0
	case errors.Is(err, serve.ErrDraining):
		return StatusDraining, 0
	case errors.Is(err, serve.ErrStalePlan):
		return StatusStale, 0
	case errors.Is(err, context.DeadlineExceeded):
		return StatusTimeout, 0
	default:
		return StatusError, 0
	}
}

// sendReply encodes into the job's reply buffer and writes one
// datagram. Write failures are counted, not retried: UDP.
func (s *Server) sendReply(j *job, addr netip.AddrPort, r *Reply) {
	n := EncodeReply(j.out[:], r)
	if _, err := s.conn.WriteToUDPAddrPort(j.out[:n], addr); err != nil {
		s.m.errors.Inc()
	}
}
