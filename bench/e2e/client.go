package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"chiron/internal/udp"
)

// outcome classifies one request. A refused request is counted apart
// from a failed one but both count against the workload.
type outcome uint8

const (
	outOK outcome = iota
	outRejected
	outFailed
)

func (o outcome) String() string { return [...]string{"ok", "rejected", "failed"}[o] }

// client is one closed-loop load generator connection. invoke sends one
// request, waits for its reply, checks it and returns the plan version
// it was served on. It allocates nothing, so the window's MemStats
// deltas are the program's.
type client interface {
	invoke() (outcome, int64)
	close()
}

// replyTimeout bounds one reply wait; a request that hits it has failed.
const replyTimeout = 5 * time.Second

func dial(e *env) (client, error) {
	if e.wl.http {
		return dialHTTP(e)
	}
	c, err := udp.Dial(e.addr, replyTimeout)
	if err != nil {
		return nil, err
	}
	return &udpClient{c: c, hash: e.hash, payload: e.payload}, nil
}

// udpClient drives the binary plane through udp.Client, whose fixed
// buffers keep the path allocation-free. The invocation ids are the
// client's own sequence 2, 3, 4, ... after the handshake, the same on
// every run.
type udpClient struct {
	c       *udp.Client
	hash    uint64
	payload []byte
}

func (u *udpClient) invoke() (outcome, int64) {
	r, err := u.c.Invoke(u.hash, u.payload, 0, 0)
	switch {
	case err != nil:
		return outFailed, 0
	case r.Status == udp.StatusOK:
		return outOK, int64(r.PlanVersion)
	case r.Status == udp.StatusOverloaded:
		return outRejected, 0
	}
	return outFailed, 0
}

func (u *udpClient) close() { _ = u.c.Close() }

// httpClient is a raw HTTP/1.1 keep-alive client: one preformatted
// request written per call, the response read into a fixed buffer with a
// manual Content-Length parse. net/http's client costs about as much as
// the server path it would measure, which would make half of every
// number the generator's.
type httpClient struct {
	conn    net.Conn
	req     []byte
	buf     [8192]byte
	wantFns int
}

func dialHTTP(e *env) (*httpClient, error) {
	conn, err := net.DialTimeout("tcp", e.addr, replyTimeout)
	if err != nil {
		return nil, err
	}
	// No body: the invoke endpoint reads none, and the seeded payload
	// rides only on the UDP plane, whose protocol has a payload field.
	req := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: 0\r\n\r\n", invokePath(e.wf.Name), e.addr)
	return &httpClient{conn: conn, req: []byte(req), wantFns: e.numFns}, nil
}

var (
	crlfcrlf      = []byte("\r\n\r\n")
	status200     = []byte("HTTP/1.1 200 ")
	status429     = []byte("HTTP/1.1 429 ")
	contentLength = []byte("\r\nContent-Length: ")
	keyPlan       = []byte(`"plan_version":`)
	keyTotal      = []byte(`"total_ms":`)
	keyFnName     = []byte(`"name":`)
)

func (h *httpClient) invoke() (outcome, int64) {
	if err := h.conn.SetDeadline(time.Now().Add(replyTimeout)); err != nil {
		return outFailed, 0
	}
	if _, err := h.conn.Write(h.req); err != nil {
		return outFailed, 0
	}
	// Read until the header ends, then until Content-Length body bytes
	// have arrived. A chunked or oversized response is a failure: the
	// invoke responses of the workloads driven over HTTP are a few
	// hundred bytes.
	n, bodyAt, want := 0, -1, 0
	for bodyAt < 0 || n < bodyAt+want {
		if n == len(h.buf) {
			return outFailed, 0
		}
		m, err := h.conn.Read(h.buf[n:])
		if err != nil {
			return outFailed, 0
		}
		n += m
		if bodyAt < 0 {
			end := bytes.Index(h.buf[:n], crlfcrlf)
			if end < 0 {
				continue
			}
			bodyAt = end + len(crlfcrlf)
			cl := bytes.Index(h.buf[:end], contentLength)
			if cl < 0 {
				return outFailed, 0
			}
			v, ok := parseUint(h.buf[cl+len(contentLength) : end])
			if !ok {
				return outFailed, 0
			}
			want = int(v)
		}
	}
	switch {
	case bytes.HasPrefix(h.buf[:n], status429):
		return outRejected, 0
	case !bytes.HasPrefix(h.buf[:n], status200):
		return outFailed, 0
	}
	return checkInvokeBody(h.buf[bodyAt:bodyAt+want], h.wantFns)
}

func (h *httpClient) close() { _ = h.conn.Close() }

// checkInvokeBody verifies one invoke response body without decoding it:
// total_ms is positive and there are as many function timings as the
// workflow has functions. It returns the plan version the body names.
func checkInvokeBody(body []byte, wantFns int) (outcome, int64) {
	p := bytes.Index(body, keyPlan)
	t := bytes.Index(body, keyTotal)
	if p < 0 || t < 0 {
		return outFailed, 0
	}
	ver, ok := parseUint(body[p+len(keyPlan):])
	if !ok || !positiveNumber(body[t+len(keyTotal):]) {
		return outFailed, 0
	}
	// The workflow's own name is the first "name"-suffixed key only in
	// "workflow":, which keyFnName does not match.
	if bytes.Count(body, keyFnName) != wantFns {
		return outFailed, 0
	}
	return outOK, int64(ver)
}

// parseUint reads the decimal digits b starts with.
func parseUint(b []byte) (uint64, bool) {
	var v uint64
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	return v, i > 0
}

// positiveNumber reports whether the JSON number b starts with is
// greater than zero: no sign and a non-zero digit in its mantissa.
func positiveNumber(b []byte) bool {
	for _, c := range b {
		switch {
		case c >= '1' && c <= '9':
			return true
		case c == '0' || c == '.':
		default:
			return false
		}
	}
	return false
}

// invokePath is the endpoint the raw client posts to and the traced run
// calls the handler with.
func invokePath(wfName string) string { return "/workflows/" + wfName + "/invoke" }
