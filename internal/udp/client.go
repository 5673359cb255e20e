package udp

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// ErrTimeout: no reply within the client's read timeout (the datagram
// or its reply may simply be lost — UDP makes no promises).
var ErrTimeout = errors.New("udp: reply timeout")

// Client speaks the binary invoke protocol over one connected socket.
// It is NOT safe for concurrent use: tests and benchmarks run one
// Client per worker, which is also what keeps the path allocation-free
// (fixed send/receive buffers, no per-call state).
type Client struct {
	conn    *net.UDPConn
	token   uint64
	seq     uint64
	timeout time.Duration
	sbuf    [MaxDatagram]byte
	rbuf    [MaxDatagram]byte
}

// Dial connects to a server and completes the token handshake. timeout
// bounds each reply wait (default 2s); the handshake retries a few
// times since connect datagrams can be lost like any other.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udp: dial %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("udp: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, timeout: timeout}
	if err := c.connect(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) connect() error {
	var lastErr error = ErrTimeout
	for attempt := 0; attempt < 3; attempt++ {
		c.seq++
		nonce := c.seq
		n := EncodeConnect(c.sbuf[:], nonce)
		if _, err := c.conn.Write(c.sbuf[:n]); err != nil {
			return fmt.Errorf("udp: connect: %w", err)
		}
		var r Reply
		if err := c.readReply(nonce, &r); err != nil {
			lastErr = err
			continue
		}
		if r.Type != TypeConnectAck || r.Token == 0 {
			lastErr = fmt.Errorf("udp: connect: unexpected reply type %d", r.Type)
			continue
		}
		c.token = r.Token
		return nil
	}
	return fmt.Errorf("udp: connect handshake failed: %w", lastErr)
}

// Invoke sends one invocation and waits for its reply. For async
// invokes (FlagAsync) it returns on the submission ack; the completion
// reply is read by the next call that drains the socket, or discarded.
// deadline (0 = none) rides in the packet and bounds the server's work.
func (c *Client) Invoke(hash uint64, payload []byte, deadline time.Duration, flags byte) (Reply, error) {
	c.seq++
	id := c.seq
	n, err := EncodeInvoke(c.sbuf[:], c.token, hash, id, flags, deadline, payload)
	if err != nil {
		return Reply{}, err
	}
	if _, err := c.conn.Write(c.sbuf[:n]); err != nil {
		return Reply{}, fmt.Errorf("udp: send: %w", err)
	}
	var r Reply
	if err := c.readReply(id, &r); err != nil {
		return Reply{}, err
	}
	return r, nil
}

// Await blocks for the completion reply of an async invocation
// previously acked with the given id.
func (c *Client) Await(id uint64) (Reply, error) {
	var r Reply
	for {
		if err := c.readReply(id, &r); err != nil {
			return Reply{}, err
		}
		if r.Type == TypeReply {
			return r, nil
		}
	}
}

// readReply reads datagrams until one parses as a reply for id or the
// timeout elapses. Replies for other ids (stale completions from
// earlier async invokes) are skipped.
func (c *Client) readReply(id uint64, r *Reply) error {
	deadline := time.Now().Add(c.timeout)
	for {
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return err
		}
		n, err := c.conn.Read(c.rbuf[:])
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return ErrTimeout
			}
			return err
		}
		if ParseReply(c.rbuf[:n], r) != nil {
			continue
		}
		if r.ID == id {
			return nil
		}
	}
}

// Token exposes the negotiated connect token (tests forge bad ones).
func (c *Client) Token() uint64 { return c.token }

// Close releases the socket.
func (c *Client) Close() error { return c.conn.Close() }
