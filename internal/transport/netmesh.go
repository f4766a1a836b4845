package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sqm/internal/invariant"
	"sqm/internal/protocol"
	"sqm/internal/retry"
)

// NetMesh carries the share traffic over real net.Conn links — one
// duplex connection per unordered party pair — framed with the session
// layer's versioned length-prefixed format (version/type/session/
// payload, type MsgShare, session = sender's party id). A deployment
// dials TLS connections between data centers; NewTCPMesh builds the
// same topology on localhost loopback sockets so tests and examples
// exercise genuine socket I/O.
//
// Writes are decoupled from the party goroutine by a per-link writer
// pump fed from an unbounded queue, so a resharing round's
// all-send-then-all-receive pattern can never deadlock on a full kernel
// buffer.
type NetMesh struct {
	p        int
	conns    []*netConn
	frames   atomic.Int64
	messages atomic.Int64
	bytes    atomic.Int64
	closed   atomic.Bool
}

// netConn is one party's endpoint: links[j] is the connection to party
// j (nil for j == id).
type netConn struct {
	mesh    *NetMesh
	id      int
	links   []*link
	tr      *connTrace   // nil when tracing is disabled
	timeout atomic.Int64 // receive deadline in nanoseconds; 0 blocks forever
}

// link is one directed view of a pair connection: reads happen directly
// on the party goroutine, writes go through the pump queue.
type link struct {
	conn net.Conn
	out  *queue[[]byte]
	// rbuf is the link's receive buffer, reused across frames whenever
	// the payload fits (the TCP-mesh half of the frame pool). Only the
	// owning party goroutine reads this link, so no lock is needed; the
	// Recv contract makes the previous frame dead before the next read.
	rbuf []byte
	wg   sync.WaitGroup
	werr atomic.Value // error from the writer pump, if any
}

func newLink(conn net.Conn) *link {
	l := &link{conn: conn, out: newQueue[[]byte]()}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			b, err := l.out.pop()
			if err != nil {
				return
			}
			_, werr := l.conn.Write(b)
			// The frame buffer (pool-backed, built by encodeShareFrame)
			// is dead once written.
			recycle(b)
			if werr != nil {
				l.werr.Store(werr)
				l.out.close()
				return
			}
		}
	}()
	return l
}

func (l *link) close() {
	l.out.close()
	l.conn.Close()
	l.wg.Wait()
}

// NewNetMesh assembles a mesh from pre-established pair connections:
// pair[i][j] (i < j) is the connection between parties i and j, with
// party i holding pair[i][j] locally and party j the peer end given in
// peer[i][j]. Both halves must be non-nil for every i < j.
func NewNetMesh(p int, pair, peer [][]net.Conn, opts ...Option) (*NetMesh, error) {
	if p < 2 {
		return nil, fmt.Errorf("transport: mesh needs at least 2 parties, got %d", p)
	}
	o := applyOptions(opts)
	if o.trace != nil && o.trace.Parties() != p {
		return nil, fmt.Errorf("transport: tracer has %d party streams, mesh has %d", o.trace.Parties(), p)
	}
	m := &NetMesh{p: p, conns: make([]*netConn, p)}
	for i := 0; i < p; i++ {
		m.conns[i] = &netConn{mesh: m, id: i, links: make([]*link, p), tr: newConnTrace(o.trace, i)}
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if pair[i][j] == nil || peer[i][j] == nil {
				return nil, fmt.Errorf("transport: missing connection for pair (%d,%d)", i, j)
			}
			m.conns[i].links[j] = newLink(pair[i][j])
			m.conns[j].links[i] = newLink(peer[i][j])
		}
	}
	return m, nil
}

// NewTCPMesh listens on P loopback sockets, connects every party pair,
// and returns the assembled mesh. The handshake reuses the session
// layer's Hello frame so each accepted connection self-identifies.
// With WithDialRetry, transient dial failures are retried on the
// option's deterministic backoff schedule before the setup is abandoned.
func NewTCPMesh(p int, opts ...Option) (*NetMesh, error) {
	if p < 2 {
		return nil, fmt.Errorf("transport: mesh needs at least 2 parties, got %d", p)
	}
	o := applyOptions(opts)
	listeners := make([]net.Listener, p)
	defer func() {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("transport: listen for party %d: %w", i, err)
		}
		listeners[i] = ln
	}
	pair := make([][]net.Conn, p)
	peer := make([][]net.Conn, p)
	for i := range pair {
		pair[i] = make([]net.Conn, p)
		peer[i] = make([]net.Conn, p)
	}
	closeAll := func() {
		for i := range pair {
			for j := range pair[i] {
				if pair[i][j] != nil {
					pair[i][j].Close()
				}
				if peer[i][j] != nil {
					peer[i][j].Close()
				}
			}
		}
	}
	// Party j dials party i's listener for every i < j and announces its
	// id with a Hello frame; the accept side verifies it. Sequential
	// setup keeps the pairing deterministic.
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			dialed, err := dialRetry(o.dial, listeners[i].Addr().String())
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("transport: dial %d->%d: %w", j, i, err)
			}
			if err := protocol.WriteMessage(dialed, protocol.Message{Type: protocol.MsgHello, Session: uint32(j)}); err != nil {
				dialed.Close()
				closeAll()
				return nil, fmt.Errorf("transport: hello %d->%d: %w", j, i, err)
			}
			accepted, err := listeners[i].Accept()
			if err != nil {
				dialed.Close()
				closeAll()
				return nil, fmt.Errorf("transport: accept on party %d: %w", i, err)
			}
			hello, err := protocol.ReadMessage(accepted)
			if err != nil || hello.Type != protocol.MsgHello || hello.Session != uint32(j) {
				dialed.Close()
				accepted.Close()
				closeAll()
				return nil, fmt.Errorf("transport: bad hello on pair (%d,%d): %v", i, j, err)
			}
			pair[i][j] = accepted
			peer[i][j] = dialed
		}
	}
	return NewNetMesh(p, pair, peer, opts...)
}

// dialRetry dials addr under the given retry policy; the zero policy
// degenerates to a single plain net.Dial.
func dialRetry(p retry.Policy, addr string) (net.Conn, error) {
	var conn net.Conn
	err := p.Do(func(int) error {
		var err error
		conn, err = net.Dial("tcp", addr)
		return err
	})
	return conn, err
}

// Parties returns P.
func (m *NetMesh) Parties() int { return m.p }

// Conn returns party i's endpoint.
func (m *NetMesh) Conn(party int) PartyConn { return m.conns[party] }

// SetRecvTimeout applies a receive deadline to every endpoint.
func (m *NetMesh) SetRecvTimeout(d time.Duration) {
	for _, c := range m.conns {
		c.SetRecvTimeout(d)
	}
}

// Counters returns the cumulative traffic.
func (m *NetMesh) Counters() (frames, messages, bytes int64) {
	return m.frames.Load(), m.messages.Load(), m.bytes.Load()
}

// Close tears down every link.
func (m *NetMesh) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	for _, c := range m.conns {
		for _, l := range c.links {
			if l != nil {
				l.close()
			}
		}
	}
	return nil
}

func (c *netConn) ID() int      { return c.id }
func (c *netConn) Parties() int { return c.mesh.p }

// SetRecvTimeout bounds subsequent Recvs; safe from any goroutine.
func (c *netConn) SetRecvTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeout.Store(int64(d))
}

// Send frames the payload (version/MsgShare/sender-id/length) and hands
// it to the link's writer pump.
func (c *netConn) Send(to int, payload []byte) error { return c.SendN(to, payload, 1) }

// SendN sends one wire frame carrying msgs logical messages.
func (c *netConn) SendN(to int, payload []byte, msgs int) error {
	if to == c.id || to < 0 || to >= c.mesh.p {
		return fmt.Errorf("transport: party %d cannot send to %d", c.id, to)
	}
	if msgs < 1 {
		msgs = 1
	}
	l := c.links[to]
	if err, ok := l.werr.Load().(error); ok {
		return wrapClosed(err)
	}
	wire, lc := c.tr.stampSend(payload)
	frame := encodeShareFrame(uint32(c.id), wire)
	// Framing copied the wire bytes, so the wire buffer is dead — and
	// when tracing stamped a copy, so is the original payload
	// (transport-owned since the call). Untraced sends have wire ==
	// payload, recycled once.
	recycle(wire)
	if c.tr != nil {
		recycle(payload)
	}
	if err := l.out.push(frame); err != nil {
		return err
	}
	c.mesh.frames.Add(1)
	c.mesh.messages.Add(int64(msgs))
	c.mesh.bytes.Add(int64(len(payload)))
	c.tr.sent(lc, to, len(payload), msgs)
	return nil
}

// Recv reads the next frame from the pair connection and validates the
// sender id carried in the session field. Peer-teardown errors (EOF,
// reset, closed socket) are wrapped so errors.Is(err, ErrClosed) holds
// and deadline expiries so errors.Is(err, ErrTimeout) holds, matching
// the channel mesh's failure modes. A timeout that interrupts a frame
// mid-read desynchronizes this link; callers recovering from ErrTimeout
// should exclude the peer rather than keep reading from it.
func (c *netConn) Recv(from int) ([]byte, error) {
	if from == c.id || from < 0 || from >= c.mesh.p {
		return nil, fmt.Errorf("transport: party %d cannot receive from %d", c.id, from)
	}
	l := c.links[from]
	conn := l.conn
	if d := time.Duration(c.timeout.Load()); d > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(d))
	} else {
		_ = conn.SetReadDeadline(time.Time{})
	}
	m, rbuf, err := protocol.ReadMessageInto(conn, l.rbuf)
	l.rbuf = rbuf
	if err != nil {
		return nil, wrapFailure(err)
	}
	if m.Type != protocol.MsgShare {
		return nil, fmt.Errorf("transport: party %d expected share frame from %d, got %v", c.id, from, m.Type)
	}
	if m.Session != uint32(from) {
		return nil, fmt.Errorf("transport: party %d expected sender %d, frame claims %d", c.id, from, m.Session)
	}
	return c.tr.received(from, m.Payload), nil
}

// Close tears down this party's links, cascading EOFs to its peers.
func (c *netConn) Close() error {
	for _, l := range c.links {
		if l != nil {
			l.close()
		}
	}
	return nil
}

// encodeShareFrame builds one framed share message in a single
// pool-backed buffer so the writer pump issues one Write per frame and
// recycles the buffer afterwards.
func encodeShareFrame(sender uint32, payload []byte) []byte {
	buf := writerBuf(GetPayload(16 + len(payload))[:0])
	if err := protocol.WriteMessage(&buf, protocol.Message{Type: protocol.MsgShare, Session: sender, Payload: payload}); err != nil {
		panic(invariant.Violation("transport: framing failed: %v", err))
	}
	return buf
}

// writerBuf is a minimal io.Writer accumulating into a byte slice.
type writerBuf []byte

func (w *writerBuf) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}
