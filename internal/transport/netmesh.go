package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

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
	out  queue[[]byte]
	// rbuf is the link's receive buffer, reused across frames whenever
	// the payload fits; it starts as rfirst, which holds a header. Only
	// the owning party goroutine reads this link, so no lock is needed;
	// the Recv contract makes the previous frame dead before the next
	// read.
	rbuf   []byte
	rfirst [protocol.HeaderLen]byte
	// The writer pump's own: the header it frames every payload with
	// (type MsgShare, session = the sender's id) and the two buffers of
	// the writev that sends header and payload together.
	sender uint32
	hdr    [protocol.HeaderLen]byte
	iov    [2][]byte
	bufs   net.Buffers
	wg     sync.WaitGroup
	werr   atomic.Value // error from the writer pump, if any
	shut   sync.Once    // close runs once: the mesh and the endpoint both close a link
}

// start readies a zero link in place over conn, for party sender's end,
// and starts its writer pump; the link must not move after.
func (l *link) start(conn net.Conn, sender int) {
	l.conn, l.sender = conn, uint32(sender)
	l.out.init()
	l.rbuf = l.rfirst[:0]
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			b, err := l.out.pop()
			if err != nil {
				return
			}
			werr := l.write(b)
			// The payload (drawn from GetPayload, or the trace-stamped
			// copy of one) is dead once written.
			recycle(b)
			if werr != nil {
				l.werr.Store(werr)
				l.out.close()
				return
			}
		}
	}()
}

// write sends one frame, header and payload, in one writev: no framed
// copy of the payload is made.
func (l *link) write(payload []byte) error {
	hdr := protocol.AppendHeader(l.hdr[:0], protocol.MsgShare, l.sender, len(payload))
	l.bufs = append(l.iov[:0], hdr, payload)
	_, err := l.bufs.WriteTo(l.conn)
	return err
}

// close stops the writer pump and closes the connection; a second call
// waits for the first and costs nothing more.
func (l *link) close() {
	l.shut.Do(func() {
		l.out.close()
		l.conn.Close()
		l.wg.Wait()
	})
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
	// Every link of the mesh lives in one array.
	links := make([]link, p*(p-1))
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if pair[i][j] == nil || peer[i][j] == nil {
				return nil, fmt.Errorf("transport: missing connection for pair (%d,%d)", i, j)
			}
			ij, ji := &links[0], &links[1]
			links = links[2:]
			ij.start(pair[i][j], i)
			ji.start(peer[i][j], j)
			m.conns[i].links[j], m.conns[j].links[i] = ij, ji
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
	// setup keeps the pairing deterministic. One buffer frames and reads
	// every Hello.
	hello := make([]byte, 0, protocol.HeaderLen)
	for i := 0; i < p; i++ {
		addr := listeners[i].Addr().(*net.TCPAddr)
		for j := i + 1; j < p; j++ {
			dialed, err := dialRetry(o.dial, addr)
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("transport: dial %d->%d: %w", j, i, err)
			}
			if _, err := dialed.Write(protocol.AppendHeader(hello[:0], protocol.MsgHello, uint32(j), 0)); err != nil {
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
			var m protocol.Message
			m, hello, err = protocol.ReadMessageInto(accepted, hello)
			if err != nil || m.Type != protocol.MsgHello || m.Session != uint32(j) {
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
// degenerates to a single plain dial. The address is resolved already,
// so a dial does not go through the resolver.
func dialRetry(p retry.Policy, addr *net.TCPAddr) (net.Conn, error) {
	var conn net.Conn
	err := p.Do(func(int) error {
		c, err := net.DialTCP("tcp", nil, addr)
		if err != nil {
			return err
		}
		conn = c
		return nil
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

// Send hands the payload to the link's writer pump, which frames it
// (version/MsgShare/sender-id/length) as it writes it.
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
	// When tracing stamped a copy, the original payload (transport-owned
	// since the call) is dead; the writer pump recycles the wire buffer
	// once it is written.
	if c.tr != nil {
		recycle(payload)
	}
	if len(wire) > protocol.MaxPayload {
		recycle(wire)
		return protocol.ErrFrameTooLarge
	}
	if err := l.out.push(wire); err != nil {
		recycle(wire)
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
