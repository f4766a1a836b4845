package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sqm/internal/invariant"
)

// ChanMesh is the in-memory fast path: each directed pair of parties owns an
// unbounded FIFO queue guarded by a mutex and condition variable. Sends
// append and never block; receives pop in order. All state is owned by
// the queue locks, so the mesh is race-clean under `go test -race` and
// delivery is deterministic per pair.
type ChanMesh struct {
	p        int
	queues   []queue[[]byte] // queues[from*p+to]
	conns    []chanConn
	frames   atomic.Int64
	messages atomic.Int64
	bytes    atomic.Int64
	closed   atomic.Bool
}

// queue is the transport's one unbounded FIFO with close semantics:
// a ChanMesh link, a TCP link's writer pump and a FaultMesh link's
// frames in flight. items[head:] are waiting; a pop clears the slot it
// takes, so a delivered item is the receiver's alone, and a queue
// drained empty starts over at the front of the same array, so steady
// bursts reuse it instead of regrowing it. A closed queue refuses
// pushes but still delivers what it holds before it reports ErrClosed.
//
// A queue is one allocation until it holds more than queueBurst items:
// its condition variable and its first array are part of it.
type queue[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []T
	head   int
	closed bool
	first  [queueBurst]T
}

// queueBurst is the length of a queue's first array: the rows one
// dealing link carries in an input round of a P = 4 covariance of 120
// columns, 30 of them.
const queueBurst = 32

func newQueue[T any]() *queue[T] {
	q := new(queue[T])
	q.init()
	return q
}

// init readies a zero queue in place; it must not move after.
func (q *queue[T]) init() {
	q.cond.L = &q.mu
	q.items = q.first[:0]
}

func (q *queue[T]) push(b T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.items) == cap(q.items) {
		if q.head > 0 {
			// Full with taken slots at the front: move the waiting items
			// down rather than grow.
			n := copy(q.items, q.items[q.head:])
			clear(q.items[n:])
			q.items, q.head = q.items[:n], 0
		} else {
			// Grow here rather than in append, so that the array left
			// behind (the first array, say) keeps no item alive.
			grown := make([]T, len(q.items), 2*cap(q.items))
			copy(grown, q.items)
			clear(q.items)
			q.items = grown
		}
	}
	q.items = append(q.items, b)
	q.cond.Signal()
	return nil
}

func (q *queue[T]) pop() (T, error) { return q.popWait(0) }

// popWait pops the next item, waiting at most d (d <= 0 waits forever).
// A message that is already queued when the deadline passes is still
// delivered: timeout only fires on a genuinely empty queue, and only a
// wait on one arms the deadline, so a pop that finds an item costs no
// timer.
func (q *queue[T]) popWait(d time.Duration) (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	var deadline time.Time
	for q.head == len(q.items) && !q.closed {
		if d > 0 {
			if deadline.IsZero() {
				// The condition variable has no timed wait; an AfterFunc
				// broadcast wakes the waiters so the loop can re-check
				// the clock.
				deadline = time.Now().Add(d)
				t := time.AfterFunc(d, func() {
					q.mu.Lock()
					q.cond.Broadcast()
					q.mu.Unlock()
				})
				defer t.Stop()
			} else if !time.Now().Before(deadline) {
				return zero, ErrTimeout
			}
		}
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return zero, ErrClosed
	}
	b := q.items[q.head]
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return b, nil
}

func (q *queue[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// NewChanMesh builds a fully connected in-memory mesh of p parties.
func NewChanMesh(p int, opts ...Option) *ChanMesh {
	if p < 2 {
		panic(invariant.Violation("transport: mesh needs at least 2 parties, got %d", p))
	}
	o := applyOptions(opts)
	if o.trace != nil && o.trace.Parties() != p {
		panic(invariant.Violation("transport: tracer has %d party streams, mesh has %d", o.trace.Parties(), p))
	}
	// Every per-party object is one array: the queues, the endpoints and
	// the endpoints' held frames, so building a mesh costs the same
	// allocations whatever p.
	m := &ChanMesh{p: p, queues: make([]queue[[]byte], p*p), conns: make([]chanConn, p)}
	for i := range m.queues {
		m.queues[i].init()
	}
	prev := make([][]byte, p*p)
	for i := range m.conns {
		m.conns[i] = chanConn{mesh: m, id: i, tr: newConnTrace(o.trace, i), prev: prev[i*p : (i+1)*p : (i+1)*p]}
	}
	return m
}

// queueOf is the link from party from to party to.
func (m *ChanMesh) queueOf(from, to int) *queue[[]byte] { return &m.queues[from*m.p+to] }

// Parties returns P.
func (m *ChanMesh) Parties() int { return m.p }

// Conn returns party i's endpoint.
func (m *ChanMesh) Conn(party int) PartyConn { return &m.conns[party] }

// SetRecvTimeout applies a receive deadline to every endpoint.
func (m *ChanMesh) SetRecvTimeout(d time.Duration) {
	for i := range m.conns {
		m.conns[i].SetRecvTimeout(d)
	}
}

// Counters returns the cumulative traffic.
func (m *ChanMesh) Counters() (frames, messages, bytes int64) {
	return m.frames.Load(), m.messages.Load(), m.bytes.Load()
}

// Close wakes every blocked receiver with ErrClosed. It leaves the
// frames the endpoints hold alone: a party may still be decoding one,
// and its own endpoint's Close hands them back.
func (m *ChanMesh) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	for i := range m.queues {
		m.queues[i].close()
	}
	return nil
}

// chanConn is one party's endpoint of a ChanMesh.
type chanConn struct {
	mesh *ChanMesh
	id   int
	tr   *connTrace // nil when tracing is disabled
	// prev[from] is the wire buffer of the last frame received from
	// that peer. The Recv contract makes it dead once the next Recv
	// from the same peer is issued, so that call recycles it, and Close
	// recycles every one still held. Only the owning party goroutine
	// touches it.
	prev    [][]byte
	timeout atomic.Int64 // receive deadline in nanoseconds; 0 blocks forever
}

func (c *chanConn) ID() int      { return c.id }
func (c *chanConn) Parties() int { return c.mesh.p }

// SetRecvTimeout bounds subsequent Recvs; safe from any goroutine.
func (c *chanConn) SetRecvTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeout.Store(int64(d))
}

func (c *chanConn) Send(to int, payload []byte) error { return c.SendN(to, payload, 1) }

// SendN enqueues one frame carrying msgs logical messages.
func (c *chanConn) SendN(to int, payload []byte, msgs int) error {
	if to == c.id || to < 0 || to >= c.mesh.p {
		return fmt.Errorf("transport: party %d cannot send to %d", c.id, to)
	}
	if msgs < 1 {
		msgs = 1
	}
	wire, lc := c.tr.stampSend(payload)
	if err := c.mesh.queueOf(c.id, to).push(wire); err != nil {
		return err
	}
	if c.tr != nil {
		// Stamping copied the payload into the wire buffer; the
		// original — transport-owned since the call — is already dead.
		recycle(payload)
	}
	c.mesh.frames.Add(1)
	c.mesh.messages.Add(int64(msgs))
	c.mesh.bytes.Add(int64(len(payload)))
	c.tr.sent(lc, to, len(payload), msgs)
	return nil
}

func (c *chanConn) Recv(from int) ([]byte, error) {
	if from == c.id || from < 0 || from >= c.mesh.p {
		return nil, fmt.Errorf("transport: party %d cannot receive from %d", c.id, from)
	}
	b, err := c.mesh.queueOf(from, c.id).popWait(time.Duration(c.timeout.Load()))
	if err != nil {
		return nil, err
	}
	// The previous frame from this peer is dead by the Recv contract;
	// recycle its wire buffer before stashing the new one (stashed whole,
	// before the trace header is stripped).
	recycle(c.prev[from])
	c.prev[from] = b
	return c.tr.received(from, b), nil
}

// Close tears down every queue touching this party, so peers blocked on
// its traffic fail fast instead of hanging — the abort path of a party
// that died mid-round — and hands the frames it still holds back to the
// free list: a mesh lives for one session and never sees the Recv that
// would recycle the last frame from each peer. Like Recv it belongs to
// the owning goroutine, which must be done with every received payload.
func (c *chanConn) Close() error {
	for other := 0; other < c.mesh.p; other++ {
		if other == c.id {
			continue
		}
		c.mesh.queueOf(c.id, other).close()
		c.mesh.queueOf(other, c.id).close()
		recycle(c.prev[other])
		c.prev[other] = nil
	}
	return nil
}
