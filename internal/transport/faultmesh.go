package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"sqm/internal/invariant"
	"sqm/internal/obs"
	"sqm/internal/randx"
)

// LinkFault describes the faults injected on one directed link.
type LinkFault struct {
	// Delay is added to every delivery on the link: a frame reaches the
	// wrapped mesh at its send time plus Delay. It is applied on the
	// send side by a per-link forwarder, so senders stay non-blocking,
	// per-pair FIFO order is preserved, frames sent back to back are in
	// flight together, and the receiver's deadline machinery observes
	// the delay as genuine in-flight latency.
	Delay time.Duration
	// DropProb drops each message independently with this probability,
	// drawn from a per-link stream seeded by the profile — the drop
	// pattern is a pure function of (seed, link, message index), so a
	// chaos run replays identically.
	DropProb float64
	// CutAfter black-holes the link after this many accepted messages
	// (0 means never): deliveries 1..CutAfter go through, everything
	// after silently vanishes, exactly like a dead route. The sender
	// keeps succeeding — only the receiver's deadline can notice.
	CutAfter int
}

// FaultProfile scripts a FaultMesh. The zero profile injects nothing.
type FaultProfile struct {
	// Seed keys every per-link drop stream.
	Seed uint64
	// All is the baseline fault applied to every directed link.
	All LinkFault
	// Links overrides the baseline per directed link, keyed [from, to].
	Links map[[2]int]LinkFault
	// CrashAfterSends kills a party after it has had this many sends
	// accepted (counted across all its links): the crashing send and
	// everything after fail with ErrClosed and the party's endpoint is
	// torn down, cascading failures to peers blocked on its traffic.
	// Scripted mid-session kills use FaultMesh.Crash instead.
	CrashAfterSends map[int]int
}

// FaultStats counts the faults a FaultMesh actually injected.
type FaultStats struct {
	Drops   int64 // messages dropped (DropProb)
	Cuts    int64 // messages black-holed behind a cut link
	Delays  int64 // messages delivered late (Delay)
	Crashes int64 // parties crashed (CrashAfterSends or Crash)
}

// FaultMesh decorates any Mesh with deterministic, seeded fault
// injection: per-link delay, probabilistic drop, link cut after N
// messages, and party crash — the test double that exercises every
// abort path (recv deadlines, dial retry, a closed peer) in ordinary
// unit tests. Fault decisions depend only
// on the profile and per-link message indices, never on wall-clock or
// goroutine interleaving, so a failing chaos run reproduces from its
// seed.
type FaultMesh struct {
	inner   Mesh
	profile FaultProfile
	conns   []*faultConn
	stats   struct{ drops, cuts, delays, crashes atomic.Int64 }
	closed  atomic.Bool
}

// NewFaultMesh wraps inner with the scripted faults. Pass WithTracer to
// record the injected faults (drop, cut, delay, crash) as warn/debug
// events on the affected party's flight-recorder stream; the tracer is
// normally the same context the inner mesh was built with, so fault
// events interleave with the send/recv events they explain.
func NewFaultMesh(inner Mesh, profile FaultProfile, opts ...Option) *FaultMesh {
	p := inner.Parties()
	o := applyOptions(opts)
	m := &FaultMesh{inner: inner, profile: profile, conns: make([]*faultConn, p)}
	for i := 0; i < p; i++ {
		fc := &faultConn{mesh: m, id: i, inner: inner.Conn(i), links: make([]*faultLink, p), tr: newConnTrace(o.trace, i)}
		crashAfter := 0
		if profile.CrashAfterSends != nil {
			crashAfter = profile.CrashAfterSends[i]
		}
		fc.crashAfter = crashAfter
		for j := 0; j < p; j++ {
			if j == i {
				continue
			}
			lf := profile.All
			if over, ok := profile.Links[[2]int{i, j}]; ok {
				lf = over
			}
			fl := &faultLink{fault: lf}
			if lf.DropProb > 0 {
				fl.rng = randx.New(profile.Seed ^ 0xfa417 ^ uint64(i)<<16 ^ uint64(j))
			}
			if lf.Delay > 0 {
				fl.start(fc.inner, j, m)
			}
			fc.links[j] = fl
		}
		m.conns[i] = fc
	}
	return m
}

// Parties returns P.
func (m *FaultMesh) Parties() int { return m.inner.Parties() }

// Conn returns party i's fault-injecting endpoint.
func (m *FaultMesh) Conn(party int) PartyConn { return m.conns[party] }

// SetRecvTimeout applies a receive deadline to every endpoint of the
// wrapped mesh.
func (m *FaultMesh) SetRecvTimeout(d time.Duration) { m.inner.SetRecvTimeout(d) }

// Counters returns the wrapped mesh's traffic counters (frames that
// were dropped or cut never reach the inner mesh and are not counted).
func (m *FaultMesh) Counters() (frames, messages, bytes int64) { return m.inner.Counters() }

// Injected reports the faults injected so far.
func (m *FaultMesh) Injected() FaultStats {
	return FaultStats{
		Drops:   m.stats.drops.Load(),
		Cuts:    m.stats.cuts.Load(),
		Delays:  m.stats.delays.Load(),
		Crashes: m.stats.crashes.Load(),
	}
}

// Crash kills party i now: its endpoint is torn down, its pending
// delayed deliveries are discarded, and every subsequent operation on
// its conn fails with ErrClosed. Peers blocked on its traffic fail
// (ErrClosed) or time out, which is the signal the engine aborts on.
// Idempotent. Closing the endpoint hands back the frames it holds, so
// call Crash from party i's goroutine or while party i is not inside a
// Recv, as PartyConn.Close.
func (m *FaultMesh) Crash(party int) {
	if party < 0 || party >= len(m.conns) {
		panic(invariant.Violation("transport: crash of party %d out of range [0,%d)", party, len(m.conns)))
	}
	m.conns[party].crash()
}

// Close tears down the delay forwarders and the wrapped mesh.
func (m *FaultMesh) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	for _, c := range m.conns {
		c.stopLinks()
	}
	return m.inner.Close()
}

// faultLink is the per-directed-link fault state. Only the owning
// sender goroutine touches sent/delivered/rng; the delay queue has its
// own locking.
type faultLink struct {
	fault     LinkFault
	rng       *randx.RNG       // drop stream; nil when DropProb == 0
	delivered int              // messages accepted for delivery (cut accounting)
	delay     *queue[inFlight] // frames in flight; nil when Delay == 0
	wg        sync.WaitGroup
}

// inFlight is one delayed frame: its payload, its logical message
// count and the time it is due at the wrapped mesh.
type inFlight struct {
	payload []byte
	msgs    int
	due     time.Time
}

// start launches the FIFO delay forwarder for the link towards peer to:
// it hands each frame to the wrapped mesh at the frame's due time.
func (l *faultLink) start(inner PartyConn, to int, m *FaultMesh) {
	l.delay = newQueue[inFlight]()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			f, err := l.delay.pop()
			if err != nil {
				return // closed and drained
			}
			time.Sleep(time.Until(f.due))
			m.stats.delays.Add(1)
			if inner.SendN(to, f.payload, f.msgs) != nil {
				// The receiver (or this sender) died; later queued
				// deliveries will fail the same way — keep draining so
				// close() does not hang.
				continue
			}
		}
	}()
}

func (l *faultLink) stop() {
	if l.delay != nil {
		l.delay.close()
		l.wg.Wait()
	}
}

// faultConn is one party's fault-injecting endpoint.
type faultConn struct {
	mesh       *FaultMesh
	id         int
	inner      PartyConn
	links      []*faultLink
	tr         *connTrace // nil when tracing is disabled
	sends      int        // accepted sends across all links (crash accounting)
	crashAfter int        // profile budget; 0 means never
	crashed    atomic.Bool
}

func (c *faultConn) ID() int      { return c.id }
func (c *faultConn) Parties() int { return c.inner.Parties() }

// SetRecvTimeout forwards to the wrapped endpoint.
func (c *faultConn) SetRecvTimeout(d time.Duration) { c.inner.SetRecvTimeout(d) }

// Send applies the scripted faults in order: crash (the party is gone),
// cut (the route is gone), drop (this message is gone), delay (the
// message is late), and otherwise forwards to the wrapped endpoint.
func (c *faultConn) Send(to int, payload []byte) error { return c.SendN(to, payload, 1) }

// SendN applies the same fault script to one frame of msgs logical
// messages; injected faults act on whole frames.
func (c *faultConn) SendN(to int, payload []byte, msgs int) error {
	if c.crashed.Load() {
		return ErrClosed
	}
	if c.crashAfter > 0 && c.sends >= c.crashAfter {
		c.crash()
		return ErrClosed
	}
	c.sends++
	l := c.links[to]
	if l == nil {
		// Self/out-of-range sends: let the inner mesh report them.
		return c.inner.SendN(to, payload, msgs)
	}
	if l.fault.CutAfter > 0 && l.delivered >= l.fault.CutAfter {
		c.mesh.stats.cuts.Add(1)
		c.tr.fault(obs.LevelWarn, "transport.fault.cut", obs.Int("peer", to), obs.Int("bytes", len(payload)))
		return nil
	}
	if l.rng != nil && l.rng.Float64() < l.fault.DropProb {
		c.mesh.stats.drops.Add(1)
		c.tr.fault(obs.LevelWarn, "transport.fault.drop", obs.Int("peer", to), obs.Int("bytes", len(payload)))
		return nil
	}
	l.delivered++
	if l.delay != nil {
		c.tr.fault(obs.LevelDebug, "transport.fault.delay",
			obs.Int("peer", to), obs.Duration("delay", l.fault.Delay))
		return l.delay.push(inFlight{payload, msgs, time.Now().Add(l.fault.Delay)})
	}
	return c.inner.SendN(to, payload, msgs)
}

// Recv forwards to the wrapped endpoint; a crashed party only sees
// ErrClosed.
func (c *faultConn) Recv(from int) ([]byte, error) {
	if c.crashed.Load() {
		return nil, ErrClosed
	}
	return c.inner.Recv(from)
}

// Close tears down the wrapped endpoint (a graceful local close, not a
// scripted crash — injected-fault stats are untouched).
func (c *faultConn) Close() error {
	c.stopLinks()
	return c.inner.Close()
}

func (c *faultConn) crash() {
	if c.crashed.Swap(true) {
		return
	}
	c.mesh.stats.crashes.Add(1)
	c.tr.fault(obs.LevelWarn, "transport.fault.crash", obs.Int("sends", c.sends))
	c.stopLinks()
	_ = c.inner.Close()
}

func (c *faultConn) stopLinks() {
	for _, l := range c.links {
		if l != nil {
			l.stop()
		}
	}
}
