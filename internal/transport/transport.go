// Package transport abstracts the message fabric the BGW party actors
// communicate over. Every BGW multiplication is a resharing *round*
// between distrusting parties, so the share traffic itself must be able
// to flow over a pluggable medium: an in-memory channel mesh for
// simulation (fast, deterministic, race-clean) and a TCP mesh speaking
// internal/protocol's length-prefixed frames for deployments.
//
// A Mesh is a set of P pairwise-connected endpoints; party i drives its
// PartyConn from its own goroutine. Sends never block the sender (each
// directed pair has an unbounded FIFO queue), which is what makes the
// all-send-then-all-receive pattern of a resharing round deadlock-free
// regardless of how far ahead one party has run. Receives block until a
// message from the named peer arrives, the connection dies (ErrClosed),
// or the endpoint's receive deadline expires (ErrTimeout).
//
// Failure semantics are uniform across implementations: peer-teardown
// errors satisfy errors.Is(err, ErrClosed) and deadline expiries satisfy
// errors.Is(err, ErrTimeout) on every mesh, so the code that aborts a
// session never needs to know which fabric it runs over.
// NewFaultMesh wraps any Mesh with seeded, reproducible fault injection
// (delay, drop, link cut, party crash) for fault testing.
//
// A mesh carries opaque payloads and nothing else: what a frame holds,
// what it costs and how it is traced are the sender's and the receiver's
// business (internal/bgw's link counts its frames and stamps its trace
// header into the payload it encodes).
package transport

import (
	"errors"
	"time"
)

// ErrClosed reports an operation on a closed mesh or connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrTimeout reports a Recv whose deadline expired before a message
// from the requested peer arrived. The connection itself stays usable
// for the channel mesh; for socket meshes a timeout that interrupts a
// partially read frame desynchronizes that link, so callers treat a
// timed-out peer as lost and abort rather than resume reading from it.
var ErrTimeout = errors.New("transport: receive deadline exceeded")

// PartyConn is one party's endpoint in a P-party mesh. It is driven by
// exactly one goroutine (the owning party actor); implementations need
// not support concurrent Send/Recv from multiple goroutines of the same
// party, but different parties always operate concurrently.
// SetRecvTimeout is the one exception: it is safe to call from any
// goroutine (the mesh-wide deadline broadcast).
type PartyConn interface {
	// ID returns this endpoint's party index in [0, Parties()).
	ID() int
	// Parties returns P.
	Parties() int
	// Send enqueues payload for party to. It never blocks on the
	// receiver and must not be called with to == ID(). The payload is
	// owned by the transport after the call: a payload drawn from
	// GetPayload goes back to the free list once the frame is dead (at
	// the next Recv from the sender on a ChanMesh, once written on a TCP
	// mesh), so a frame allocates nothing. That holds when Send fails
	// too: a refused, dropped or cut frame's payload goes back to the
	// free list as well.
	Send(to int, payload []byte) error
	// SendN is Send. msgs is not read: the sender counts its own
	// messages. The method stays because the benchmark's timed mesh
	// overrides it.
	SendN(to int, payload []byte, msgs int) error
	// Recv blocks until the next payload from party from arrives.
	// Messages from one sender are delivered in send order (per-pair
	// FIFO); ordering across senders is unspecified. When a receive
	// deadline is set and expires first, Recv fails with an error
	// satisfying errors.Is(err, ErrTimeout).
	//
	// Ownership: the returned slice is only valid until the next Recv
	// from the same peer or the endpoint's Close — on that call a
	// ChanMesh hands the buffer back to the free list and a TCP link
	// reads the next frame into it.
	// Callers must decode or copy the payload before receiving from that
	// peer again.
	Recv(from int) ([]byte, error)
	// SetRecvTimeout bounds every subsequent Recv on this endpoint:
	// when no message from the requested peer arrives within d, Recv
	// fails with ErrTimeout instead of blocking forever. d <= 0
	// restores unbounded blocking receives (the default).
	SetRecvTimeout(d time.Duration)
	// Close tears down this endpoint; pending and future Recvs on any
	// party blocked on this endpoint's traffic fail with an error
	// satisfying errors.Is(err, ErrClosed). It also ends the validity of
	// every payload Recv returned (a ChanMesh hands those buffers back),
	// so, like Recv, it belongs to the endpoint's goroutine.
	Close() error
}

// Mesh is a set of P pairwise-connected party endpoints. It carries
// bytes and counts none: protocol statistics are the senders' own.
type Mesh interface {
	// Parties returns P.
	Parties() int
	// Conn returns party i's endpoint.
	Conn(party int) PartyConn
	// SetRecvTimeout applies a receive deadline to every endpoint (see
	// PartyConn.SetRecvTimeout).
	SetRecvTimeout(d time.Duration)
	// Close tears down every endpoint.
	Close() error
}
