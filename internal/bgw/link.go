package bgw

import (
	"encoding/binary"
	"fmt"

	"sqm/internal/chunk"
	"sqm/internal/field"
	"sqm/internal/transport"
)

// link is how one party exchanges rows of field elements with its
// peers. Sends never block, and the rows of one ordered pair arrive in
// the order they were sent. A row comes in two kinds. A sent row is the
// peer's to read until its next receive, so the sender must leave it
// untouched until then, which the wire link meets by encoding at once
// and the in-memory link by the inline driver's lockstep (every party
// sends, then every party receives, before anyone sends again). A dealt
// row — an input sharing's — the sender may overwrite at once: an
// owner deals every vector of an input round before any peer receives,
// so the in-memory link hands the peer a copy, which the peer may keep.
type link interface {
	send(to int, row []field.Elem) error
	deal(to int, row []field.Elem) error
	// recv takes the next row from the peer, which must hold n elements.
	// The row is read-only and valid until the next receive on the link.
	recv(from, n int) ([]field.Elem, error)
	// take takes the next row from the peer, a dealt one of n elements,
	// as a row the caller keeps: decoded into dst, n elements the caller
	// set aside, or, on a link whose deal already hands the peer a copy
	// (dealtCopies), that copy, with dst nil.
	take(from, n int, dst []field.Elem) ([]field.Elem, error)
	// dealtCopies reports whether take returns copies deal made, so that
	// the caller sets no memory aside for a taken row.
	dealtCopies() bool
	// close tears this party's end down so that peers waiting on it
	// fail instead of hanging.
	close()
}

// wireLink frames rows over a transport endpoint: 8 big-endian bytes
// per element in a pooled payload the transport owns after the send.
// Received payloads are decoded — into dec, or into a row the caller
// keeps — before the next Recv, per the transport ownership rule.
type wireLink struct {
	conn transport.PartyConn
	dec  []field.Elem
}

func (l *wireLink) send(to int, row []field.Elem) error {
	buf := transport.GetPayload(8 * len(row))
	for k, s := range row {
		putElem(buf[8*k:], s)
	}
	return l.conn.SendN(to, buf, len(row))
}

// deal is send: the row is encoded before SendN returns.
func (l *wireLink) deal(to int, row []field.Elem) error { return l.send(to, row) }

func (l *wireLink) recv(from, n int) ([]field.Elem, error) {
	l.dec = growElems(l.dec, n)
	return l.dec, l.recvInto(from, l.dec)
}

// take decodes into dst, which the caller made before it waits, so the
// decode follows the frame's arrival at once.
func (l *wireLink) take(from, n int, dst []field.Elem) ([]field.Elem, error) {
	if err := l.recvInto(from, dst[:n]); err != nil {
		return nil, err
	}
	return dst, nil
}

func (l *wireLink) dealtCopies() bool { return false }

func (l *wireLink) recvInto(from int, dst []field.Elem) error {
	buf, err := l.conn.Recv(from)
	if err != nil {
		return err
	}
	if len(buf) != 8*len(dst) {
		return fmt.Errorf("bad payload from party %d: %d bytes for %d values", from, len(buf), len(dst))
	}
	for k := range dst {
		dst[k] = getElem(buf[8*k:])
	}
	return nil
}

func (l *wireLink) close() { l.conn.Close() }

func putElem(b []byte, e field.Elem) { binary.BigEndian.PutUint64(b, uint64(e)) }

func getElem(b []byte) field.Elem { return field.Elem(binary.BigEndian.Uint64(b)) }

// memHub is the exchange of the inline driver's parties: one FIFO of
// rows per ordered pair, and the traffic counters a mesh would keep —
// one frame, len(row) messages and 8 bytes per element for every send.
type memHub struct {
	p                   int
	box                 []memQueue // box[from*p+to]
	frames, msgs, bytes int64
	// dealt holds the copies deal makes, queued the queues' arrays, and
	// owns an input round's vectors per dealer (reserveRound).
	dealt  chunk.Arena[field.Elem]
	queued chunk.Arena[[]field.Elem]
	owns   []int
}

func newMemHub(p int) *memHub {
	return &memHub{p: p, box: make([]memQueue, p*p), owns: make([]int, p)}
}

// reserveRound sets aside what dealing the input round vecs puts on the
// hub, so that the round costs it two allocations whatever its size: one
// array for the copies deal makes — every vector to each of its
// dealer's unseeded peers — and one for the arrays of the queues that
// have no room yet for a row per vector of their dealer. The queues keep
// that room for later commands.
func (h *memHub) reserveRound(vecs []vecInput, unseeded int) {
	clear(h.owns)
	elems := 0
	for _, in := range vecs {
		h.owns[in.owner]++
		elems += len(in.elems)
	}
	h.dealt.Reserve(unseeded * elems)
	// short is how many rows queue i needs room for: 0 when it has it
	// already, or is a party's queue to itself, or still holds rows.
	short := func(i int) int {
		q, from := &h.box[i], i/h.p
		if from == i%h.p || len(q.rows) > 0 || cap(q.rows) >= h.owns[from] {
			return 0
		}
		return h.owns[from]
	}
	rows := 0
	for i := range h.box {
		rows += short(i)
	}
	h.queued.Reserve(rows)
	for i := range h.box {
		if k := short(i); k > 0 {
			h.box[i].rows = h.queued.Take(k)[:0]
		}
	}
}

// memQueue is one ordered pair's rows in send order, rows[head] the next
// to take. Every command receives what it sends, so a queue is empty
// between commands and starts over in the same memory.
type memQueue struct {
	rows [][]field.Elem
	head int
}

// memLink is one party's end of a memHub. It hands a sent row over by
// reference and a dealt one as a copy, carved from the hub's dealt.
type memLink struct {
	hub *memHub
	id  int
}

func (l memLink) send(to int, row []field.Elem) error {
	h := l.hub
	q := &h.box[l.id*h.p+to]
	q.rows = append(q.rows, row)
	h.frames++
	h.msgs += int64(len(row))
	h.bytes += 8 * int64(len(row))
	return nil
}

func (l memLink) deal(to int, row []field.Elem) error {
	return l.send(to, l.hub.dealt.Clone(row))
}

func (l memLink) recv(from, n int) ([]field.Elem, error) {
	q := &l.hub.box[from*l.hub.p+l.id]
	if q.head == len(q.rows) {
		return nil, fmt.Errorf("no row from party %d", from)
	}
	row := q.rows[q.head]
	q.rows[q.head] = nil
	if q.head++; q.head == len(q.rows) {
		q.rows, q.head = q.rows[:0], 0
	}
	if len(row) != n {
		return nil, fmt.Errorf("bad row from party %d: %d values for %d", from, len(row), n)
	}
	return row, nil
}

// take is recv: a dealt row is the peer's copy already.
func (l memLink) take(from, n int, _ []field.Elem) ([]field.Elem, error) { return l.recv(from, n) }

func (l memLink) dealtCopies() bool { return true }

// close is a no-op: a failed party sends nothing more, so its peers'
// next recv finds its queue empty.
func (l memLink) close() {}
