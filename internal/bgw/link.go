package bgw

import (
	"encoding/binary"
	"fmt"

	"sqm/internal/field"
	"sqm/internal/transport"
)

// link is how one party exchanges rows of field elements with its
// peers. Sends never block. A sent row must stay untouched until the
// peer has taken it, which the wire link meets by encoding at once and
// the in-memory link by the inline driver's lockstep (every party
// sends, then every party receives, before anyone shares again).
type link interface {
	send(to int, row []field.Elem) error
	// recv takes the next row from the peer, which must hold n elements.
	// The row is read-only and valid until the next receive on the link.
	recv(from, n int) ([]field.Elem, error)
	// recvInto takes the next row from the peer, which must hold
	// len(dst) elements, into dst: for a row the caller keeps.
	recvInto(from int, dst []field.Elem) error
	// close tears this party's end down so that peers waiting on it
	// fail instead of hanging.
	close()
}

// wireLink frames rows over a transport endpoint: 8 big-endian bytes
// per element in a pooled payload the transport owns after the send.
// Received payloads are decoded — into dec, or into the caller's row —
// before the next Recv, per the transport ownership rule.
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

func (l *wireLink) recv(from, n int) ([]field.Elem, error) {
	l.dec = growElems(l.dec, n)
	return l.dec, l.recvInto(from, l.dec)
}

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

// memHub is the exchange of the inline driver's parties: one mailbox
// per ordered pair, and the traffic counters a mesh would keep — one
// frame, len(row) messages and 8 bytes per element for every send.
type memHub struct {
	p                   int
	box                 []memRow // box[from*p+to]
	frames, msgs, bytes int64
}

type memRow struct {
	row  []field.Elem
	full bool
}

// memLink is one party's end of a memHub. It hands the sender's row
// over by reference.
type memLink struct {
	hub *memHub
	id  int
}

func (l memLink) send(to int, row []field.Elem) error {
	h := l.hub
	h.box[l.id*h.p+to] = memRow{row: row, full: true}
	h.frames++
	h.msgs += int64(len(row))
	h.bytes += 8 * int64(len(row))
	return nil
}

func (l memLink) recv(from, n int) ([]field.Elem, error) {
	slot := &l.hub.box[from*l.hub.p+l.id]
	got := *slot
	*slot = memRow{}
	if !got.full {
		return nil, fmt.Errorf("no row from party %d", from)
	}
	if len(got.row) != n {
		return nil, fmt.Errorf("bad row from party %d: %d values for %d", from, len(got.row), n)
	}
	return got.row, nil
}

func (l memLink) recvInto(from int, dst []field.Elem) error {
	row, err := l.recv(from, len(dst))
	copy(dst, row)
	return err
}

// close is a no-op: a failed party sends nothing more, so its peers'
// next recv finds the mailbox empty.
func (l memLink) close() {}
