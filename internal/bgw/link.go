package bgw

import (
	"encoding/binary"
	"fmt"

	"sqm/internal/field"
	"sqm/internal/transport"
)

// wireLink is how one party exchanges rows of field elements with its
// peers: it frames rows over a transport endpoint, 8 big-endian bytes per
// element in a pooled payload the transport owns after the send. Sends
// never block, the rows of one ordered pair arrive in the order they were
// sent, and a row is encoded before send returns, so the sender may
// overwrite it at once. Received payloads are decoded — into dec, or into
// a row the caller keeps — before the next Recv, per the transport
// ownership rule.
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

// recv takes the next row from the peer, which must hold n elements. The
// row is read-only and valid until the next recv on the link.
func (l *wireLink) recv(from, n int) ([]field.Elem, error) {
	l.dec = growElems(l.dec, n)
	return l.dec, l.take(from, l.dec)
}

// take decodes the next row from the peer into dst, a row the caller
// keeps and made before it waits, so the decode follows the frame's
// arrival at once.
func (l *wireLink) take(from int, dst []field.Elem) error {
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

// close tears this party's end down so that peers waiting on it fail
// instead of hanging, and hands back the frames the endpoint still holds.
func (l *wireLink) close() { l.conn.Close() }

func putElem(b []byte, e field.Elem) { binary.BigEndian.PutUint64(b, uint64(e)) }

func getElem(b []byte) field.Elem { return field.Elem(binary.BigEndian.Uint64(b)) }
