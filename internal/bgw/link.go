package bgw

import (
	"encoding/binary"
	"fmt"

	"sqm/internal/field"
	"sqm/internal/obs"
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
//
// The link is also where a frame is metered and traced, since only it
// knows what a frame holds. sent counts the frames, messages (a row's
// elements, at least one per frame) and bytes (8 per element) the mesh
// accepted from this party; the party reports them at a barrier, so they
// are its own integers and no other goroutine touches them. With a trace
// stream (tr), every payload starts with a trace header the link writes
// in place (see traceHeaderLen), and the link records transport.send and
// transport.recv events on the stream.
type wireLink struct {
	conn transport.PartyConn
	dec  []field.Elem
	tr   *obs.PartyTrace // nil when the session is untraced
	sent Stats           // Frames, Messages and Bytes only
}

// Trace propagation: on a traced link every payload starts with a fixed
// 20-byte header carrying (trace id, sender, Lamport stamp), written in
// place before the row's elements — the frame codec's wire format is
// untouched and no copy is made. The receiver merges the stamp into its
// clock and decodes the row after the header. Bytes counts the row only:
// the header is telemetry, not data.
//
// Layout (big-endian):
//
//	[0:2]   magic 0x7154 ("tQ")
//	[2]     version (1)
//	[3]     sender party id
//	[4:12]  trace id
//	[12:20] Lamport stamp at send time
const (
	traceMagic   = 0x7154
	traceVersion = 1

	// traceHeaderLen is the per-frame overhead of trace propagation.
	traceHeaderLen = 20
)

func (l *wireLink) send(to int, row []field.Elem) error {
	h := 0
	if l.tr != nil {
		h = traceHeaderLen
	}
	buf := transport.GetPayload(h + 8*len(row))
	var lc uint64
	if l.tr != nil {
		lc = l.tr.Tick()
		putTraceHeader(buf, l.tr.Trace(), l.tr.Party(), lc)
	}
	for k, s := range row {
		putElem(buf[h+8*k:], s)
	}
	if err := l.conn.SendN(to, buf, len(row)); err != nil {
		return err
	}
	msgs := max(len(row), 1)
	l.sent.Frames++
	l.sent.Messages += int64(msgs)
	l.sent.Bytes += int64(8 * len(row))
	if l.tr != nil {
		l.tr.EventAt(lc, obs.LevelDebug, "transport.send",
			obs.Int("peer", to), obs.Int("bytes", 8*len(row)), obs.Int("msgs", msgs))
	}
	return nil
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
	if l.tr != nil {
		buf = l.received(from, buf)
	}
	if len(buf) != 8*len(dst) {
		return fmt.Errorf("bad payload from party %d: %d bytes for %d values", from, len(buf), len(dst))
	}
	for k := range dst {
		dst[k] = getElem(buf[8*k:])
	}
	return nil
}

// received merges the sender's stamp into the clock (Lamport receive
// rule), records the receive event, and returns the payload after the
// header. The event's remote_lclock equals the matching send event's
// lclock — that pairing is how sqmtrace matches cross-party edges. A
// payload without a header is returned whole, with a warning.
func (l *wireLink) received(from int, b []byte) []byte {
	id, sender, remote, rest, ok := parseTraceHeader(b)
	if !ok {
		l.tr.Event(obs.LevelWarn, "transport.recv.untraced",
			obs.Int("peer", from), obs.Int("bytes", len(b)))
		return b
	}
	lc := l.tr.Merge(remote)
	if id != l.tr.Trace() || sender != from {
		l.tr.EventAt(lc, obs.LevelWarn, "transport.recv.mismatch",
			obs.Int("peer", from), obs.Int("claimed", sender),
			obs.String("claimed_trace", id.String()))
	}
	l.tr.EventAt(lc, obs.LevelDebug, "transport.recv",
		obs.Int("peer", from), obs.Int("bytes", len(rest)),
		obs.Int64("remote_lclock", int64(remote)))
	return rest
}

// close tears this party's end down so that peers waiting on it fail
// instead of hanging, and hands back the frames the endpoint still holds.
func (l *wireLink) close() { l.conn.Close() }

// putTraceHeader writes the trace header into b[:traceHeaderLen].
func putTraceHeader(b []byte, id obs.TraceID, from int, lclock uint64) {
	binary.BigEndian.PutUint16(b[0:2], traceMagic)
	b[2] = traceVersion
	b[3] = byte(from)
	binary.BigEndian.PutUint64(b[4:12], uint64(id))
	binary.BigEndian.PutUint64(b[12:20], lclock)
}

// parseTraceHeader splits a payload into its trace header and the rest.
// A payload without the magic/version prefix is returned unchanged with
// ok == false, so an untraced peer's row still decodes.
func parseTraceHeader(b []byte) (id obs.TraceID, from int, lclock uint64, rest []byte, ok bool) {
	if len(b) < traceHeaderLen ||
		binary.BigEndian.Uint16(b[0:2]) != traceMagic ||
		b[2] != traceVersion {
		return 0, 0, 0, b, false
	}
	id = obs.TraceID(binary.BigEndian.Uint64(b[4:12]))
	from = int(b[3])
	lclock = binary.BigEndian.Uint64(b[12:20])
	return id, from, lclock, b[traceHeaderLen:], true
}

func putElem(b []byte, e field.Elem) { binary.BigEndian.PutUint64(b, uint64(e)) }

func getElem(b []byte) field.Elem { return field.Elem(binary.BigEndian.Uint64(b)) }
