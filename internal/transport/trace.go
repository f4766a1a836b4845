package transport

import (
	"encoding/binary"

	"sqm/internal/obs"
)

// Trace propagation: when a mesh is built WithTracer, every frame is
// prefixed with a fixed 20-byte header carrying (trace id, sender,
// Lamport stamp). The header travels inside the mesh payload — the
// frame codec's wire format is untouched — and is stripped before the
// payload reaches the caller, so engines never see it. Traffic counters
// keep counting payload bytes: the header is telemetry, not data.
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

	// TraceHeaderLen is the per-frame overhead of trace propagation.
	TraceHeaderLen = 20
)

// wrapTraceFrame prefixes payload with a trace header. The payload is
// copied into a pool-backed wire buffer — stamping happens before the
// frame is handed to a queue that outlives the caller's buffer anyway,
// and the copy is what lets the sender's payload be recycled as soon as
// the frame is built.
func wrapTraceFrame(id obs.TraceID, from int, lclock uint64, payload []byte) []byte {
	out := GetPayload(TraceHeaderLen + len(payload))
	binary.BigEndian.PutUint16(out[0:2], traceMagic)
	out[2] = traceVersion
	out[3] = byte(from)
	binary.BigEndian.PutUint64(out[4:12], uint64(id))
	binary.BigEndian.PutUint64(out[12:20], lclock)
	copy(out[TraceHeaderLen:], payload)
	return out
}

// unwrapTraceFrame splits a frame into its trace header and payload.
// Frames without the magic/version prefix are returned unchanged with
// ok == false, so an untraced peer's traffic still flows.
func unwrapTraceFrame(b []byte) (id obs.TraceID, from int, lclock uint64, rest []byte, ok bool) {
	if len(b) < TraceHeaderLen ||
		binary.BigEndian.Uint16(b[0:2]) != traceMagic ||
		b[2] != traceVersion {
		return 0, 0, 0, b, false
	}
	id = obs.TraceID(binary.BigEndian.Uint64(b[4:12]))
	from = int(b[3])
	lclock = binary.BigEndian.Uint64(b[12:20])
	return id, from, lclock, b[TraceHeaderLen:], true
}

// connTrace is one endpoint's tracing state. A nil *connTrace (tracing
// disabled) makes every method a single-branch no-op.
type connTrace struct {
	pt *obs.PartyTrace
}

// newConnTrace binds party's stream from the context; nil when tracing
// is off or the context has no stream for this party.
func newConnTrace(tc *obs.TraceContext, party int) *connTrace {
	if tc == nil {
		return nil
	}
	pt := tc.Party(party)
	if pt == nil {
		return nil
	}
	return &connTrace{pt: pt}
}

// stampSend ticks the clock (Lamport send rule) and wraps the payload.
// The returned stamp is what the receiver will see in the header.
func (t *connTrace) stampSend(payload []byte) ([]byte, uint64) {
	if t == nil {
		return payload, 0
	}
	lc := t.pt.Tick()
	return wrapTraceFrame(t.pt.Trace(), t.pt.Party(), lc, payload), lc
}

// sent records the send event at the stamp the frame carries, after the
// mesh has actually accepted it.
func (t *connTrace) sent(lc uint64, to, payloadBytes, msgs int) {
	if t == nil {
		return
	}
	t.pt.EventAt(lc, obs.LevelDebug, "transport.send",
		obs.Int("peer", to), obs.Int("bytes", payloadBytes), obs.Int("msgs", msgs))
}

// received merges the sender's stamp into the clock (Lamport receive
// rule), records the receive event, and strips the header. The event's
// remote_lclock equals the matching send event's lclock — that pairing
// is how sqmtrace matches cross-party edges.
func (t *connTrace) received(from int, b []byte) []byte {
	if t == nil {
		return b
	}
	id, sender, remote, rest, ok := unwrapTraceFrame(b)
	if !ok {
		t.pt.Event(obs.LevelWarn, "transport.recv.untraced",
			obs.Int("peer", from), obs.Int("bytes", len(b)))
		return b
	}
	lc := t.pt.Merge(remote)
	if id != t.pt.Trace() || sender != from {
		t.pt.EventAt(lc, obs.LevelWarn, "transport.recv.mismatch",
			obs.Int("peer", from), obs.Int("claimed", sender),
			obs.String("claimed_trace", id.String()))
	}
	t.pt.EventAt(lc, obs.LevelDebug, "transport.recv",
		obs.Int("peer", from), obs.Int("bytes", len(rest)),
		obs.Int64("remote_lclock", int64(remote)))
	return rest
}

// fault records a fault-injection event on this endpoint's stream — a
// local event, so it ticks the clock like any other.
func (t *connTrace) fault(level obs.Level, name string, attrs ...obs.Attr) {
	if t == nil {
		return
	}
	t.pt.Event(level, name, attrs...)
}
