package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Distributed tracing: a session-scoped TraceID shared by every party,
// one Lamport logical clock per party, and a bounded flight recorder
// per party. The meshes propagate (trace, sender, lclock) in-band with
// every frame, so the per-party event streams can be merged after the
// fact into one causally ordered timeline (cmd/sqmtrace).
//
// The clock follows Lamport's rules: local events and sends tick the
// clock; a receive merges the sender's stamp with max(local, remote)+1.
// If event e happens-before event f across the whole session, then
// lclock(e) < lclock(f), so sorting the merged streams by lclock is a
// valid causal order (ties are concurrent and may be broken
// arbitrarily).

// TraceID identifies one session's trace. IDs are derived
// deterministically from the run's seed material (DeriveTraceID), never
// sampled — the repo's determinism invariant applies to telemetry too.
type TraceID uint64

// String renders the id as 16 hex digits.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// DeriveTraceID mixes the given words (seed, party count, rounds, ...)
// into a trace id with a splitmix64-style finalizer. The same inputs
// always produce the same id; the zero id is avoided so callers can use
// 0 as "no trace".
func DeriveTraceID(words ...uint64) TraceID {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h += w + 0x9e3779b97f4a7c15
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	if h == 0 {
		h = 1
	}
	return TraceID(h)
}

// SpanID identifies one timed region within a trace. Parent links
// (TracedSpan) reconstruct the span tree per party.
type SpanID uint64

// String renders the id as 16 hex digits.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// CoordParty is the party index of the coordinator's event stream.
const CoordParty = -1

// TraceContext is the shared tracing state of one session: the id, one
// PartyTrace per mesh party, one for the coordinator, and a metrics
// registry that backs trace-only runs (no user recorder attached).
type TraceContext struct {
	id      TraceID
	coord   *PartyTrace
	parties []*PartyTrace
	metrics *Metrics
}

// NewTraceContext builds the tracing state for a session of the given
// mesh party count (0 is valid: coordinator-only tracing). Every stream
// gets its own flight recorder of DefaultFlightCapacity events.
func NewTraceContext(id TraceID, parties int) *TraceContext {
	if parties < 0 {
		parties = 0
	}
	tc := &TraceContext{id: id, metrics: NewMetrics()}
	tc.coord = &PartyTrace{tc: tc, party: CoordParty, flight: NewFlightRecorder(DefaultFlightCapacity)}
	tc.parties = make([]*PartyTrace, parties)
	for i := range tc.parties {
		tc.parties[i] = &PartyTrace{tc: tc, party: i, flight: NewFlightRecorder(DefaultFlightCapacity)}
	}
	return tc
}

// ID returns the trace id.
func (tc *TraceContext) ID() TraceID { return tc.id }

// Parties returns the number of mesh party streams (excluding the
// coordinator's).
func (tc *TraceContext) Parties() int { return len(tc.parties) }

// Coordinator returns the coordinator's stream.
func (tc *TraceContext) Coordinator() *PartyTrace { return tc.coord }

// Party returns party i's stream (CoordParty for the coordinator's);
// nil when i is out of range, so callers can attach tracing
// opportunistically.
func (tc *TraceContext) Party(i int) *PartyTrace {
	if i == CoordParty {
		return tc.coord
	}
	if i < 0 || i >= len(tc.parties) {
		return nil
	}
	return tc.parties[i]
}

// Streams returns every stream, coordinator first.
func (tc *TraceContext) Streams() []*PartyTrace {
	out := make([]*PartyTrace, 0, len(tc.parties)+1)
	out = append(out, tc.coord)
	return append(out, tc.parties...)
}

// DumpAll writes one JSONL flight-recorder dump per stream into dir
// (created if missing): trace-<id>-coord.jsonl and
// trace-<id>-party<i>.jsonl. It returns the paths written. Dumps are
// best-effort snapshots: a stream that recorded nothing still produces
// an (empty) file, so a merge tool can tell "party died silently" from
// "file lost".
func (tc *TraceContext) DumpAll(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: trace dump dir: %w", err)
	}
	var paths []string
	write := func(name string, f *FlightRecorder) error {
		path := filepath.Join(dir, name)
		file, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("obs: trace dump: %w", err)
		}
		werr := f.WriteJSONL(file)
		if cerr := file.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("obs: trace dump %s: %w", name, werr)
		}
		paths = append(paths, path)
		return nil
	}
	if err := write(fmt.Sprintf("trace-%s-coord.jsonl", tc.id), tc.coord.flight); err != nil {
		return paths, err
	}
	for i, pt := range tc.parties {
		if err := write(fmt.Sprintf("trace-%s-party%d.jsonl", tc.id, i), pt.flight); err != nil {
			return paths, err
		}
	}
	return paths, nil
}

// PartyTrace is one participant's view of the trace: its Lamport clock
// and its flight recorder. All methods are safe for concurrent use and
// nil-receiver safe, so disabled tracing costs one branch.
type PartyTrace struct {
	tc      *TraceContext
	party   int
	clock   atomic.Uint64
	spanSeq atomic.Uint64
	flight  *FlightRecorder
}

// Trace returns the trace id (0 on a nil receiver).
func (pt *PartyTrace) Trace() TraceID {
	if pt == nil {
		return 0
	}
	return pt.tc.id
}

// Party returns the stream's party index (CoordParty for the
// coordinator).
func (pt *PartyTrace) Party() int {
	if pt == nil {
		return CoordParty
	}
	return pt.party
}

// Clock returns the current logical time.
func (pt *PartyTrace) Clock() uint64 {
	if pt == nil {
		return 0
	}
	return pt.clock.Load()
}

// Flight returns the stream's flight recorder.
func (pt *PartyTrace) Flight() *FlightRecorder {
	if pt == nil {
		return nil
	}
	return pt.flight
}

// Tick advances the logical clock for a local event or a send and
// returns the new time.
func (pt *PartyTrace) Tick() uint64 {
	if pt == nil {
		return 0
	}
	return pt.clock.Add(1)
}

// Merge folds a received remote stamp into the clock — Lamport's
// receive rule, max(local, remote)+1 — and returns the new time.
func (pt *PartyTrace) Merge(remote uint64) uint64 {
	if pt == nil {
		return 0
	}
	for {
		cur := pt.clock.Load()
		next := cur + 1
		if remote >= cur {
			next = remote + 1
		}
		if pt.clock.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// EventAt records an event stamped with an already-assigned logical
// time (from Tick or Merge) into the flight recorder, appending the
// trace/party/lclock attributes.
func (pt *PartyTrace) EventAt(lclock uint64, level Level, name string, attrs ...Attr) {
	if pt == nil {
		return
	}
	all := make([]Attr, 0, len(attrs)+3)
	all = append(all, attrs...)
	all = pt.appendStamp(all, lclock)
	pt.flight.Event(level, name, all...)
}

// Event ticks the clock and records a local event.
func (pt *PartyTrace) Event(level Level, name string, attrs ...Attr) {
	if pt == nil {
		return
	}
	pt.EventAt(pt.Tick(), level, name, attrs...)
}

// appendStamp appends the trace-context attributes of one event.
func (pt *PartyTrace) appendStamp(dst []Attr, lclock uint64) []Attr {
	return append(dst,
		String("trace", pt.tc.id.String()),
		Int("party", pt.party),
		Int64("lclock", int64(lclock)))
}

// NextSpanID allocates a deterministic span id, unique within this
// party's stream.
func (pt *PartyTrace) NextSpanID() SpanID {
	if pt == nil {
		return 0
	}
	return SpanID(DeriveTraceID(uint64(pt.tc.id), uint64(int64(pt.party))+0x5a5a, pt.spanSeq.Add(1)))
}

// Wrap decorates a recorder with this stream's trace context: every
// event is stamped with (trace, party, lclock), captured by the flight
// recorder regardless of level, and forwarded to inner if inner's level
// admits it. A nil inner is valid — tracing alone enables telemetry.
// Metrics() prefers inner's registry and falls back to the trace
// context's own, so metric-gated instrumentation (engines, meshes)
// activates under tracing even without a user recorder.
func (pt *PartyTrace) Wrap(inner Recorder) Recorder {
	if pt == nil {
		return Or(inner)
	}
	return tracedRecorder{pt: pt, inner: Or(inner)}
}

// tracedRecorder is the Wrap decorator.
type tracedRecorder struct {
	pt    *PartyTrace
	inner Recorder // never nil
}

func (r tracedRecorder) partyTrace() *PartyTrace { return r.pt }

// Enabled answers true for every level: the flight recorder captures
// debug events even when the wrapped recorder filters them.
func (r tracedRecorder) Enabled(Level) bool { return true }

// Event stamps, flight-records, and conditionally forwards.
func (r tracedRecorder) Event(level Level, name string, attrs ...Attr) {
	lc := r.pt.Tick()
	all := make([]Attr, 0, len(attrs)+3)
	all = append(all, attrs...)
	all = r.pt.appendStamp(all, lc)
	r.pt.flight.Event(level, name, all...)
	if r.inner.Enabled(level) {
		r.inner.Event(level, name, all...)
	}
}

// Metrics returns the wrapped recorder's registry, or the trace
// context's own when the wrapped recorder has none.
func (r tracedRecorder) Metrics() *Metrics {
	if m := r.inner.Metrics(); m != nil {
		return m
	}
	return r.pt.tc.metrics
}

// TraceOf returns the PartyTrace a recorder was wrapped with, or nil
// for untraced recorders — the hook span instrumentation uses to attach
// span/parent identifiers, and wiring code uses to avoid double
// wrapping.
func TraceOf(rec Recorder) *PartyTrace {
	if c, ok := rec.(interface{ partyTrace() *PartyTrace }); ok {
		return c.partyTrace()
	}
	return nil
}

// TracedSpan measures one timed region — a plan execution, a circuit
// level, a session phase — against a monotonic clock (time.Since uses
// the runtime's monotonic reading), and carries span/parent identifiers
// when the recorder is trace-wrapped. Spans are plain values: a disabled
// recorder yields the zero span whose End is a no-op, so the pattern
//
//	sp := obs.StartTracedSpan(rec, "circuit.level", parent, obs.Int("level", l))
//	... work ...
//	sp.End()
//
// costs one branch when telemetry is off.
type TracedSpan struct {
	rec    Recorder
	name   string
	start  time.Time
	id     SpanID
	parent SpanID
	attrs  []Attr
	hist   *Histogram
}

// StartTracedSpan opens a span on rec; parent 0 makes it a root. With an
// untraced recorder the span carries no identifiers; with a disabled
// recorder it is the inert zero span.
func StartTracedSpan(rec Recorder, name string, parent SpanID, attrs ...Attr) TracedSpan {
	if rec == nil || !rec.Enabled(LevelDebug) {
		return TracedSpan{}
	}
	s := TracedSpan{
		rec:    rec,
		name:   name,
		start:  time.Now(),
		parent: parent,
		attrs:  attrs,
		hist:   rec.Metrics().Histogram(name + ".seconds"),
	}
	if pt := TraceOf(rec); pt != nil {
		s.id = pt.NextSpanID()
	}
	return s
}

// Active reports whether End will record anything — the guard for
// computing expensive end-attributes.
func (s TracedSpan) Active() bool { return s.rec != nil }

// ID returns the span's identifier (0 when inactive or untraced), for
// use as a child span's parent.
func (s TracedSpan) ID() SpanID { return s.id }

// End closes the span: the histogram "<name>.seconds" observes the
// duration and a debug event carries the start attributes, the extra
// attributes, span/parent identifiers, and "seconds".
func (s TracedSpan) End(attrs ...Attr) {
	if s.rec == nil {
		return
	}
	secs := time.Since(s.start).Seconds()
	s.hist.Observe(secs)
	all := make([]Attr, 0, len(s.attrs)+len(attrs)+3)
	all = append(all, s.attrs...)
	all = append(all, attrs...)
	if s.id != 0 {
		all = append(all, String("span", s.id.String()))
	}
	if s.parent != 0 {
		all = append(all, String("parent", s.parent.String()))
	}
	all = append(all, Float64("seconds", secs))
	s.rec.Event(LevelDebug, s.name, all...)
}
