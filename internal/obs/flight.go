package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"

	"sqm/internal/chunk"
)

// DefaultFlightCapacity is the per-stream event bound of a trace
// context's flight recorders: large enough to hold every transport and
// round event of the repo's sessions, small enough that a runaway chaos
// run stays bounded (older events are evicted, never the process).
const DefaultFlightCapacity = 8192

// FlightEvent is one captured event in dump form. Attribute values are
// boxed with Attr.Value, so JSON round-trips integers, floats, strings,
// bools, and durations (as nanoseconds).
type FlightEvent struct {
	Seq    uint64         `json:"seq"`
	WallNS int64          `json:"wall_ns"`
	Level  int8           `json:"level"`
	Name   string         `json:"name"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// flightEntry is the in-ring representation; attrs stay unboxed until
// dump time so recording does not allocate interface values.
type flightEntry struct {
	seq   uint64
	wall  int64
	level Level
	name  string
	attrs []Attr
}

// FlightRecorder is a bounded ring buffer of events — the crash-durable
// core of the tracing system. It implements Recorder (Enabled answers
// true for every level) and never blocks, never grows
// past its capacity, and survives chaos: a crashed party's ring still
// holds its last events for the post-mortem dump.
type FlightRecorder struct {
	mu      sync.Mutex
	buf     []flightEntry
	start   int // index of the oldest entry
	n       int // live entries
	seq     uint64
	dropped uint64 // evicted by the capacity bound
	// attrs holds the entries' attribute copies, carved in chunks: the
	// ring evicts oldest first, so a chunk is freed once the ring has
	// moved past every entry carved from it.
	attrs chunk.Arena[Attr]
}

// NewFlightRecorder builds a ring holding up to capacity events
// (values < 1 fall back to DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{buf: make([]flightEntry, capacity)}
}

// Enabled answers true for every level: the ring is the last line of
// diagnosis and must capture debug events even when logging is quiet.
func (f *FlightRecorder) Enabled(Level) bool { return f != nil }

// Event appends one event, evicting the oldest when full. The
// attributes are copied, so callers may reuse their slices.
func (f *FlightRecorder) Event(level Level, name string, attrs ...Attr) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.seq++
	e := flightEntry{
		seq:   f.seq,
		wall:  time.Now().UnixNano(),
		level: level,
		name:  name,
	}
	if len(attrs) > 0 {
		e.attrs = f.attrs.Take(len(attrs))
		copy(e.attrs, attrs)
	}
	if f.n == len(f.buf) {
		f.buf[f.start] = e
		f.start = (f.start + 1) % len(f.buf)
		f.dropped++
	} else {
		f.buf[(f.start+f.n)%len(f.buf)] = e
		f.n++
	}
	f.mu.Unlock()
}

// Len returns the number of events currently held.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Dropped returns how many events the capacity bound evicted.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Events snapshots the ring oldest-first in dump form.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	entries := make([]flightEntry, f.n)
	for i := 0; i < f.n; i++ {
		entries[i] = f.buf[(f.start+i)%len(f.buf)]
	}
	f.mu.Unlock()
	out := make([]FlightEvent, len(entries))
	for i, e := range entries {
		fe := FlightEvent{Seq: e.seq, WallNS: e.wall, Level: int8(e.level), Name: e.name}
		if len(e.attrs) > 0 {
			fe.Attrs = make(map[string]any, len(e.attrs))
			for _, a := range e.attrs {
				fe.Attrs[a.Key] = a.Value()
			}
		}
		out[i] = fe
	}
	return out
}

// WriteJSONL dumps the ring as one JSON object per line, oldest first —
// the per-party trace file format cmd/sqmtrace merges.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range f.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
