// Package obs is the repository's zero-dependency observability layer:
// one stream of structured events. Every subsystem that does real work
// — the BGW engines, the releases, the DP accountant, and on a
// traced run the transport meshes — reports through it, and every number
// is an attribute of the event that caused it: a duration is a
// TracedSpan (its end event carries "seconds") or an event's "seconds"
// attribute, a count is an attribute of the event that counted it. The
// engines' own counters (mesh traffic, bgw.Stats) are the totals; the
// flight recorders and cmd/sqmtrace turn a traced run's events into
// per-link bytes, per-span durations and the privacy ledger.
//
// Two recorders ship: a slog-backed one (text or JSON lines) and a
// no-op one; the flight recorder of a trace context is a third. The
// disabled path is allocation-free: instrumented code asks Enabled
// before it reads a clock or builds an attribute.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"time"
)

// Level classifies an event's severity. The numeric values match
// log/slog so the slog-backed recorder forwards them unchanged.
type Level int8

const (
	// LevelDebug marks high-volume diagnostics (per-round spans).
	LevelDebug Level = -4
	// LevelInfo marks lifecycle events (session start, ledger entries).
	LevelInfo Level = 0
	// LevelWarn marks conditions an operator should act on (privacy
	// budget exceeded, transport teardown mid-round).
	LevelWarn Level = 4
)

// attrKind discriminates the Attr payload.
type attrKind uint8

const (
	kindInt64 attrKind = iota
	kindFloat64
	kindString
	kindDuration
	kindBool
)

// Attr is one structured key/value pair of an event. It is a small
// value type (no interface boxing) so building attributes on an enabled
// path stays cheap and the disabled path can skip them entirely.
type Attr struct {
	Key  string
	kind attrKind
	num  uint64
	str  string
}

// Int attaches an int value.
func Int(key string, v int) Attr { return Int64(key, int64(v)) }

// Int64 attaches an int64 value.
func Int64(key string, v int64) Attr {
	return Attr{Key: key, kind: kindInt64, num: uint64(v)}
}

// Float64 attaches a float64 value.
func Float64(key string, v float64) Attr {
	return Attr{Key: key, kind: kindFloat64, num: floatBits(v)}
}

// String attaches a string value.
func String(key, v string) Attr {
	return Attr{Key: key, kind: kindString, str: v}
}

// Duration attaches a duration value.
func Duration(key string, d time.Duration) Attr {
	return Attr{Key: key, kind: kindDuration, num: uint64(d)}
}

// Bool attaches a bool value.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// Value returns the attribute's payload boxed as any.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt64:
		return int64(a.num)
	case kindFloat64:
		return floatFrom(a.num)
	case kindString:
		return a.str
	case kindDuration:
		return time.Duration(a.num)
	case kindBool:
		return a.num != 0
	}
	return nil
}

// slogAttr converts to the slog representation.
func (a Attr) slogAttr() slog.Attr {
	switch a.kind {
	case kindInt64:
		return slog.Int64(a.Key, int64(a.num))
	case kindFloat64:
		return slog.Float64(a.Key, floatFrom(a.num))
	case kindString:
		return slog.String(a.Key, a.str)
	case kindDuration:
		return slog.Duration(a.Key, time.Duration(a.num))
	case kindBool:
		return slog.Bool(a.Key, a.num != 0)
	}
	return slog.Any(a.Key, nil)
}

// String renders the attribute as key=value.
func (a Attr) String() string { return fmt.Sprintf("%s=%v", a.Key, a.Value()) }

func floatBits(v float64) uint64 { return math.Float64bits(v) }

func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Recorder receives the structured telemetry of one run. Implementations
// must be safe for concurrent use: party actors, the writer pumps and
// the coordinator all report from their own goroutines.
//
// Enabled is the one switch: instrumented code asks it before reading a
// clock or building attributes, so a recorder that would drop the event
// costs one call.
type Recorder interface {
	// Enabled reports whether events at the level would be recorded.
	// The no-op recorder answers false for every level.
	Enabled(level Level) bool
	// Event records one structured event.
	Event(level Level, name string, attrs ...Attr)
}

// nop is the disabled recorder.
type nop struct{}

func (nop) Enabled(Level) bool           { return false }
func (nop) Event(Level, string, ...Attr) {}

// Nop returns the no-op recorder. Every operation on it is
// allocation-free.
func Nop() Recorder { return nop{} }

// Or returns r, or the no-op recorder when r is nil — the idiom for
// optional Recorder fields on config structs.
func Or(r Recorder) Recorder {
	if r == nil {
		return Nop()
	}
	return r
}

// LogRecorder is the slog-backed Recorder: events become structured log
// lines (text or JSON).
type LogRecorder struct {
	logger *slog.Logger
	min    Level
}

// NewLog builds a LogRecorder writing to w. format is "text" or "json"
// (anything else falls back to text); events below min are dropped.
func NewLog(w io.Writer, format string, min Level) *LogRecorder {
	opts := &slog.HandlerOptions{Level: slog.Level(min)}
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return NewLogger(slog.New(h), min)
}

// NewLogger wraps an existing slog.Logger.
func NewLogger(l *slog.Logger, min Level) *LogRecorder {
	return &LogRecorder{logger: l, min: min}
}

// Enabled reports whether the level clears the recorder's minimum.
func (r *LogRecorder) Enabled(level Level) bool { return level >= r.min }

// Event emits one structured log line.
func (r *LogRecorder) Event(level Level, name string, attrs ...Attr) {
	if level < r.min {
		return
	}
	sa := make([]slog.Attr, len(attrs))
	for i, a := range attrs {
		sa[i] = a.slogAttr()
	}
	r.logger.LogAttrs(context.Background(), slog.Level(level), name, sa...)
}
