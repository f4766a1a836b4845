package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDeriveTraceIDDeterministic(t *testing.T) {
	a := DeriveTraceID(7, 3, 2)
	b := DeriveTraceID(7, 3, 2)
	if a != b {
		t.Fatalf("same inputs gave %v and %v", a, b)
	}
	if a == 0 {
		t.Fatal("trace id must never be zero")
	}
	if a == DeriveTraceID(8, 3, 2) {
		t.Fatal("different seeds must give different ids")
	}
	if len(a.String()) != 16 {
		t.Fatalf("String() = %q, want 16 hex digits", a.String())
	}
}

func TestLamportClock(t *testing.T) {
	tc := NewTraceContext(DeriveTraceID(1), 2)
	p0, p1 := tc.Party(0), tc.Party(1)
	if got := p0.Tick(); got != 1 {
		t.Fatalf("first tick = %d, want 1", got)
	}
	p0.Tick()
	p0.Tick() // p0 at 3
	// p1 receives p0's stamp 3: merge to max(0,3)+1 = 4.
	if got := p1.Merge(3); got != 4 {
		t.Fatalf("merge(3) = %d, want 4", got)
	}
	// A receive of an older stamp still advances past local time.
	if got := p1.Merge(1); got != 5 {
		t.Fatalf("merge(1) = %d, want 5", got)
	}
	if got := p0.Clock(); got != 3 {
		t.Fatalf("p0 clock = %d, want 3", got)
	}
}

func TestPartyTraceNilSafe(t *testing.T) {
	var pt *PartyTrace
	pt.Tick()
	pt.Merge(5)
	pt.Event(LevelInfo, "x", Int("k", 1))
	pt.EventAt(1, LevelInfo, "x")
	if pt.Trace() != 0 || pt.Clock() != 0 || pt.Flight() != nil || pt.NextSpanID() != 0 || pt.Context() != nil {
		t.Fatal("nil PartyTrace must be inert")
	}
	if rec := pt.Wrap(nil); rec.Enabled(LevelWarn) {
		t.Fatal("nil PartyTrace.Wrap(nil) must be the disabled recorder")
	}
}

func TestWrapStampsAndTees(t *testing.T) {
	tc := NewTraceContext(DeriveTraceID(2), 1)
	pt := tc.Party(0)
	var buf bytes.Buffer
	inner := NewLog(&buf, "json", LevelInfo)
	rec := pt.Wrap(inner)

	if !rec.Enabled(LevelDebug) {
		t.Fatal("traced recorder must admit debug for the flight ring")
	}
	rec.Event(LevelDebug, "quiet", Int("k", 1)) // flight only
	rec.Event(LevelInfo, "loud", Int("k", 2))   // flight + inner

	if got := pt.Flight().Len(); got != 2 {
		t.Fatalf("flight holds %d events, want 2", got)
	}
	evs := pt.Flight().Events()
	for _, e := range evs {
		if e.Attrs["trace"] != tc.ID().String() {
			t.Fatalf("event %q trace attr = %v", e.Name, e.Attrs["trace"])
		}
		if e.Attrs["party"] != int64(0) {
			t.Fatalf("event %q party attr = %v (%T)", e.Name, e.Attrs["party"], e.Attrs["party"])
		}
	}
	if evs[0].Attrs["lclock"] == evs[1].Attrs["lclock"] {
		t.Fatal("consecutive events must carry distinct logical times")
	}
	out := buf.String()
	if strings.Contains(out, "quiet") {
		t.Fatal("debug event leaked past the info-level inner recorder")
	}
	if !strings.Contains(out, "loud") || !strings.Contains(out, "lclock") {
		t.Fatalf("info event missing from inner recorder: %s", out)
	}
	if TraceOf(rec) != pt || TraceOf(rec).Context() != tc {
		t.Fatal("TraceOf must recover the wrapped PartyTrace, and it its context")
	}
	if TraceOf(inner) != nil || TraceOf(Nop()) != nil {
		t.Fatal("TraceOf must be nil for untraced recorders")
	}
}

func TestFlightRecorderBound(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Event(LevelInfo, "e", Int("i", i))
	}
	if f.Len() != 4 {
		t.Fatalf("ring holds %d, want 4", f.Len())
	}
	if f.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", f.Dropped())
	}
	evs := f.Events()
	if evs[0].Attrs["i"] != int64(6) || evs[3].Attrs["i"] != int64(9) {
		t.Fatalf("ring kept wrong window: %v", evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

func TestFlightRecorderJSONL(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Event(LevelInfo, "a", String("s", "v"), Float64("f", 1.5), Bool("b", true))
	f.Event(LevelWarn, "b")
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var e FlightEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}

func TestDumpAll(t *testing.T) {
	tc := NewTraceContext(DeriveTraceID(4), 2)
	tc.Coordinator().Event(LevelInfo, "session.start")
	tc.Party(0).Event(LevelDebug, "transport.send", Int("peer", 1))
	paths, err := tc.DumpAll(filepath.Join(t.TempDir(), "traces"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("wrote %d files, want 3 (coord + 2 parties)", len(paths))
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if !json.Valid(line) {
				t.Fatalf("%s has invalid JSONL line %q", p, line)
			}
		}
	}
	if !strings.HasSuffix(paths[0], "-coord.jsonl") {
		t.Fatalf("first dump must be the coordinator's, got %s", paths[0])
	}
}

func TestTracedSpanIdentifiers(t *testing.T) {
	tc := NewTraceContext(DeriveTraceID(5), 1)
	rec := tc.Party(0).Wrap(nil)
	root := StartTracedSpan(rec, "circuit.exec", 0, Int("gates", 3))
	if !root.Active() || root.ID() == 0 {
		t.Fatal("traced span on a traced recorder must carry an id")
	}
	child := StartTracedSpan(rec, "circuit.level", root.ID(), Int("level", 1))
	child.End(Int("muls", 2))
	root.End()

	evs := tc.Party(0).Flight().Events()
	if len(evs) != 2 {
		t.Fatalf("flight holds %d events, want 2", len(evs))
	}
	if evs[0].Attrs["parent"] != root.ID().String() {
		t.Fatalf("child parent attr = %v, want %v", evs[0].Attrs["parent"], root.ID())
	}
	if evs[0].Attrs["span"] == evs[1].Attrs["span"] {
		t.Fatal("span ids must be unique")
	}
	if _, ok := evs[1].Attrs["seconds"]; !ok {
		t.Fatal("span end must carry seconds")
	}
	// Untraced but enabled recorder: active span, no identifiers.
	plain := StartTracedSpan(NewLog(&bytes.Buffer{}, "text", LevelDebug), "x", 0)
	if !plain.Active() || plain.ID() != 0 {
		t.Fatal("untraced span must be active without an id")
	}
	plain.End()
	// Disabled recorder: inert.
	off := StartTracedSpan(Nop(), "x", 0)
	if off.Active() {
		t.Fatal("span on the nop recorder must be inert")
	}
	off.End()
}
