package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNopIsDisabledAndNilSafe(t *testing.T) {
	r := Nop()
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn} {
		if r.Enabled(lv) {
			t.Fatalf("nop recorder enabled at %v", lv)
		}
	}
	r.Event(LevelWarn, "ignored", Int("k", 1))
}

// TestNopPathAllocationFree pins the contract the hot resharing path
// relies on: disabled telemetry performs zero allocations — an event on
// the no-op recorder, a span that the recorder's Enabled refused, and a
// span on a nil recorder (a release's core.noise when Params.Recorder is
// unset).
func TestNopPathAllocationFree(t *testing.T) {
	rec := Nop()
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Event(LevelWarn, "bgw.party.failed", Int("party", 1), String("err", "x"))
		sp := StartTracedSpan(rec, "circuit.level", 0, Int("level", 1))
		if sp.Active() {
			t.Fatal("span on the nop recorder must be inert")
		}
		sp.End(Int("frames", 2))
		noise := StartTracedSpan(nil, "core.noise", 0, Int("holders", 4), Int("dims", 7260))
		if noise.Active() {
			t.Fatal("span on a nil recorder must be inert")
		}
		noise.End(Float64("draw_seconds", 0.02))
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", allocs)
	}
}

func TestOr(t *testing.T) {
	if Or(nil) == nil || Or(nil).Enabled(LevelWarn) {
		t.Fatal("Or(nil) must be the disabled recorder")
	}
	r := NewLog(&bytes.Buffer{}, "text", LevelInfo)
	if Or(r) != Recorder(r) {
		t.Fatal("Or must pass a non-nil recorder through")
	}
}

func TestLogRecorderEventsAndLevels(t *testing.T) {
	var buf bytes.Buffer
	r := NewLog(&buf, "json", LevelInfo)
	if r.Enabled(LevelDebug) {
		t.Fatal("debug must be disabled at info level")
	}
	r.Event(LevelDebug, "dropped")
	r.Event(LevelInfo, "session.start",
		Int("clients", 3), Float64("gamma", 2048), String("engine", "actor-net"),
		Duration("lat", 100*time.Millisecond), Bool("tcp", true))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1: %q", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("event is not JSON: %v", err)
	}
	if ev["msg"] != "session.start" || ev["clients"] != float64(3) || ev["tcp"] != true {
		t.Fatalf("unexpected event: %v", ev)
	}
	if ev["engine"] != "actor-net" {
		t.Fatalf("string attr lost: %v", ev)
	}
}

func TestAttrValues(t *testing.T) {
	cases := []struct {
		attr Attr
		want any
	}{
		{Int("a", 7), int64(7)},
		{Int64("b", -2), int64(-2)},
		{Float64("c", 1.5), 1.5},
		{String("d", "x"), "x"},
		{Duration("e", time.Second), time.Second},
		{Bool("f", true), true},
		{Bool("g", false), false},
	}
	for _, c := range cases {
		if got := c.attr.Value(); got != c.want {
			t.Fatalf("%s: Value() = %v (%T), want %v", c.attr.Key, got, got, c.want)
		}
	}
	if s := Int("k", 3).String(); s != "k=3" {
		t.Fatalf("Attr.String() = %q", s)
	}
}

// TestSpanRecordsDurationAndEvent: a span's duration lives in exactly
// one place, the "seconds" attribute of its end event.
func TestSpanRecordsDurationAndEvent(t *testing.T) {
	var buf bytes.Buffer
	r := NewLog(&buf, "json", LevelDebug)
	sp := StartTracedSpan(r, "proto.round", 0, Int("round", 2))
	time.Sleep(2 * time.Millisecond)
	if buf.Len() != 0 {
		t.Fatalf("span start emitted %q, want nothing before End", buf.String())
	}
	sp.End(Int("msgs", 9))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("span emitted %d events, want 1: %q", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("span event not JSON: %v", err)
	}
	if ev["msg"] != "proto.round" || ev["round"] != float64(2) || ev["msgs"] != float64(9) {
		t.Fatalf("span event wrong: %v", ev)
	}
	if secs, ok := ev["seconds"].(float64); !ok || secs < 0.001 {
		t.Fatalf("span duration missing or too small: %v", ev["seconds"])
	}
	// A recorder whose level refuses debug events gets an inert span.
	var quiet bytes.Buffer
	sp2 := StartTracedSpan(NewLog(&quiet, "text", LevelInfo), "x", 0)
	if sp2.Active() {
		t.Fatal("span below the recorder's level must be inert")
	}
	sp2.End()
	if quiet.Len() != 0 {
		t.Fatalf("inert span emitted %q", quiet.String())
	}
}
