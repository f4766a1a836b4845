package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"sqm/internal/obs"
)

// attr pulls a typed attribute out of a flight event.
func attr(t *testing.T, ev obs.FlightEvent, key string) int64 {
	t.Helper()
	v, ok := ev.Attrs[key]
	if !ok {
		t.Fatalf("event %s missing attr %q: %v", ev.Name, key, ev.Attrs)
	}
	n, ok := v.(int64)
	if !ok {
		t.Fatalf("attr %q = %v (%T), want int64", key, v, v)
	}
	return n
}

// findEvent returns the first event with the given name (and matching
// peer, if peer >= 0).
func findEvent(evs []obs.FlightEvent, name string, peer int) (obs.FlightEvent, bool) {
	for _, ev := range evs {
		if ev.Name != name {
			continue
		}
		if peer >= 0 {
			if p, ok := ev.Attrs["peer"].(int64); !ok || int(p) != peer {
				continue
			}
		}
		return ev, true
	}
	return obs.FlightEvent{}, false
}

func TestTraceHeaderOverheadAndRoundTrip(t *testing.T) {
	if TraceHeaderLen > 64 {
		t.Fatalf("trace header is %d bytes, must stay <= 64", TraceHeaderLen)
	}
	payload := []byte("share payload")
	wire := wrapTraceFrame(obs.TraceID(0xabcdef), 2, 41, payload)
	if len(wire) != TraceHeaderLen+len(payload) {
		t.Fatalf("wire len = %d, want %d", len(wire), TraceHeaderLen+len(payload))
	}
	id, from, lc, rest, ok := unwrapTraceFrame(wire)
	if !ok || id != obs.TraceID(0xabcdef) || from != 2 || lc != 41 || !bytes.Equal(rest, payload) {
		t.Fatalf("round trip lost data: id=%v from=%d lc=%d rest=%q ok=%v", id, from, lc, rest, ok)
	}
	// Frames without the header pass through unchanged.
	for _, raw := range [][]byte{nil, []byte("short"), bytes.Repeat([]byte{0}, 64)} {
		if _, _, _, rest, ok := unwrapTraceFrame(raw); ok || !bytes.Equal(rest, raw) {
			t.Fatalf("untraced frame %q mangled (ok=%v rest=%q)", raw, ok, rest)
		}
	}
}

// testTracePairMatching drives one send/recv over the mesh and checks
// the pairing contract: the receive event's remote_lclock equals the
// matching send event's lclock, and the receive is causally later.
func testTracePairMatching(t *testing.T, tc *obs.TraceContext, m Mesh) {
	t.Helper()
	payload := []byte("hello share")
	if err := m.Conn(0).Send(1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := m.Conn(1).Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted by trace header: %q", got)
	}
	send, ok := findEvent(tc.Party(0).Flight().Events(), "transport.send", 1)
	if !ok {
		t.Fatal("party 0 recorded no transport.send to peer 1")
	}
	recv, ok := findEvent(tc.Party(1).Flight().Events(), "transport.recv", 0)
	if !ok {
		t.Fatal("party 1 recorded no transport.recv from peer 0")
	}
	sendLC := attr(t, send, "lclock")
	if got := attr(t, recv, "remote_lclock"); got != sendLC {
		t.Fatalf("recv remote_lclock = %d, send lclock = %d — pair broken", got, sendLC)
	}
	if recvLC := attr(t, recv, "lclock"); recvLC <= sendLC {
		t.Fatalf("recv lclock %d not after send lclock %d", recvLC, sendLC)
	}
	if tr := recv.Attrs["trace"]; tr != tc.ID().String() {
		t.Fatalf("recv trace = %v, want %s", tr, tc.ID())
	}
	if got := attr(t, send, "bytes"); got != int64(len(payload)) {
		t.Fatalf("send bytes = %d, want payload length %d", got, len(payload))
	}
}

func TestChanMeshTracePairMatching(t *testing.T) {
	tc := obs.NewTraceContext(obs.DeriveTraceID(1), 2)
	m := NewChanMesh(2, WithTracer(tc))
	defer m.Close()
	testTracePairMatching(t, tc, m)
	// Counters keep counting payload bytes, not header bytes.
	if _, _, b := m.Counters(); b != int64(len("hello share")) {
		t.Fatalf("byte counter includes trace header: %d", b)
	}
}

func TestNetMeshTracePairMatching(t *testing.T) {
	tc := obs.NewTraceContext(obs.DeriveTraceID(2), 2)
	m, err := NewTCPMesh(2, WithTracer(tc))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	testTracePairMatching(t, tc, m)
}

func TestTracerPartyMismatch(t *testing.T) {
	tc := obs.NewTraceContext(obs.DeriveTraceID(3), 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("chan mesh accepted a 2-stream tracer for 3 parties")
			}
		}()
		NewChanMesh(3, WithTracer(tc))
	}()
	if _, err := NewTCPMesh(3, WithTracer(tc)); err == nil {
		t.Error("tcp mesh accepted a 2-stream tracer for 3 parties")
	}
}

// TestFlightDumpSurvivesChaos pins the obs-under-faults contract: with
// drops and a mid-session crash injected, every survivor's flight
// recorder still dumps a complete, parseable JSONL stream containing
// its send/recv events, and the injected faults appear as events on the
// affected party's stream.
func TestFlightDumpSurvivesChaos(t *testing.T) {
	tc := obs.NewTraceContext(obs.DeriveTraceID(7), 3)
	inner := NewChanMesh(3, WithTracer(tc))
	fm := NewFaultMesh(inner, FaultProfile{
		Seed:  7,
		Links: map[[2]int]LinkFault{{0, 1}: {DropProb: 1}},
	}, WithTracer(tc))
	defer fm.Close()
	fm.SetRecvTimeout(50 * time.Millisecond)

	if err := fm.Conn(0).Send(1, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := fm.Conn(0).Send(2, []byte("delivered")); err != nil {
		t.Fatal(err)
	}
	if got, err := fm.Conn(2).Recv(0); err != nil || string(got) != "delivered" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	if _, err := fm.Conn(1).Recv(0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped frame produced %v, want timeout", err)
	}
	fm.Crash(1)
	if _, err := fm.Conn(1).Recv(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("crashed party recv = %v, want ErrClosed", err)
	}
	if s := fm.Injected(); s.Drops != 1 || s.Crashes != 1 {
		t.Fatalf("injected = %+v", s)
	}

	dir := t.TempDir()
	paths, err := tc.DumpAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 { // coord + 3 parties
		t.Fatalf("dumped %d files, want 4: %v", len(paths), paths)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if line == "" {
				continue
			}
			var ev map[string]any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("%s has unparseable line %q: %v", path, line, err)
			}
		}
	}
	if _, ok := findEvent(tc.Party(0).Flight().Events(), "transport.fault.drop", 1); !ok {
		t.Error("party 0 stream missing transport.fault.drop event")
	}
	if _, ok := findEvent(tc.Party(1).Flight().Events(), "transport.fault.crash", -1); !ok {
		t.Error("party 1 stream missing transport.fault.crash event")
	}
	if _, ok := findEvent(tc.Party(2).Flight().Events(), "transport.recv", 0); !ok {
		t.Error("survivor party 2 stream missing transport.recv event")
	}
}
