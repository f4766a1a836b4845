package transport

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"sqm/internal/obs"
)

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

// TestFlightDumpSurvivesChaos pins the obs-under-faults contract: with
// drops and a mid-session crash injected, every stream still dumps a
// complete, parseable JSONL file, and the injected faults appear as
// events on the affected party's stream. (The send/recv events are the
// engine's links'; bgw's TestActorRecvTimeoutSurfacesAsPartyFailure
// finds them beside the faults.)
func TestFlightDumpSurvivesChaos(t *testing.T) {
	tc := obs.NewTraceContext(obs.DeriveTraceID(7), 3)
	fm := NewFaultMesh(NewChanMesh(3), FaultProfile{
		Seed:  7,
		Links: map[[2]int]LinkFault{{0, 1}: {DropProb: 1}},
	}, tc)
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
}
