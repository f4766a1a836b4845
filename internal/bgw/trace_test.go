package bgw

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"sqm/internal/field"
	"sqm/internal/obs"
	"sqm/internal/transport"
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

// findEvent returns the first event of the stream with the given name
// (and peer, if peer >= 0).
func findEvent(pt *obs.PartyTrace, name string, peer int) (obs.FlightEvent, bool) {
	for _, ev := range pt.Flight().Events() {
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

func hasEvent(pt *obs.PartyTrace, name string, peer int) bool {
	_, ok := findEvent(pt, name, peer)
	return ok
}

// tracedLinks returns the links of parties 0 and 1 of a two-party mesh,
// each stamping into its stream of tc.
func tracedLinks(m transport.Mesh, tc *obs.TraceContext) (*wireLink, *wireLink) {
	return &wireLink{conn: m.Conn(0), tr: tc.Party(0)}, &wireLink{conn: m.Conn(1), tr: tc.Party(1)}
}

// stamped returns payload behind a trace header.
func stamped(id obs.TraceID, from int, lclock uint64, payload []byte) []byte {
	b := make([]byte, traceHeaderLen+len(payload))
	putTraceHeader(b, id, from, lclock)
	copy(b[traceHeaderLen:], payload)
	return b
}

func TestTraceHeaderOverheadAndRoundTrip(t *testing.T) {
	if traceHeaderLen > 64 {
		t.Fatalf("trace header is %d bytes, must stay <= 64", traceHeaderLen)
	}
	payload := []byte("share payload")
	wire := stamped(obs.TraceID(0xabcdef), 2, 41, payload)
	id, from, lc, rest, ok := parseTraceHeader(wire)
	if !ok || id != obs.TraceID(0xabcdef) || from != 2 || lc != 41 || !bytes.Equal(rest, payload) {
		t.Fatalf("round trip lost data: id=%v from=%d lc=%d rest=%q ok=%v", id, from, lc, rest, ok)
	}
	// Payloads without the header pass through unchanged.
	for _, raw := range [][]byte{nil, []byte("short"), bytes.Repeat([]byte{0}, 64)} {
		if _, _, _, rest, ok := parseTraceHeader(raw); ok || !bytes.Equal(rest, raw) {
			t.Fatalf("untraced payload %q mangled (ok=%v rest=%q)", raw, ok, rest)
		}
	}
}

// testTracePairMatching sends one row over a traced link and checks the
// pairing contract: the receive event's remote_lclock equals the
// matching send event's lclock, and the receive is causally later. The
// link counts the row's bytes, not the header's.
func testTracePairMatching(t *testing.T, tc *obs.TraceContext, m transport.Mesh) {
	t.Helper()
	a, b := tracedLinks(m, tc)
	row := []field.Elem{7, 11}
	if err := a.send(1, row); err != nil {
		t.Fatal(err)
	}
	got, err := b.recv(0, len(row))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || got[1] != 11 {
		t.Fatalf("row corrupted by trace header: %v", got)
	}
	send, ok := findEvent(tc.Party(0), "transport.send", 1)
	if !ok {
		t.Fatal("party 0 recorded no transport.send to peer 1")
	}
	recv, ok := findEvent(tc.Party(1), "transport.recv", 0)
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
	if got := attr(t, send, "bytes"); got != 16 {
		t.Fatalf("send bytes = %d, want the row's 16", got)
	}
	if want := (Stats{Frames: 1, Messages: 2, Bytes: 16}); a.sent != want {
		t.Fatalf("link counted %+v, want %+v (no header bytes)", a.sent, want)
	}
}

func TestChanMeshTracePairMatching(t *testing.T) {
	tc := obs.NewTraceContext(obs.DeriveTraceID(1), 2)
	m := transport.NewChanMesh(2)
	defer m.Close()
	testTracePairMatching(t, tc, m)
}

func TestNetMeshTracePairMatching(t *testing.T) {
	tc := obs.NewTraceContext(obs.DeriveTraceID(2), 2)
	m, err := transport.NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	testTracePairMatching(t, tc, m)
}

// TestTracerPartyMismatch: a trace context's party streams must be the
// engine's parties, over any mesh; a context of the coordinator's stream
// alone traces no link and is accepted.
func TestTracerPartyMismatch(t *testing.T) {
	wrong := obs.NewTraceContext(obs.DeriveTraceID(3), 2).Coordinator().Wrap(nil)
	chanMesh := transport.NewChanMesh(3)
	defer chanMesh.Close()
	if _, err := NewActorEngine(Config{Parties: 3, Seed: 1, Recorder: wrong}, chanMesh); err == nil {
		t.Error("chan mesh: NewActorEngine accepted a 2-stream trace context for 3 parties")
	}
	tcp, err := transport.NewTCPMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if _, err := NewActorEngine(Config{Parties: 3, Seed: 1, Recorder: wrong}, tcp); err == nil {
		t.Error("tcp mesh: NewActorEngine accepted a 2-stream trace context for 3 parties")
	}
	coordOnly := obs.NewTraceContext(obs.DeriveTraceID(3), 0)
	eng := newActorChan(t, Config{Parties: 3, Seed: 1, Recorder: coordOnly.Coordinator().Wrap(nil)})
	if got := eng.Open(eng.Input(0, 5)); got != 5 || eng.parties[0].link.tr != nil {
		t.Errorf("coordinator-only trace: opened %d, link 0 traced = %v; want 5 and untraced", got, eng.parties[0].link.tr != nil)
	}
}

// TestMeshCountersMeasureBytes: the traffic of one plan is what the
// parties' links send, whatever carries it — a ChanMesh, a TCP mesh or a
// delaying FaultMesh — and whether or not the links trace: the trace
// header is not counted.
func TestMeshCountersMeasureBytes(t *testing.T) {
	const p = 4
	run := func(t *testing.T, mesh transport.Mesh, traced bool) Stats {
		t.Helper()
		cfg := Config{Parties: p, Seed: 21}
		if traced {
			cfg.Recorder = obs.NewTraceContext(obs.DeriveTraceID(21), p).Coordinator().Wrap(nil)
		}
		eng, err := NewActorEngine(cfg, mesh)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		evalProgram(t, eng)
		st := eng.Stats()
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	want := run(t, transport.NewChanMesh(p), false)
	if want.Frames == 0 || want.Bytes != 8*want.Messages {
		t.Fatalf("reference run counted %+v: want frames, and 8 bytes per message", want)
	}
	meshes := map[string]func(t *testing.T) transport.Mesh{
		"chan": func(*testing.T) transport.Mesh { return transport.NewChanMesh(p) },
		"tcp": func(t *testing.T) transport.Mesh {
			m, err := transport.NewTCPMesh(p)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"fault": func(*testing.T) transport.Mesh {
			return transport.NewFaultMesh(transport.NewChanMesh(p),
				transport.FaultProfile{All: transport.LinkFault{Delay: 50 * time.Microsecond}}, nil)
		},
	}
	for name, mesh := range meshes {
		for _, traced := range []bool{false, true} {
			sub := name
			if traced {
				sub += "-traced"
			}
			t.Run(sub, func(t *testing.T) {
				if got := run(t, mesh(t), traced); got != want {
					t.Fatalf("Stats = %+v, want the ChanMesh's %+v", got, want)
				}
			})
		}
	}
}

// TestMeshTelemetry: on a traced engine each link's traffic is the
// transport.send events of the sender's stream (peer, bytes, msgs):
// per link they are the frames the mesh carried and their rows' bytes,
// and summed over the links they are the engine's Stats.
func TestMeshTelemetry(t *testing.T) {
	const p = 3
	for _, name := range []string{"chan", "tcp"} {
		t.Run(name, func(t *testing.T) {
			var inner transport.Mesh = transport.NewChanMesh(p)
			if name == "tcp" {
				inner.Close()
				var err error
				if inner, err = transport.NewTCPMesh(p); err != nil {
					t.Fatal(err)
				}
			}
			mesh := &recMesh{Mesh: inner, frames: linkFrames(p)}
			tc := obs.NewTraceContext(obs.DeriveTraceID(9), p)
			eng, err := NewActorEngine(Config{Parties: p, Seed: 9, Recorder: tc.Coordinator().Wrap(nil)}, mesh)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			evalProgram(t, eng)
			st := eng.Stats()
			if err := eng.Err(); err != nil {
				t.Fatal(err)
			}
			var sum Stats
			for from := 0; from < p; from++ {
				links := make([]Stats, p)
				for _, ev := range tc.Party(from).Flight().Events() {
					if ev.Name != "transport.send" {
						continue
					}
					l := &links[attr(t, ev, "peer")]
					l.Frames++
					l.Messages += attr(t, ev, "msgs")
					l.Bytes += attr(t, ev, "bytes")
				}
				for to, l := range links {
					carried := Stats{Frames: int64(len(mesh.frames[from][to]))}
					for _, f := range mesh.frames[from][to] {
						carried.Bytes += int64(len(f) - traceHeaderLen)
					}
					if l.Frames != carried.Frames || l.Bytes != carried.Bytes || l.Messages*8 != l.Bytes {
						t.Errorf("link %d->%d: events sum to %+v, the mesh carried %+v", from, to, l, carried)
					}
					sum = sum.Add(l)
				}
			}
			if sum.Frames == 0 || sum.Frames != st.Frames || sum.Messages != st.Messages || sum.Bytes != st.Bytes {
				t.Fatalf("Stats = %+v, transport.send events sum to %+v", st, sum)
			}
		})
	}
}

// TestFramesAllocateNothing: a traced frame — a row stamped, sent,
// received, merged and decoded, with its two events — costs no
// allocation once the free list and the links are warm, over a ChanMesh
// and a TCP mesh with a receive deadline set, and none after garbage
// collections either. (The flight recorders carve the events' attributes
// from chunks: a frame's two events take about a fiftieth of one.)
func TestFramesAllocateNothing(t *testing.T) {
	const n = 1000 // one 1 000-element row
	for _, name := range []string{"chan-traced", "tcp-traced"} {
		t.Run(name, func(t *testing.T) {
			var m transport.Mesh = transport.NewChanMesh(2)
			if name == "tcp-traced" {
				m.Close()
				var err error
				if m, err = transport.NewTCPMesh(2); err != nil {
					t.Fatal(err)
				}
			}
			defer m.Close()
			// A receive deadline arms no timer for a frame already there.
			m.SetRecvTimeout(time.Minute)
			a, b := tracedLinks(m, obs.NewTraceContext(7, 2))
			row := make([]field.Elem, n)
			row[0], row[n-1] = 1, 2
			var err error
			frame := func() {
				if err == nil {
					err = a.send(1, row)
				}
				if err == nil {
					var got []field.Elem
					if got, err = b.recv(0, n); err == nil && (got[0] != 1 || got[n-1] != 2) {
						err = errors.New("frame corrupted")
					}
				}
			}
			for i := 0; i < 10; i++ {
				frame()
			}
			warm := testing.AllocsPerRun(100, frame)
			gc := allocsAfterGC(10, frame)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %v allocations per frame warm, %v after two collections", name, warm, gc)
			if warm != 0 || gc != 0 {
				t.Errorf("%s: %v allocations per frame warm, %v after two collections; want 0", name, warm, gc)
			}
		})
	}
}

// allocsAfterGC returns the allocations of f averaged over runs calls,
// each the first call after two garbage collections (which allocate
// themselves, so they are not counted). Like testing.AllocsPerRun it
// runs at GOMAXPROCS 1 and rounds down to a whole number.
func allocsAfterGC(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total / uint64(runs))
}

// FuzzTraceHeader hardens the 20-byte trace-header decoder, which sees
// whatever a peer put on the wire: it must never panic; a payload it
// accepts must re-encode to the same bytes and hand back exactly the
// bytes after the header; a payload it rejects — short, wrong magic,
// wrong version — must pass through untouched. The link's receive hook
// built on it must strip a header exactly when the decoder accepts one
// and move the Lamport clock past the stamp it was shown.
func FuzzTraceHeader(f *testing.F) {
	good := stamped(obs.TraceID(0xabcdef), 2, 41, []byte("payload"))
	f.Add(good)
	f.Add(good[:traceHeaderLen])   // header only
	f.Add(good[:traceHeaderLen-1]) // one byte short
	f.Add([]byte{})
	f.Add(append([]byte{0x71, 0x54, 2}, good[3:]...)) // future version
	f.Add(append([]byte{0x71, 0x55}, good[2:]...))    // wrong magic
	f.Add(bytes.Repeat([]byte{0xff}, 2*traceHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, from, lclock, rest, ok := parseTraceHeader(data)
		framed := len(data) >= traceHeaderLen &&
			binary.BigEndian.Uint16(data) == traceMagic && data[2] == traceVersion
		if ok != framed {
			t.Fatalf("decoder accepted = %v, payload carries a header = %v", ok, framed)
		}
		if !ok {
			if id != 0 || from != 0 || lclock != 0 || !sameSlice(rest, data) {
				t.Fatal("a rejected payload must pass through untouched with zero fields")
			}
		} else {
			if !sameSlice(rest, data[traceHeaderLen:]) {
				t.Fatal("an accepted payload must hand back exactly the bytes after the header")
			}
			if back := stamped(id, from, lclock, rest); !bytes.Equal(back, data) {
				t.Fatalf("header does not re-encode: % x → % x", data[:traceHeaderLen], back[:traceHeaderLen])
			}
		}

		l := wireLink{tr: obs.NewTraceContext(obs.TraceID(0xabcdef), 3).Party(1)}
		if out := l.received(2, data); !sameSlice(out, rest) {
			t.Fatalf("received stripped %d bytes, decoder says %d", len(data)-len(out), len(data)-len(rest))
		}
		if now := l.tr.Clock(); ok && lclock < math.MaxUint64 && now != lclock+1 {
			t.Fatalf("Lamport clock reads %d after a payload stamped %d", now, lclock)
		}
	})
}

// sameSlice reports whether a and b are the same window of one array.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
