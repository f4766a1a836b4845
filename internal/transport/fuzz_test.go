package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"sqm/internal/obs"
)

// FuzzTraceHeader hardens the 20-byte trace-header decoder, which sees
// whatever a peer put on the wire: it must never panic; a frame it
// accepts must re-encode to the same bytes and hand back exactly the
// bytes after the header; a frame it rejects — short, wrong magic, wrong
// version — must pass through untouched, so an untraced peer's traffic
// still flows. The receive hook built on it must strip a header exactly
// when the decoder accepts one and move the Lamport clock past the stamp
// it was shown.
func FuzzTraceHeader(f *testing.F) {
	good := wrapTraceFrame(obs.TraceID(0xabcdef), 2, 41, []byte("payload"))
	f.Add(good)
	f.Add(good[:TraceHeaderLen])   // header only
	f.Add(good[:TraceHeaderLen-1]) // one byte short
	f.Add([]byte{})
	f.Add(append([]byte{0x71, 0x54, 2}, good[3:]...)) // future version
	f.Add(append([]byte{0x71, 0x55}, good[2:]...))    // wrong magic
	f.Add(bytes.Repeat([]byte{0xff}, 2*TraceHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, from, lclock, rest, ok := unwrapTraceFrame(data)
		framed := len(data) >= TraceHeaderLen &&
			binary.BigEndian.Uint16(data) == traceMagic && data[2] == traceVersion
		if ok != framed {
			t.Fatalf("decoder accepted = %v, frame carries a header = %v", ok, framed)
		}
		if !ok {
			if id != 0 || from != 0 || lclock != 0 || !sameSlice(rest, data) {
				t.Fatal("a rejected frame must pass through untouched with zero fields")
			}
		} else {
			if !sameSlice(rest, data[TraceHeaderLen:]) {
				t.Fatal("an accepted frame must hand back exactly the bytes after the header")
			}
			if back := wrapTraceFrame(id, from, lclock, rest); !bytes.Equal(back, data) {
				t.Fatalf("header does not re-encode: % x → % x", data[:TraceHeaderLen], back[:TraceHeaderLen])
			}
		}

		ct := newConnTrace(obs.NewTraceContext(obs.TraceID(0xabcdef), 3), 1)
		if out := ct.received(2, data); !sameSlice(out, rest) {
			t.Fatalf("received stripped %d bytes, decoder says %d", len(data)-len(out), len(data)-len(rest))
		}
		if now := ct.pt.Clock(); ok && lclock < math.MaxUint64 && now != lclock+1 {
			t.Fatalf("Lamport clock reads %d after a frame stamped %d", now, lclock)
		}
	})
}

// sameSlice reports whether a and b are the same window of one array.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
