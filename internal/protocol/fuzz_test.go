package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzReadMessage feeds arbitrary bytes to the frame parser: it must
// never panic or over-allocate, only return errors.
func FuzzReadMessage(f *testing.F) {
	var good bytes.Buffer
	_ = WriteMessage(&good, Message{Type: MsgShare, Session: 3, Payload: []byte("x")})
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Parsed frames must re-encode to an equivalent frame.
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("reserialize: %v", err)
		}
		back, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if back.Type != m.Type || back.Session != m.Session || !bytes.Equal(back.Payload, m.Payload) {
			t.Fatal("frame round trip mismatch")
		}
	})
}

// FuzzReadMessageInto drives the pooled receive path: a stream of
// arbitrary bytes is read frame by frame through one reused buffer —
// poisoned before every read, starting at an arbitrary and usually
// undersized capacity — next to ReadMessage reading the same stream into
// fresh memory. The two must accept and reject exactly the same frames
// (truncated headers and bodies, bad versions, lengths past MaxPayload
// included) and agree on every accepted one; a payload that fits the
// buffer must land in it, one that does not must leave the old buffer
// intact for whoever still holds it, and a refused length must not
// allocate.
func FuzzReadMessageInto(f *testing.F) {
	frame := func(m Message) []byte {
		var b bytes.Buffer
		_ = WriteMessage(&b, m)
		return b.Bytes()
	}
	big := frame(Message{Type: MsgShare, Session: 9, Payload: bytes.Repeat([]byte{0xab}, 300)})
	small := frame(Message{Type: MsgShare, Session: 3, Payload: []byte("x")})
	empty := frame(Message{Type: MsgHello, Session: 4})
	tooLarge := append([]byte(nil), small...)
	binary.BigEndian.PutUint32(tooLarge[7:11], MaxPayload+1)
	f.Add(append(append(append([]byte(nil), big...), small...), empty...), uint16(0))
	f.Add(append(append([]byte(nil), small...), big...), uint16(8))
	f.Add(small[:5], uint16(64))                // truncated header
	f.Add(big[:len(big)-7], uint16(16))         // truncated body, undersized buffer
	f.Add(big[:len(big)-7], uint16(1024))       // truncated body, roomy buffer
	f.Add(tooLarge, uint16(4))                  // length field past the cap
	f.Add(append(small[:1:1], 0xff), uint16(0)) // wrong version
	f.Fuzz(func(t *testing.T, data []byte, bufCap uint16) {
		fresh, pooled := bytes.NewReader(data), bytes.NewReader(data)
		buf := make([]byte, 0, bufCap)
		for frames := 0; ; frames++ {
			held := buf[:cap(buf)]
			for i := range held {
				held[i] = 0x5a
			}
			want, wantErr := ReadMessage(fresh)
			got, next, err := ReadMessageInto(pooled, buf)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("frame %d: ReadMessageInto error %v, ReadMessage %v", frames, err, wantErr)
			}
			if errors.Is(err, ErrFrameTooLarge) && cap(next) != cap(buf) {
				t.Fatalf("frame %d: a refused length grew the buffer from %d to %d bytes", frames, cap(buf), cap(next))
			}
			if err != nil {
				return
			}
			if got.Type != want.Type || got.Session != want.Session || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("frame %d: ReadMessageInto %+v, ReadMessage %+v", frames, got, want)
			}
			if fresh.Len() != pooled.Len() {
				t.Fatalf("frame %d: the two readers consumed different lengths", frames)
			}
			switch n := len(got.Payload); {
			case n == 0:
			case n <= cap(buf):
				if &got.Payload[0] != &held[0] {
					t.Fatalf("frame %d: a %d-byte payload did not reuse the %d-byte buffer", frames, n, cap(buf))
				}
			default:
				for i, b := range held {
					if b != 0x5a {
						t.Fatalf("frame %d: outgrown buffer overwritten at byte %d", frames, i)
					}
				}
			}
			if len(got.Payload) > 0 && &got.Payload[0] != &next[:1][0] {
				t.Fatalf("frame %d: payload does not alias the buffer handed back", frames)
			}
			buf = next
		}
	})
}
