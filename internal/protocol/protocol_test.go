package protocol

import (
	"bytes"
	"errors"
	"testing"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Message{Type: MsgShare, Session: 42, Payload: []byte("hello")}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Session != in.Session || string(out.Payload) != "hello" {
		t.Fatalf("round trip = %+v", out)
	}
}

// TestFrameLayout pins the bytes of a frame: version, type, session and
// payload length big-endian, then the payload. The message types keep
// their wire values, so a frame reads the same to every build that
// speaks this Version.
func TestFrameLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgShare, Session: 2, Payload: []byte("ab")}); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 1, 8, 0, 0, 0, 2, 0, 0, 0, 2, 'a', 'b'}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame = %v, want %v", buf.Bytes(), want)
	}
	if MsgHello != 1 || MsgShare != 8 {
		t.Fatalf("wire values Hello=%d Share=%d, want 1 and 8", MsgHello, MsgShare)
	}
}

func TestMessageEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgHello, Session: 1}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Payload != nil {
		t.Fatal("expected nil payload")
	}
}

func TestReadMessageVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgHello, Session: 1}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[0], b[1] = 0xff, 0xff
	if _, err := ReadMessage(bytes.NewReader(b)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgHello, Session: 1, Payload: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
		t.Fatal("truncated frame must error")
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := WriteMessage(&bytes.Buffer{}, Message{Type: MsgHello, Payload: make([]byte, MaxPayload+1)}); err != ErrFrameTooLarge {
		t.Fatalf("write err = %v", err)
	}
	// Forged oversized length prefix.
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgHello, Session: 1}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[7], b[8], b[9], b[10] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadMessage(bytes.NewReader(b)); err != ErrFrameTooLarge {
		t.Fatalf("read err = %v", err)
	}
}

func TestMsgTypeAndStateStrings(t *testing.T) {
	if MsgHello.String() != "Hello" || MsgShare.String() != "Share" || MsgType(99).String() != "MsgType(99)" {
		t.Fatal("MsgType.String")
	}
}
