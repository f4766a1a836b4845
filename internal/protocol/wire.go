// Package protocol is the frame codec the MPC parties speak over a
// byte stream: versioned, length-prefixed binary frames, written by
// WriteMessage and parsed by ReadMessage / ReadMessageInto. The TCP
// mesh (internal/transport) opens each link with a MsgHello frame and
// carries every share row in a MsgShare frame.
//
// The parser reads bytes off the network, so it never panics on them:
// a malformed frame is an error (ErrVersionMismatch, ErrFrameTooLarge,
// or the reader's own io error for a truncated one).
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the wire-format version; peers must match exactly.
const Version uint16 = 1

// MsgType enumerates the protocol messages.
type MsgType uint8

// The wire values are fixed: a frame is byte-identical across
// versions of this package as long as Version is.
const (
	// MsgHello opens a mesh link: the dialer names itself in Session.
	MsgHello MsgType = 1
	// MsgShare carries secret-share traffic between MPC parties (the
	// transport layer of the actor-BGW engine); Session holds the
	// sender's party id.
	MsgShare MsgType = 8
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgShare:
		return "Share"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Message is one frame.
type Message struct {
	Type    MsgType
	Session uint32
	Payload []byte
}

// MaxPayload bounds a frame (16 MiB) so a corrupted length prefix
// cannot trigger an absurd allocation.
const MaxPayload = 16 << 20

// HeaderLen is the length of a frame's header. Frame layout:
// version(2) type(1) session(4) payloadLen(4) payload.
const HeaderLen = 2 + 1 + 4 + 4

// ErrVersionMismatch reports a peer speaking another version.
var ErrVersionMismatch = errors.New("protocol: version mismatch")

// ErrFrameTooLarge reports a payload beyond MaxPayload.
var ErrFrameTooLarge = errors.New("protocol: frame exceeds MaxPayload")

// AppendHeader appends to dst the header of a frame of type t from
// session carrying an n-byte payload, n at most MaxPayload: the bytes
// WriteMessage writes before the payload. A writer whose payload sits in
// a buffer of its own sends this header beside it instead of framing a
// copy.
func AppendHeader(dst []byte, t MsgType, session uint32, n int) []byte {
	dst = binary.BigEndian.AppendUint16(dst, Version)
	dst = append(dst, byte(t))
	dst = binary.BigEndian.AppendUint32(dst, session)
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// WriteMessage frames and writes one message: the header, then the
// payload. The header goes into the writer's spare buffer when it offers
// one (bytes.Buffer, bufio.Writer), so framing into memory allocates
// nothing; any other writer costs one header-sized allocation.
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	var hdr []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		hdr = ab.AvailableBuffer()
	} else {
		hdr = make([]byte, 0, HeaderLen)
	}
	if _, err := w.Write(AppendHeader(hdr, m.Type, m.Session, len(m.Payload))); err != nil {
		return err
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadMessage reads and validates one frame. The payload is freshly
// allocated; use ReadMessageInto to reuse a receive buffer across
// frames on a long-lived link.
func ReadMessage(r io.Reader) (Message, error) {
	m, _, err := ReadMessageInto(r, nil)
	return m, err
}

// ReadMessageInto reads and validates one frame, decoding the payload
// into buf when it fits (avoiding the per-frame allocation of a
// long-lived link's receive path) and allocating a larger buffer
// otherwise. It returns the message and the buffer to pass to the next
// call; m.Payload aliases that buffer, so the message is only valid
// until the buffer's next reuse — callers owning the link's read side
// must copy or fully consume the payload before reading the next frame.
//
// The header is read into the head of buf, so a buffer of at least
// HeaderLen bytes makes the call allocation-free once the payloads fit;
// the bytes it covered are put back unless a payload lands there, so
// buf changes only when it is the buffer returned. A shorter buffer
// costs a header-sized allocation; a buffer this call grows holds a
// header.
func ReadMessageInto(r io.Reader, buf []byte) (Message, []byte, error) {
	var hdr []byte
	var saved [HeaderLen]byte
	if cap(buf) >= HeaderLen {
		hdr = buf[:HeaderLen]
		copy(saved[:], hdr)
	} else {
		hdr = make([]byte, HeaderLen)
	}
	m, n, err := readHeader(r, hdr)
	if cap(buf) >= HeaderLen && (err != nil || n == 0 || n > cap(buf)) {
		copy(hdr, saved[:]) // no payload lands in buf
	}
	if err != nil {
		return Message{}, buf, err
	}
	if n > 0 {
		if n <= cap(buf) {
			buf = buf[:n]
		} else {
			buf = make([]byte, n, max(n, HeaderLen))
		}
		m.Payload = buf
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return Message{}, buf, err
		}
	}
	return m, buf, nil
}

// readHeader reads one frame header into hdr and returns the message it
// opens, payload not yet read, and the payload's length.
func readHeader(r io.Reader, hdr []byte) (Message, int, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Message{}, 0, err
	}
	if v := binary.BigEndian.Uint16(hdr[0:2]); v != Version {
		return Message{}, 0, fmt.Errorf("%w: got %d, want %d", ErrVersionMismatch, v, Version)
	}
	n := binary.BigEndian.Uint32(hdr[7:11])
	if n > MaxPayload {
		return Message{}, 0, ErrFrameTooLarge
	}
	return Message{Type: MsgType(hdr[2]), Session: binary.BigEndian.Uint32(hdr[3:7])}, int(n), nil
}
