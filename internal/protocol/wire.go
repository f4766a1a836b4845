// Package protocol implements the session layer a deployed SQM system
// speaks between the coordinator (server) and the clients: versioned,
// length-prefixed binary messages for the protocol lifecycle —
// parameter negotiation, per-round evaluation requests, scaled results
// and errors — plus client/server session state machines that enforce
// the message order the DP analysis assumes (noise is sampled before
// any evaluation round, results only flow after every client acked the
// parameters).
//
// The transport is abstracted as an io.ReadWriter; the tests and the
// simulation drive it over in-memory pipes, a deployment would use TLS
// connections. Payloads never contain raw data columns: clients only
// ever transmit protocol control fields and (in the MPC engines)
// secret shares.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Version is the wire-format version; peers must match exactly.
const Version uint16 = 1

// MsgType enumerates the protocol messages.
type MsgType uint8

const (
	// MsgHello opens a session: client -> server.
	MsgHello MsgType = iota + 1
	// MsgParams announces the agreed mechanism parameters: server -> clients.
	MsgParams
	// MsgParamsAck confirms quantization and noise sampling: client -> server.
	MsgParamsAck
	// MsgEvalRequest starts one evaluation round: server -> clients.
	MsgEvalRequest
	// MsgRoundDone signals a client finished its protocol round: client -> server.
	MsgRoundDone
	// MsgResult carries the scaled integer outputs: server -> clients (broadcast of the opened value).
	MsgResult
	// MsgError aborts the session with a reason.
	MsgError
	// MsgShare carries secret-share traffic between MPC parties (the
	// transport layer of the actor-BGW engine); Session holds the
	// sender's party id. Control sessions never emit it.
	MsgShare
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgParams:
		return "Params"
	case MsgParamsAck:
		return "ParamsAck"
	case MsgEvalRequest:
		return "EvalRequest"
	case MsgRoundDone:
		return "RoundDone"
	case MsgResult:
		return "Result"
	case MsgError:
		return "Error"
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

// Frame layout: version(2) type(1) session(4) payloadLen(4) payload.
const headerLen = 2 + 1 + 4 + 4

// ErrVersionMismatch reports a peer speaking another version.
var ErrVersionMismatch = errors.New("protocol: version mismatch")

// ErrFrameTooLarge reports a payload beyond MaxPayload.
var ErrFrameTooLarge = errors.New("protocol: frame exceeds MaxPayload")

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	hdr := make([]byte, headerLen)
	binary.BigEndian.PutUint16(hdr[0:2], Version)
	hdr[2] = byte(m.Type)
	binary.BigEndian.PutUint32(hdr[3:7], m.Session)
	binary.BigEndian.PutUint32(hdr[7:11], uint32(len(m.Payload)))
	if _, err := w.Write(hdr); err != nil {
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
func ReadMessageInto(r io.Reader, buf []byte) (Message, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, buf, err
	}
	if v := binary.BigEndian.Uint16(hdr[0:2]); v != Version {
		return Message{}, buf, fmt.Errorf("%w: got %d, want %d", ErrVersionMismatch, v, Version)
	}
	m := Message{
		Type:    MsgType(hdr[2]),
		Session: binary.BigEndian.Uint32(hdr[3:7]),
	}
	n := binary.BigEndian.Uint32(hdr[7:11])
	if n > MaxPayload {
		return Message{}, buf, ErrFrameTooLarge
	}
	if n > 0 {
		if uint32(cap(buf)) >= n {
			buf = buf[:n]
		} else {
			buf = make([]byte, n)
		}
		m.Payload = buf
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return Message{}, buf, err
		}
	}
	return m, buf, nil
}

// Params is the negotiated mechanism configuration (MsgParams payload).
type Params struct {
	Gamma      float64
	Mu         float64
	NumClients uint32
	OutDim     uint32
	Rounds     uint32
	Seed       uint64
}

// Encode serializes Params.
func (p Params) Encode() []byte {
	buf := make([]byte, 8+8+4+4+4+8)
	binary.BigEndian.PutUint64(buf[0:], math.Float64bits(p.Gamma))
	binary.BigEndian.PutUint64(buf[8:], math.Float64bits(p.Mu))
	binary.BigEndian.PutUint32(buf[16:], p.NumClients)
	binary.BigEndian.PutUint32(buf[20:], p.OutDim)
	binary.BigEndian.PutUint32(buf[24:], p.Rounds)
	binary.BigEndian.PutUint64(buf[28:], p.Seed)
	return buf
}

// DecodeParams parses a Params payload.
func DecodeParams(b []byte) (Params, error) {
	if len(b) != 36 {
		return Params{}, fmt.Errorf("protocol: Params payload is %d bytes, want 36", len(b))
	}
	return Params{
		Gamma:      math.Float64frombits(binary.BigEndian.Uint64(b[0:])),
		Mu:         math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
		NumClients: binary.BigEndian.Uint32(b[16:]),
		OutDim:     binary.BigEndian.Uint32(b[20:]),
		Rounds:     binary.BigEndian.Uint32(b[24:]),
		Seed:       binary.BigEndian.Uint64(b[28:]),
	}, nil
}

// Result is the MsgResult payload: the opened scaled integers of one
// round.
type Result struct {
	Round  uint32
	Scaled []int64
}

// Encode serializes a Result.
func (r Result) Encode() []byte {
	buf := make([]byte, 4+4+8*len(r.Scaled))
	binary.BigEndian.PutUint32(buf[0:], r.Round)
	binary.BigEndian.PutUint32(buf[4:], uint32(len(r.Scaled)))
	for i, v := range r.Scaled {
		binary.BigEndian.PutUint64(buf[8+8*i:], uint64(v))
	}
	return buf
}

// DecodeResult parses a Result payload.
func DecodeResult(b []byte) (Result, error) {
	if len(b) < 8 {
		return Result{}, fmt.Errorf("protocol: Result payload too short (%d bytes)", len(b))
	}
	n := binary.BigEndian.Uint32(b[4:])
	if uint64(len(b)) != 8+8*uint64(n) {
		return Result{}, fmt.Errorf("protocol: Result payload length %d inconsistent with count %d", len(b), n)
	}
	r := Result{Round: binary.BigEndian.Uint32(b[0:]), Scaled: make([]int64, n)}
	for i := range r.Scaled {
		r.Scaled[i] = int64(binary.BigEndian.Uint64(b[8+8*i:]))
	}
	return r, nil
}
