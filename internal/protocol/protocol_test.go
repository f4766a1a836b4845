package protocol

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Message{Type: MsgParams, Session: 42, Payload: []byte("hello")}
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

func TestParamsEncodeDecode(t *testing.T) {
	in := Params{Gamma: 4096, Mu: 1.5e20, NumClients: 7, OutDim: 3, Rounds: 9, Seed: 123456789}
	out, err := DecodeParams(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip = %+v", out)
	}
	if _, err := DecodeParams([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload must error")
	}
}

func TestResultEncodeDecode(t *testing.T) {
	in := Result{Round: 4, Scaled: []int64{-5, 0, 1 << 50}}
	out, err := DecodeResult(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Round != 4 || len(out.Scaled) != 3 || out.Scaled[2] != 1<<50 || out.Scaled[0] != -5 {
		t.Fatalf("round trip = %+v", out)
	}
	if _, err := DecodeResult([]byte{1}); err == nil {
		t.Fatal("short payload must error")
	}
	bad := in.Encode()
	bad = bad[:len(bad)-8]
	if _, err := DecodeResult(bad); err == nil {
		t.Fatal("inconsistent count must error")
	}
}

func TestMsgTypeAndStateStrings(t *testing.T) {
	if MsgParams.String() != "Params" || MsgType(99).String() == "" {
		t.Fatal("MsgType.String")
	}
	if StateCommitted.String() != "Committed" || State(99).String() == "" {
		t.Fatal("State.String")
	}
}

func TestRunSessionLifecycle(t *testing.T) {
	const clients = 3
	var commits, rounds atomic.Int32
	hooks := make([]ClientHooks, clients)
	for i := range hooks {
		hooks[i] = ClientHooks{
			OnParams:      func(Params) error { commits.Add(1); return nil },
			OnEvalRequest: func(uint32) error { rounds.Add(1); return nil },
		}
	}
	p := Params{Gamma: 16, Mu: 2, NumClients: clients, OutDim: 2, Rounds: 3, Seed: 1}
	outcomes, err := RunSession(p, hooks, func(round uint32) ([]int64, error) {
		return []int64{int64(round), int64(round) * 10}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if commits.Load() != clients {
		t.Fatalf("commits = %d", commits.Load())
	}
	if rounds.Load() != clients*3 {
		t.Fatalf("round callbacks = %d", rounds.Load())
	}
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("client %d: %v", o.Client, o.Err)
		}
		if len(o.Results) != 3 {
			t.Fatalf("client %d got %d results", o.Client, len(o.Results))
		}
		if o.Results[2].Scaled[1] != 20 {
			t.Fatalf("client %d result = %+v", o.Client, o.Results[2])
		}
	}
}

func TestRunSessionEvaluateFailureAbortsClients(t *testing.T) {
	hooks := []ClientHooks{{}, {}}
	p := Params{NumClients: 2, OutDim: 1, Rounds: 2}
	outcomes, err := RunSession(p, hooks, func(round uint32) ([]int64, error) {
		return nil, errors.New("mpc blew up")
	})
	if err == nil {
		t.Fatal("coordinator must surface the failure")
	}
	for _, o := range outcomes {
		if o.Err == nil || !strings.Contains(o.Err.Error(), "mpc blew up") {
			t.Fatalf("client %d err = %v", o.Client, o.Err)
		}
	}
}

func TestRunSessionClientCommitFailure(t *testing.T) {
	hooks := []ClientHooks{
		{OnParams: func(Params) error { return errors.New("column checksum mismatch") }},
	}
	p := Params{NumClients: 1, OutDim: 1, Rounds: 1}
	outcomes, err := RunSession(p, hooks, func(uint32) ([]int64, error) { return []int64{0}, nil })
	if err == nil {
		t.Fatal("coordinator should fail when a client cannot commit")
	}
	if outcomes[0].Err == nil {
		t.Fatal("client must report its own failure")
	}
}

func TestRunSessionValidation(t *testing.T) {
	if _, err := RunSession(Params{}, nil, nil); err == nil {
		t.Fatal("no clients must error")
	}
	if _, err := RunSession(Params{NumClients: 2, Rounds: 1}, []ClientHooks{{}}, nil); err == nil {
		t.Fatal("client-count mismatch must error")
	}
	if _, err := RunSession(Params{NumClients: 1, Rounds: 0}, []ClientHooks{{}}, nil); err == nil {
		t.Fatal("zero rounds must error")
	}
}

func TestSessionStateMachineRejectsOutOfOrder(t *testing.T) {
	c := &ClientSession{ID: 1}
	c.state = StateCommitted
	if err := c.Start(); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("Start in Committed: %v", err)
	}
	s := &ServerSession{ID: 1}
	if err := s.SendParams(Params{}); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("SendParams in New: %v", err)
	}
	if err := s.RunRound(); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("RunRound in New: %v", err)
	}
	if err := s.SendResult(Result{}, true); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("SendResult in New: %v", err)
	}
}
