package protocol

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// scriptRW is an io.ReadWriter whose reads come from a pre-built frame
// script and whose writes are discarded — a peer reduced to its byte
// stream, for driving a session state machine through arbitrary (and
// arbitrarily broken) traffic.
type scriptRW struct {
	r *bytes.Reader
}

func (s *scriptRW) Read(p []byte) (int, error)  { return s.r.Read(p) }
func (s *scriptRW) Write(p []byte) (int, error) { return len(p), nil }

func frames(t testing.TB, ms ...Message) []byte {
	var buf bytes.Buffer
	for _, m := range ms {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// happyClientScript is the byte stream a correct coordinator sends a
// one-round session-1 client.
func happyClientScript(t testing.TB) []byte {
	p := Params{Gamma: 8, Mu: 1, NumClients: 1, OutDim: 1, Rounds: 1, Seed: 1}
	return frames(t,
		Message{Type: MsgParams, Session: 1, Payload: p.Encode()},
		Message{Type: MsgEvalRequest, Session: 1},
		Message{Type: MsgResult, Session: 1, Payload: Result{Round: 0, Scaled: []int64{3}}.Encode()},
	)
}

func serveClient(t testing.TB, script []byte) (*ClientSession, []Result, error) {
	t.Helper()
	cs := &ClientSession{
		ID:            1,
		Transport:     &scriptRW{r: bytes.NewReader(script)},
		OnParams:      func(Params) error { return nil },
		OnEvalRequest: func(uint32) error { return nil },
	}
	if err := cs.Start(); err != nil {
		t.Fatal(err)
	}
	results, err := cs.Serve()
	return cs, results, err
}

// TestClientServeHappyScript sanity-checks the script harness itself.
func TestClientServeHappyScript(t *testing.T) {
	cs, results, err := serveClient(t, happyClientScript(t))
	if err != nil {
		t.Fatal(err)
	}
	if cs.State() != StateDone || len(results) != 1 {
		t.Fatalf("state %v, %d results; want Done, 1", cs.State(), len(results))
	}
}

// TestClientServeTruncatedStreams: the happy stream cut at every byte
// boundary must fail cleanly (mid-handshake disconnects included) —
// no panic, no hang, never a successful Done from a partial session.
func TestClientServeTruncatedStreams(t *testing.T) {
	script := happyClientScript(t)
	for cut := 0; cut < len(script); cut++ {
		cs, _, err := serveClient(t, script[:cut])
		if err == nil {
			t.Fatalf("cut at %d/%d: Serve returned nil error", cut, len(script))
		}
		if cs.State() == StateDone {
			t.Fatalf("cut at %d/%d: truncated stream reached StateDone", cut, len(script))
		}
	}
}

// TestClientServeOutOfOrderFrames: every frame type arriving in a wrong
// state must be rejected with ErrBadTransition, not acted upon.
func TestClientServeOutOfOrderFrames(t *testing.T) {
	p := Params{Gamma: 8, Mu: 1, NumClients: 1, OutDim: 1, Rounds: 2, Seed: 1}
	paramsMsg := Message{Type: MsgParams, Session: 1, Payload: p.Encode()}
	evalMsg := Message{Type: MsgEvalRequest, Session: 1}
	resultMsg := Message{Type: MsgResult, Session: 1, Payload: Result{Round: 0, Scaled: []int64{3}}.Encode()}
	cases := []struct {
		name   string
		script []byte
	}{
		{"result-before-params", frames(t, resultMsg)},
		{"eval-before-params", frames(t, evalMsg)},
		{"double-params", frames(t, paramsMsg, paramsMsg)},
		{"result-without-eval", frames(t, paramsMsg, resultMsg)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := serveClient(t, tc.script)
			if !errors.Is(err, ErrBadTransition) {
				t.Fatalf("err = %v, want ErrBadTransition", err)
			}
		})
	}
}

// TestClientServeMisdirectedFrame: a frame for another session id is a
// protocol error.
func TestClientServeMisdirectedFrame(t *testing.T) {
	p := Params{Gamma: 8, Mu: 1, NumClients: 1, OutDim: 1, Rounds: 1, Seed: 1}
	_, _, err := serveClient(t, frames(t, Message{Type: MsgParams, Session: 9, Payload: p.Encode()}))
	if err == nil || errors.Is(err, ErrBadTransition) {
		t.Fatalf("err = %v, want a session-mismatch error", err)
	}
}

// TestServerSessionBadTransitions: coordinator-side methods called out
// of order must refuse with ErrBadTransition before touching the wire.
func TestServerSessionBadTransitions(t *testing.T) {
	cases := []struct {
		name string
		op   func(*ServerSession) error
	}{
		{"send-params-in-new", func(s *ServerSession) error { return s.SendParams(Params{}) }},
		{"run-round-in-new", func(s *ServerSession) error { return s.RunRound() }},
		{"send-result-in-new", func(s *ServerSession) error { return s.SendResult(Result{}, false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &ServerSession{ID: 1, Transport: &scriptRW{r: bytes.NewReader(nil)}}
			if err := tc.op(s); !errors.Is(err, ErrBadTransition) {
				t.Fatalf("err = %v, want ErrBadTransition", err)
			}
		})
	}
}

// TestServerSessionPeerDisconnects: the coordinator side against
// truncated client streams — mid-handshake EOF must surface as a read
// error, never a hang or a bogus state advance.
func TestServerSessionPeerDisconnects(t *testing.T) {
	hello := frames(t, Message{Type: MsgHello, Session: 1})
	for cut := 0; cut < len(hello); cut++ {
		s := &ServerSession{ID: 1, Transport: &scriptRW{r: bytes.NewReader(hello[:cut])}}
		if err := s.AwaitHello(); err == nil {
			t.Fatalf("cut at %d: AwaitHello succeeded on truncated hello", cut)
		}
		if s.State() != StateNew {
			t.Fatalf("cut at %d: state advanced to %v on failure", cut, s.State())
		}
	}
	// Full hello then silence: SendParams' ack read hits EOF.
	s := &ServerSession{ID: 1, Transport: &scriptRW{r: bytes.NewReader(hello)}}
	if err := s.AwaitHello(); err != nil {
		t.Fatal(err)
	}
	err := s.SendParams(Params{Gamma: 8, Mu: 1, NumClients: 1, OutDim: 1, Rounds: 1, Seed: 1})
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("SendParams after disconnect = %v, want EOF-ish", err)
	}
}

// FuzzClientServe drives the full client state machine over arbitrary
// coordinator byte streams: it must never panic, and a nil error must
// mean the session genuinely reached StateDone.
func FuzzClientServe(f *testing.F) {
	happy := happyClientScript(f)
	f.Add(happy)
	f.Add(happy[:7])                                                                                               // mid-handshake disconnect
	f.Add(happy[:len(happy)-3])                                                                                    // truncated final frame
	f.Add(frames(f, Message{Type: MsgResult, Session: 1, Payload: Result{Round: 0, Scaled: []int64{3}}.Encode()})) // out of order
	f.Add(frames(f, Message{Type: MsgError, Session: 1, Payload: []byte("abort")}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cs := &ClientSession{
			ID:            1,
			Transport:     &scriptRW{r: bytes.NewReader(data)},
			OnParams:      func(Params) error { return nil },
			OnEvalRequest: func(uint32) error { return nil },
		}
		if err := cs.Start(); err != nil {
			t.Fatalf("Start against discard writer: %v", err)
		}
		results, err := cs.Serve()
		if err == nil && cs.State() != StateDone {
			t.Fatalf("nil error in state %v", cs.State())
		}
		if err != nil && cs.State() == StateDone && len(results) == 0 {
			t.Fatal("Done with an error and no results")
		}
	})
}
