package protocol

import (
	"errors"
	"fmt"
	"io"
)

// State is a session's lifecycle position. The state machines reject
// out-of-order messages: the DP analysis assumes every client committed
// its quantization and local noise *before* any evaluation round, and
// the session layer is where that ordering is enforced.
type State uint8

const (
	// StateNew is the initial state.
	StateNew State = iota
	// StateHelloed means the hello exchange completed.
	StateHelloed
	// StateCommitted means parameters were acknowledged (client has
	// quantized its column and sampled its noise shares).
	StateCommitted
	// StateEvaluating means at least one round is in flight.
	StateEvaluating
	// StateDone means the session ended normally.
	StateDone
	// StateAborted means the session ended with MsgError.
	StateAborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateNew:
		return "New"
	case StateHelloed:
		return "Helloed"
	case StateCommitted:
		return "Committed"
	case StateEvaluating:
		return "Evaluating"
	case StateDone:
		return "Done"
	case StateAborted:
		return "Aborted"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// ErrBadTransition reports a message arriving in the wrong state.
var ErrBadTransition = errors.New("protocol: message not valid in current state")

// ClientSession drives one client's side of an SQM session over a
// transport. Callbacks let the embedding client perform the actual
// work (quantize+commit, evaluate one round) while the session enforces
// ordering.
type ClientSession struct {
	ID        uint32
	Transport io.ReadWriter
	// OnParams must quantize the local column and sample all noise
	// shares for the announced parameters, before any round runs; the
	// ParamsAck it precedes tells the coordinator the client is ready.
	OnParams func(Params) error
	// OnEvalRequest must execute the client's part of round r.
	OnEvalRequest func(round uint32) error

	state State
}

// State returns the current lifecycle position.
func (c *ClientSession) State() State { return c.state }

// Start sends the hello.
func (c *ClientSession) Start() error {
	if c.state != StateNew {
		return fmt.Errorf("%w: Start in %v", ErrBadTransition, c.state)
	}
	if err := WriteMessage(c.Transport, Message{Type: MsgHello, Session: c.ID}); err != nil {
		return err
	}
	c.state = StateHelloed
	return nil
}

// Serve processes messages until MsgResult of the final round, MsgError
// or EOF. It returns the final results (one per round) on success.
func (c *ClientSession) Serve() ([]Result, error) {
	var results []Result
	var want uint32 // rounds expected, learned from Params
	for {
		m, err := ReadMessage(c.Transport)
		if err != nil {
			if errors.Is(err, io.EOF) && c.state == StateDone {
				return results, nil
			}
			return results, err
		}
		if m.Session != c.ID {
			return results, fmt.Errorf("protocol: session %d received frame for %d", c.ID, m.Session)
		}
		switch m.Type {
		case MsgParams:
			if c.state != StateHelloed {
				return results, fmt.Errorf("%w: Params in %v", ErrBadTransition, c.state)
			}
			p, err := DecodeParams(m.Payload)
			if err != nil {
				return results, err
			}
			want = p.Rounds
			if c.OnParams != nil {
				if err := c.OnParams(p); err != nil {
					c.state = StateAborted
					return results, err
				}
			}
			if err := WriteMessage(c.Transport, Message{Type: MsgParamsAck, Session: c.ID}); err != nil {
				return results, err
			}
			c.state = StateCommitted
		case MsgEvalRequest:
			if c.state != StateCommitted && c.state != StateEvaluating {
				return results, fmt.Errorf("%w: EvalRequest in %v", ErrBadTransition, c.state)
			}
			round := uint32(len(results))
			if c.OnEvalRequest != nil {
				if err := c.OnEvalRequest(round); err != nil {
					c.state = StateAborted
					return results, err
				}
			}
			if err := WriteMessage(c.Transport, Message{Type: MsgRoundDone, Session: c.ID}); err != nil {
				return results, err
			}
			c.state = StateEvaluating
		case MsgResult:
			if c.state != StateEvaluating {
				return results, fmt.Errorf("%w: Result in %v", ErrBadTransition, c.state)
			}
			r, err := DecodeResult(m.Payload)
			if err != nil {
				return results, err
			}
			if r.Round != uint32(len(results)) {
				c.state = StateAborted
				return results, fmt.Errorf("protocol: result for round %d, expected round %d", r.Round, uint32(len(results)))
			}
			results = append(results, r)
			if uint32(len(results)) == want {
				c.state = StateDone
				return results, nil
			}
			c.state = StateCommitted
		case MsgError:
			c.state = StateAborted
			return results, fmt.Errorf("protocol: server aborted: %s", m.Payload)
		default:
			return results, fmt.Errorf("protocol: unexpected %v from server", m.Type)
		}
	}
}

// ServerSession drives the coordinator's side against one client
// connection. A real deployment runs one per client and synchronizes
// the rounds; Coordinator below does that for the in-process
// simulation.
type ServerSession struct {
	ID        uint32
	Transport io.ReadWriter

	state State
}

// State returns the current lifecycle position.
func (s *ServerSession) State() State { return s.state }

// AwaitHello consumes the client hello.
func (s *ServerSession) AwaitHello() error {
	if s.state != StateNew {
		return fmt.Errorf("%w: AwaitHello in %v", ErrBadTransition, s.state)
	}
	m, err := ReadMessage(s.Transport)
	if err != nil {
		return err
	}
	if m.Type != MsgHello || m.Session != s.ID {
		return fmt.Errorf("protocol: expected Hello for session %d, got %v/%d", s.ID, m.Type, m.Session)
	}
	s.state = StateHelloed
	return nil
}

// SendParams announces parameters and waits for the client's ack.
func (s *ServerSession) SendParams(p Params) error {
	if s.state != StateHelloed {
		return fmt.Errorf("%w: SendParams in %v", ErrBadTransition, s.state)
	}
	if err := WriteMessage(s.Transport, Message{Type: MsgParams, Session: s.ID, Payload: p.Encode()}); err != nil {
		return err
	}
	m, err := ReadMessage(s.Transport)
	if err != nil {
		return err
	}
	if m.Type != MsgParamsAck {
		return fmt.Errorf("protocol: expected ParamsAck, got %v", m.Type)
	}
	s.state = StateCommitted
	return nil
}

// RunRound issues one evaluation request and waits for completion.
func (s *ServerSession) RunRound() error {
	if s.state != StateCommitted && s.state != StateEvaluating {
		return fmt.Errorf("%w: RunRound in %v", ErrBadTransition, s.state)
	}
	if err := WriteMessage(s.Transport, Message{Type: MsgEvalRequest, Session: s.ID}); err != nil {
		return err
	}
	m, err := ReadMessage(s.Transport)
	if err != nil {
		return err
	}
	if m.Type != MsgRoundDone {
		return fmt.Errorf("protocol: expected RoundDone, got %v", m.Type)
	}
	s.state = StateEvaluating
	return nil
}

// SendResult broadcasts one round's opened result.
func (s *ServerSession) SendResult(r Result, final bool) error {
	if s.state != StateEvaluating {
		return fmt.Errorf("%w: SendResult in %v", ErrBadTransition, s.state)
	}
	if err := WriteMessage(s.Transport, Message{Type: MsgResult, Session: s.ID, Payload: r.Encode()}); err != nil {
		return err
	}
	if final {
		s.state = StateDone
	} else {
		s.state = StateCommitted
	}
	return nil
}

// Abort sends MsgError and marks the session failed.
func (s *ServerSession) Abort(reason string) error {
	err := WriteMessage(s.Transport, Message{Type: MsgError, Session: s.ID, Payload: []byte(reason)})
	s.state = StateAborted
	return err
}
