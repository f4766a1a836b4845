package protocol_test

import (
	"errors"
	"net"
	"strings"
	"testing"

	"sqm/internal/core"
	"sqm/internal/linalg"
	"sqm/internal/poly"
	"sqm/internal/protocol"
	"sqm/internal/randx"
)

func sessionTestData() (*linalg.Matrix, *poly.Multi) {
	g := randx.New(3)
	x := linalg.NewMatrix(20, 3)
	for i := range x.Data {
		x.Data[i] = g.Gaussian(0, 0.3)
	}
	f := poly.MustMulti(poly.MustPolynomial(3,
		poly.Monomial{Coef: 1, Exps: []int{1, 1, 0}},
		poly.Monomial{Coef: 0.5, Exps: []int{0, 0, 2}},
	))
	return x, f
}

// TestRunSessionDrivesRealSQM wires the session layer to the actual
// mechanism: the coordinator's evaluate callback runs Algorithm 3 and
// every client receives the same scaled outputs it would have opened in
// the MPC.
func TestRunSessionDrivesRealSQM(t *testing.T) {
	x, f := sessionTestData()
	params := protocol.Params{Gamma: 256, Mu: 10, NumClients: 3, OutDim: 1, Rounds: 2, Seed: 77}
	hooks := make([]protocol.ClientHooks, 3)
	var traces []*core.Trace
	outcomes, err := protocol.RunSession(params, hooks, func(round uint32) ([]int64, error) {
		_, tr, err := core.EvaluatePolynomialSum(f, x, core.Params{
			Gamma: params.Gamma, Mu: params.Mu, NumClients: 3,
			Seed: params.Seed + uint64(round),
		})
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
		return tr.Scaled, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("client %d: %v", o.Client, o.Err)
		}
		for r, res := range o.Results {
			if res.Scaled[0] != traces[r].Scaled[0] {
				t.Fatalf("client %d round %d: %d != %d", o.Client, r, res.Scaled[0], traces[r].Scaled[0])
			}
		}
	}
}

// TestRunSessionTCPDrivesActorNet runs the full stack with real network
// traffic twice over: the session frames cross localhost TCP sockets,
// and the evaluate callback runs the party-actor BGW engine whose share
// messages cross their own socket mesh. The opened results must equal
// the plaintext engine's bit for bit.
func TestRunSessionTCPDrivesActorNet(t *testing.T) {
	x, f := sessionTestData()
	params := protocol.Params{Gamma: 256, Mu: 10, NumClients: 3, OutDim: 1, Rounds: 2, Seed: 77}

	// Reference trace per round from the plaintext engine.
	want := make([][]int64, params.Rounds)
	for r := range want {
		_, tr, err := core.EvaluatePolynomialSum(f, x, core.Params{
			Gamma: params.Gamma, Mu: params.Mu, NumClients: 3,
			Seed: params.Seed + uint64(r),
		})
		if err != nil {
			t.Fatal(err)
		}
		want[r] = tr.Scaled
	}

	hooks := make([]protocol.ClientHooks, 3)
	outcomes, err := protocol.RunSessionTCP(params, hooks, func(round uint32) ([]int64, error) {
		_, tr, err := core.EvaluatePolynomialSum(f, x, core.Params{
			Gamma: params.Gamma, Mu: params.Mu, NumClients: 3,
			Engine: core.EngineActorBGWNet, Parties: 3,
			Seed: params.Seed + uint64(round),
		})
		if err != nil {
			return nil, err
		}
		return tr.Scaled, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("client %d: %v", o.Client, o.Err)
		}
		for r, res := range o.Results {
			if res.Scaled[0] != want[r][0] {
				t.Fatalf("client %d round %d: socket MPC opened %d, plain computed %d", o.Client, r, res.Scaled[0], want[r][0])
			}
		}
	}
}

// TestServeRejectsRoundMismatch: a coordinator that replays or skips a
// round's result must be caught by the client's round validation.
func TestServeRejectsRoundMismatch(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	cs := &protocol.ClientSession{ID: 1, Transport: cli}
	done := make(chan error, 1)
	go func() {
		if err := cs.Start(); err != nil {
			done <- err
			return
		}
		_, err := cs.Serve()
		done <- err
	}()
	ss := &protocol.ServerSession{ID: 1, Transport: srv}
	if err := ss.AwaitHello(); err != nil {
		t.Fatal(err)
	}
	if err := ss.SendParams(protocol.Params{NumClients: 1, OutDim: 1, Rounds: 2}); err != nil {
		t.Fatal(err)
	}
	if err := ss.RunRound(); err != nil {
		t.Fatal(err)
	}
	// Deliver a result claiming the wrong round (expected: 0).
	bad := protocol.Result{Round: 5, Scaled: []int64{1}}
	if err := protocol.WriteMessage(srv, protocol.Message{Type: protocol.MsgResult, Session: 1, Payload: bad.Encode()}); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "round") {
		t.Fatalf("Serve accepted a round mismatch: err = %v", err)
	}
}

// TestRunSessionJoinsAllFailures: when several clients fail, the
// coordinator error must name every broken session, not just the first.
func TestRunSessionJoinsAllFailures(t *testing.T) {
	fail := func(protocol.Params) error { return errors.New("commit refused") }
	hooks := []protocol.ClientHooks{{OnParams: fail}, {OnParams: fail}}
	p := protocol.Params{NumClients: 2, OutDim: 1, Rounds: 1}
	_, err := protocol.RunSession(p, hooks, func(uint32) ([]int64, error) { return []int64{0}, nil })
	if err == nil {
		t.Fatal("coordinator must surface the failures")
	}
	for _, want := range []string{"session 1", "session 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q does not mention %s", err, want)
		}
	}
}
