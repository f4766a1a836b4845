package protocol

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func sessionParams(n, rounds int) Params {
	return Params{Gamma: 8, Mu: 1, NumClients: uint32(n), OutDim: 1, Rounds: uint32(rounds), Seed: 1}
}

func okHooks(n int) []ClientHooks {
	hooks := make([]ClientHooks, n)
	for i := range hooks {
		hooks[i] = ClientHooks{
			OnParams:      func(Params) error { return nil },
			OnEvalRequest: func(uint32) error { return nil },
		}
	}
	return hooks
}

// TestSessionTimeoutAbortsOnHungClient: a client that stalls mid-round
// trips the coordinator's I/O deadline and the session aborts — nothing
// is evaluated, no client holds a result, every outcome carries an
// error, over the pipe and the socket entry point alike. RunSession joins
// the client goroutines, so it returns when the stalled hook does; the
// coordinator itself gave up one deadline in.
func TestSessionTimeoutAbortsOnHungClient(t *testing.T) {
	const (
		n        = 3
		deadline = 50 * time.Millisecond
		hang     = 300 * time.Millisecond
	)
	type runner func(Params, []ClientHooks, func(uint32) ([]int64, error), ...SessionOption) ([]SessionOutcome, error)
	for name, run := range map[string]runner{"pipe": RunSession, "tcp": RunSessionTCP} {
		t.Run(name, func(t *testing.T) {
			hooks := okHooks(n)
			hooks[1].OnEvalRequest = func(uint32) error {
				time.Sleep(hang)
				return nil
			}
			var evaluated atomic.Int64
			start := time.Now()
			outcomes, err := run(sessionParams(n, 1), hooks,
				func(uint32) ([]int64, error) { evaluated.Add(1); return []int64{7}, nil },
				WithTimeout(deadline),
			)
			if elapsed := time.Since(start); elapsed > hang+time.Second {
				t.Fatalf("session took %v to abort on a %v deadline", elapsed, deadline)
			}
			if !errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), "session 2") {
				t.Fatalf("err = %v, want client 1's deadline expiry", err)
			}
			if evaluated.Load() != 0 {
				t.Fatal("evaluate ran although a client never finished its round")
			}
			for i, out := range outcomes {
				if out.Err == nil || len(out.Results) != 0 {
					t.Fatalf("client %d: %+v, want an error and no results", i, out)
				}
			}
		})
	}
}

// TestSessionStrictModeUnchanged: a single client failure is fatal to
// the session.
func TestSessionStrictModeUnchanged(t *testing.T) {
	const n = 2
	hooks := okHooks(n)
	boom := errors.New("dead")
	hooks[1].OnParams = func(Params) error { return boom }
	_, err := RunSession(sessionParams(n, 1), hooks,
		func(uint32) ([]int64, error) { return []int64{1}, nil })
	if err == nil {
		t.Fatal("strict session with a failed client returned nil error")
	}
}

// TestSessionContextCancel: cancelling the context unwinds a long
// session promptly with an error matching ctx.Err().
func TestSessionContextCancel(t *testing.T) {
	const n = 2
	hooks := okHooks(n)
	for i := range hooks {
		hooks[i].OnEvalRequest = func(uint32) error {
			time.Sleep(20 * time.Millisecond)
			return nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(60 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunSession(sessionParams(n, 1000), hooks,
		func(uint32) ([]int64, error) { return []int64{1}, nil },
		WithContext(ctx),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestAbortBoundedUnderDeadPeer: a peer that accepts no writes cannot
// stall the abort broadcast past the abort deadline (satellite of the
// best-effort abort contract).
func TestAbortBoundedUnderDeadPeer(t *testing.T) {
	old := abortTimeout
	abortTimeout = 100 * time.Millisecond
	defer func() { abortTimeout = old }()

	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close() // never read from: writes to srv block forever
	r := &sessionRun{
		servers:  []*ServerSession{{ID: 1, Transport: srv}},
		outcomes: make([]SessionOutcome, 1),
	}
	start := time.Now()
	r.abortLive("test abort")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("abortLive blocked for %v under a dead peer", elapsed)
	}
}
