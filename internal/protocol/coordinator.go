package protocol

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sqm/internal/obs"
)

// abortTimeout bounds how long the coordinator waits for best-effort
// abort notifications to dead or wedged peers before tearing the
// connections down anyway. A variable so tests can shorten the bound.
var abortTimeout = 2 * time.Second

// ClientHooks is the work a participating client performs at each
// lifecycle step (quantization/noise at commit, its protocol share of
// each round).
type ClientHooks struct {
	// OnParams performs quantization and noise sampling.
	OnParams      func(Params) error
	OnEvalRequest func(round uint32) error
}

// SessionOutcome reports one client's view after a full session.
type SessionOutcome struct {
	Client  int
	Results []Result
	Err     error
}

// RunSession executes a complete SQM session lifecycle over in-memory
// connections: hello, parameters and their ack, p.Rounds evaluation rounds,
// and result broadcast. evaluate runs on the coordinator after every
// client finished its round work and returns the opened scaled values
// (in a deployment this is where the MPC opening happens). Every
// client's view is returned; the coordinator's error (if any) comes
// back separately.
func RunSession(p Params, hooks []ClientHooks, evaluate func(round uint32) ([]int64, error), opts ...SessionOption) ([]SessionOutcome, error) {
	if err := validateSession(p, len(hooks)); err != nil {
		return nil, err
	}
	n := len(hooks)
	cliConns := make([]net.Conn, n)
	srvConns := make([]net.Conn, n)
	for i := 0; i < n; i++ {
		cliConns[i], srvConns[i] = net.Pipe()
	}
	return runSession(p, hooks, evaluate, cliConns, srvConns, applySessionOptions(opts))
}

// RunSessionTCP is RunSession with every client connected to the
// coordinator over a real localhost TCP socket instead of a net.Pipe,
// so the session frames cross the loopback stack. Combined with an
// evaluate callback backed by core's socket-transport engine, a whole
// SQM session runs with genuine network traffic end to end.
func RunSessionTCP(p Params, hooks []ClientHooks, evaluate func(round uint32) ([]int64, error), opts ...SessionOption) ([]SessionOutcome, error) {
	if err := validateSession(p, len(hooks)); err != nil {
		return nil, err
	}
	n := len(hooks)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("protocol: listen: %w", err)
	}
	defer ln.Close()
	cliConns := make([]net.Conn, n)
	srvConns := make([]net.Conn, n)
	closeAll := func() {
		for i := 0; i < n; i++ {
			if cliConns[i] != nil {
				cliConns[i].Close()
			}
			if srvConns[i] != nil {
				srvConns[i].Close()
			}
		}
	}
	// Sequential dial-then-accept keeps the client→connection mapping
	// deterministic; the hello's session id re-validates it.
	for i := 0; i < n; i++ {
		cli, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("protocol: dial client %d: %w", i, err)
		}
		cliConns[i] = cli
		srv, err := ln.Accept()
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("protocol: accept client %d: %w", i, err)
		}
		srvConns[i] = srv
	}
	return runSession(p, hooks, evaluate, cliConns, srvConns, applySessionOptions(opts))
}

func validateSession(p Params, n int) error {
	if n == 0 {
		return fmt.Errorf("protocol: no clients")
	}
	if p.NumClients != uint32(n) {
		return fmt.Errorf("protocol: params announce %d clients but %d are wired", p.NumClients, n)
	}
	if p.Rounds == 0 {
		return fmt.Errorf("protocol: at least one round required")
	}
	return nil
}

// deadlineConn imposes a fresh I/O deadline on every read and write, so
// a single silent peer bounds one operation instead of the whole
// session. Both net.Pipe and TCP connections implement the deadline
// methods.
type deadlineConn struct {
	net.Conn
	d time.Duration
}

func (c deadlineConn) Read(p []byte) (int, error) {
	_ = c.Conn.SetReadDeadline(time.Now().Add(c.d))
	return c.Conn.Read(p)
}

func (c deadlineConn) Write(p []byte) (int, error) {
	_ = c.Conn.SetWriteDeadline(time.Now().Add(c.d))
	return c.Conn.Write(p)
}

// sessionRun is the coordinator's view of one running session.
type sessionRun struct {
	servers  []*ServerSession
	outcomes []SessionOutcome
}

// forAllLive runs op against every server session concurrently (net.Pipe
// is synchronous, so sequential execution would deadlock against clients
// that are mid-write). Every per-session error is collected and joined,
// so a multi-client failure reports every broken session, not just the
// first; any failure is fatal to the session.
func (r *sessionRun) forAllLive(op func(*ServerSession) error) error {
	errs := make([]error, len(r.servers))
	var wg sync.WaitGroup
	for i, s := range r.servers {
		wg.Add(1)
		go func(i int, s *ServerSession) {
			defer wg.Done()
			if err := op(s); err != nil {
				errs[i] = fmt.Errorf("session %d: %w", s.ID, err)
			}
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runSession drives the lifecycle over pre-established connection pairs
// (cliConns[i] is client i's end, srvConns[i] the coordinator's).
func runSession(p Params, hooks []ClientHooks, evaluate func(round uint32) ([]int64, error), cliConns, srvConns []net.Conn, o sessionOptions) ([]SessionOutcome, error) {
	if o.traceDir != "" && o.trace == nil {
		o.trace = obs.NewTraceContext(SessionTraceID(p), 0)
	}
	if o.trace != nil && obs.TraceOf(o.rec) == nil {
		o.rec = o.trace.Coordinator().Wrap(o.rec)
	}
	rec := obs.Or(o.rec)
	n := len(hooks)
	r := &sessionRun{
		servers:  make([]*ServerSession, n),
		outcomes: make([]SessionOutcome, n),
	}
	var clientWG sync.WaitGroup
	for i := 0; i < n; i++ {
		srvT := net.Conn(srvConns[i])
		if o.timeout > 0 {
			srvT = deadlineConn{Conn: srvT, d: o.timeout}
		}
		r.servers[i] = &ServerSession{ID: uint32(i + 1), Transport: srvT}
		cs := &ClientSession{
			ID:            uint32(i + 1),
			Transport:     cliConns[i],
			OnParams:      hooks[i].OnParams,
			OnEvalRequest: hooks[i].OnEvalRequest,
		}
		r.outcomes[i].Client = i
		clientWG.Add(1)
		go func(i int, cs *ClientSession, conn net.Conn) {
			defer clientWG.Done()
			// Closing unblocks a coordinator stuck reading from a
			// client that bailed out mid-protocol.
			defer conn.Close()
			if err := cs.Start(); err != nil {
				r.outcomes[i].Err = err
				return
			}
			r.outcomes[i].Results, r.outcomes[i].Err = cs.Serve()
		}(i, cs, cliConns[i])
	}

	// Context cancellation tears down every coordinator-side connection,
	// which fails the in-flight phase and unwinds the whole session.
	watchdog := make(chan struct{})
	if o.ctx != nil {
		go func() {
			select {
			case <-o.ctx.Done():
				for _, c := range srvConns {
					c.Close()
				}
			case <-watchdog:
			}
		}()
	}

	if rec.Enabled(obs.LevelInfo) {
		rec.Event(obs.LevelInfo, "session.start",
			obs.Int("clients", n), obs.Int("rounds", int(p.Rounds)),
			obs.Float64("gamma", p.Gamma), obs.Float64("mu", p.Mu))
	}
	coordErr := func() error {
		// The two set-up phases are spans: their events carry "seconds".
		sp := obs.StartTracedSpan(rec, "session.hello", 0)
		if err := r.forAllLive((*ServerSession).AwaitHello); err != nil {
			return err
		}
		sp.End(obs.Int("clients", n))
		sp = obs.StartTracedSpan(rec, "session.params", 0)
		if err := r.forAllLive(func(s *ServerSession) error { return s.SendParams(p) }); err != nil {
			return err
		}
		sp.End(obs.Int("clients", n))
		for round := uint32(0); round < p.Rounds; round++ {
			start := time.Now()
			if err := r.forAllLive((*ServerSession).RunRound); err != nil {
				return err
			}
			scaled, err := evaluate(round)
			if err != nil {
				r.abortLive(err.Error())
				if rec.Enabled(obs.LevelWarn) {
					rec.Event(obs.LevelWarn, "session.abort",
						obs.Int("round", int(round)), obs.String("err", err.Error()))
				}
				return err
			}
			res := Result{Round: round, Scaled: scaled}
			final := round == p.Rounds-1
			if err := r.forAllLive(func(s *ServerSession) error { return s.SendResult(res, final) }); err != nil {
				return err
			}
			if rec.Enabled(obs.LevelInfo) {
				rec.Event(obs.LevelInfo, "session.round",
					obs.Int("round", int(round)), obs.Int("outputs", len(scaled)),
					obs.Float64("seconds", time.Since(start).Seconds()))
			}
		}
		return nil
	}()
	close(watchdog)

	// Closing the server ends unblocks clients still reading (e.g. when
	// the coordinator bailed before broadcasting anything).
	for _, c := range srvConns {
		c.Close()
	}
	clientWG.Wait()
	if o.ctx != nil && o.ctx.Err() != nil && coordErr != nil {
		coordErr = errors.Join(coordErr, o.ctx.Err())
	}
	if coordErr == nil && rec.Enabled(obs.LevelInfo) {
		rec.Event(obs.LevelInfo, "session.done",
			obs.Int("clients", n), obs.Int("rounds", int(p.Rounds)))
	}
	// The flight recorders dump on every exit path — an aborted session
	// leaves its black box behind, which is the whole point of one.
	if o.trace != nil && o.traceDir != "" {
		if paths, derr := o.trace.DumpAll(o.traceDir); derr != nil {
			if rec.Enabled(obs.LevelWarn) {
				rec.Event(obs.LevelWarn, "session.trace_dump_failed", obs.String("err", derr.Error()))
			}
		} else if rec.Enabled(obs.LevelInfo) {
			rec.Event(obs.LevelInfo, "session.trace_dump",
				obs.String("dir", o.traceDir), obs.Int("files", len(paths)))
		}
	}
	return r.outcomes, coordErr
}

// abortLive sends a best-effort abort to every client. A dead or
// wedged peer cannot stall the coordinator: each Abort runs on its own
// goroutine and the wait is bounded by abortTimeout — the connections
// are torn down right after, which unblocks any straggling writer.
func (r *sessionRun) abortLive(reason string) {
	var wg sync.WaitGroup
	for _, s := range r.servers {
		wg.Add(1)
		go func(s *ServerSession) {
			defer wg.Done()
			_ = s.Abort(reason)
		}(s)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(abortTimeout):
	}
}

// WithContext cancels the session when ctx does: every coordinator-side
// connection is torn down, the in-flight phase fails, and the returned
// error matches ctx.Err(). A nil ctx is ignored.
func WithContext(ctx context.Context) SessionOption {
	return func(o *sessionOptions) { o.ctx = ctx }
}

// WithTimeout bounds every coordinator-side read and write with a fresh
// deadline of d, so one silent client costs at most d per operation
// instead of hanging the session: the expiry fails the phase and the
// session aborts. d <= 0 leaves I/O unbounded.
func WithTimeout(d time.Duration) SessionOption {
	return func(o *sessionOptions) { o.timeout = d }
}
