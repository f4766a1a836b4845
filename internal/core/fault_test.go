package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sqm/internal/dp"
	"sqm/internal/poly"
	"sqm/internal/transport"
)

// faultShape is one release shape driven end to end on the actor engine.
// run reports whether the caller was handed anything (an estimate or a
// Trace) and, on success, the frames the whole call put on the wire.
type faultShape struct {
	name    string
	metered bool // core books the release itself (Params.Acct)
	reshare bool // the circuit has a resharing round between input and opening
	setup   bool // the input round is a set-up that releases nothing: the release is a later step
	run     func(p Params) (released bool, frames int64, err error)
}

func faultShapes() []faultShape {
	x := randMatrix(8, 3, 0.5, 5)
	labels := []float64{0, 1, 1, 0, 1, 0, 0, 1}
	cube := poly.MustMulti(poly.MustPolynomial(3, poly.Monomial{Coef: 1, Exps: []int{1, 1, 1}}))
	lrStep := func(build func(p Params) (*LRProtocol, error)) func(Params) (bool, int64, error) {
		return func(p Params) (bool, int64, error) {
			lr, err := build(p)
			if err != nil {
				return lr != nil, 0, err
			}
			defer lr.Close()
			batch := []int{0, 1, 2, 3, 4, 5, 6, 7}
			est, tr, err := lr.GradientSum([]float64{0.25, -0.5}, batch)
			if err != nil {
				return est != nil || tr != nil, 0, err
			}
			return true, lr.SetupStats().Frames + tr.Stats.Frames, nil
		}
	}
	feat := randMatrix(8, 2, 0.5, 6)
	return []faultShape{
		{"covariance", true, false, false, func(p Params) (bool, int64, error) {
			c, tr, err := Covariance(x, p)
			if err != nil {
				return c != nil || tr != nil, 0, err
			}
			return true, tr.Stats.Frames, nil
		}},
		{"polynomial", true, true, false, func(p Params) (bool, int64, error) {
			est, tr, err := EvaluatePolynomialSum(cube, x, p)
			if err != nil {
				return est != nil || tr != nil, 0, err
			}
			return true, tr.Stats.Frames, nil
		}},
		{"lr step", true, false, true, lrStep(func(p Params) (*LRProtocol, error) {
			return NewLRProtocol(feat, labels, p)
		})},
		{"lr3 step", true, true, true, lrStep(func(p Params) (*LRProtocol, error) {
			return NewLR3Protocol(feat, labels, p, 0)
		})},
	}
}

// TestAbortIsTypedBookedAndLeakFree runs every release shape on the stack
// the product runs — core → circuit plan → actor engine → mesh — with a
// link or a party failing at each stage of the protocol. The fail-stop
// contract: the call ends inside the deadline with a typed transport
// error, hands the caller nothing, joins every goroutine, and on the
// shapes core meters the ledger already holds the release — by the time a
// frame is lost, up to P−1 parties may have seen the opening — unless the
// fault cut an LR protocol's set-up, which deals the data and releases
// nothing, and so is not booked.
func TestAbortIsTypedBookedAndLeakFree(t *testing.T) {
	const parties = 3
	defer func(old func(int, ...transport.Option) transport.Mesh) { chanMesh = old }(chanMesh)
	healthy := chanMesh

	// At P = 3, t = 1 party 2 draws party 1's rows of every dealing and
	// party 0 is sent them, and only party 0 is sent the opening's rows,
	// so the link faults sit on 1→0: it carries party 1's input and
	// reshare rows, and last its row of the opening.
	link10 := func(f transport.LinkFault) transport.FaultProfile {
		return transport.FaultProfile{Seed: 1, Links: map[[2]int]transport.LinkFault{{1, 0}: f}}
	}
	// links[i][j] is the number of frames a healthy run sends on the
	// directed link i→j; the last frame on every link into party 0 is the
	// sender's row of the opening, and party 2's last send is that row.
	positions := []struct {
		name    string
		reshare bool // only shapes with a resharing round
		input   bool // the fault is in the input round
		profile func(links *linkFrames) transport.FaultProfile
		hit     func(transport.FaultStats) bool
	}{
		{"input frame lost", false, true,
			func(*linkFrames) transport.FaultProfile { return link10(transport.LinkFault{DropProb: 1}) },
			func(s transport.FaultStats) bool { return s.Drops >= 1 }},
		{"reshare frame lost", true, false,
			func(l *linkFrames) transport.FaultProfile {
				return link10(transport.LinkFault{CutAfter: l.frames[1][0] - 2})
			},
			func(s transport.FaultStats) bool { return s.Cuts >= 1 }},
		{"opening row lost", false, false,
			func(l *linkFrames) transport.FaultProfile {
				return link10(transport.LinkFault{CutAfter: l.frames[1][0] - 1})
			},
			func(s transport.FaultStats) bool { return s.Cuts == 1 }},
		{"party 2 crashes before the opening", false, false,
			func(l *linkFrames) transport.FaultProfile {
				sends := 0
				for _, n := range l.frames[2] {
					sends += n
				}
				return transport.FaultProfile{CrashAfterSends: map[int]int{2: sends - 1}}
			},
			func(s transport.FaultStats) bool { return s.Crashes == 1 }},
	}

	for _, shape := range faultShapes() {
		params := func() Params {
			p := Params{Gamma: 16, Mu: 100, Engine: EngineActorBGW, Parties: parties, Seed: 3,
				Fault: FaultConfig{RecvTimeout: 50 * time.Millisecond}}
			if shape.metered {
				p.Acct = dp.NewAccountant(0)
			}
			return p
		}
		links := &linkFrames{frames: make([][]int, parties)}
		for i := range links.frames {
			links.frames[i] = make([]int, parties)
		}
		chanMesh = func(n int, opts ...transport.Option) transport.Mesh {
			return &countingMesh{Mesh: healthy(n, opts...), links: links}
		}
		_, frames, err := shape.run(params())
		if err != nil {
			t.Fatalf("%s: healthy run: %v", shape.name, err)
		}
		if got := links.total(); got != frames {
			t.Fatalf("%s: the links carried %d frames, the run reports %d", shape.name, got, frames)
		}

		for _, pos := range positions {
			if pos.reshare && !shape.reshare {
				continue
			}
			t.Run(shape.name+"/"+pos.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				var mesh *transport.FaultMesh
				chanMesh = func(n int, opts ...transport.Option) transport.Mesh {
					mesh = transport.NewFaultMesh(transport.NewChanMesh(n, opts...), pos.profile(links))
					return mesh
				}
				p := params()
				type outcome struct {
					released bool
					err      error
				}
				done := make(chan outcome, 1)
				go func() {
					released, _, err := shape.run(p)
					done <- outcome{released, err}
				}()
				var got outcome
				select {
				case got = <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("release hung behind the fault")
				}
				if !errors.Is(got.err, transport.ErrTimeout) && !errors.Is(got.err, transport.ErrClosed) {
					t.Fatalf("err = %v, want a typed transport.ErrTimeout or ErrClosed", got.err)
				}
				if got.released {
					t.Fatal("an aborted release handed the caller an estimate or a Trace")
				}
				if !pos.hit(mesh.Injected()) {
					t.Fatalf("fault missed its stage: injected %+v at %v frames per link", mesh.Injected(), links.frames)
				}
				if shape.metered {
					want := 1
					if shape.setup && pos.input {
						want = 0
					}
					if got := p.Acct.Releases(); got != want {
						t.Fatalf("ledger holds %d releases after an aborted session, want %d", got, want)
					}
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// TestFailedLRSetupReturnsItsError: an LR set-up whose dealing is lost
// fails NewLRProtocol itself with the typed transport error. The set-up
// plan only deals, so the engine issues its input round at the Stats
// barrier, which is also where a party's failure is latched: the error
// must be read after it, not before.
func TestFailedLRSetupReturnsItsError(t *testing.T) {
	defer func(old func(int, ...transport.Option) transport.Mesh) { chanMesh = old }(chanMesh)
	chanMesh = func(n int, opts ...transport.Option) transport.Mesh {
		// At P = 3, t = 1 link 1→0 carries party 1's input rows.
		return transport.NewFaultMesh(transport.NewChanMesh(n, opts...), transport.FaultProfile{
			Seed: 1, Links: map[[2]int]transport.LinkFault{{1, 0}: {DropProb: 1}},
		})
	}
	feat := randMatrix(8, 2, 0.5, 6)
	labels := []float64{0, 1, 1, 0, 1, 0, 0, 1}
	p := Params{Gamma: 16, Mu: 100, Engine: EngineActorBGW, Parties: 3, Seed: 3,
		Fault: FaultConfig{RecvTimeout: 50 * time.Millisecond}}
	lr, err := NewLRProtocol(feat, labels, p)
	if lr != nil {
		defer lr.Close()
	}
	if !errors.Is(err, transport.ErrTimeout) || lr != nil {
		t.Fatalf("NewLRProtocol over a lost dealing: protocol %v, error %v; want none and a transport.ErrTimeout", lr != nil, err)
	}
}

// linkFrames counts the frames every directed link carries, over every
// mesh a run builds.
type linkFrames struct {
	mu     sync.Mutex
	frames [][]int // frames[from][to]
}

func (l *linkFrames) total() int64 {
	var n int64
	for _, row := range l.frames {
		for _, f := range row {
			n += int64(f)
		}
	}
	return n
}

// countingMesh counts every frame its endpoints send into links.
type countingMesh struct {
	transport.Mesh
	links *linkFrames
}

type countingConn struct {
	transport.PartyConn
	links *linkFrames
}

func (m *countingMesh) Conn(party int) transport.PartyConn {
	return &countingConn{PartyConn: m.Mesh.Conn(party), links: m.links}
}

func (c *countingConn) Send(to int, payload []byte) error { return c.SendN(to, payload, 1) }

func (c *countingConn) SendN(to int, payload []byte, msgs int) error {
	c.links.mu.Lock()
	c.links.frames[c.ID()][to]++
	c.links.mu.Unlock()
	return c.PartyConn.SendN(to, payload, msgs)
}

// TestRefusedParamsCostNothing: a Params the field-bound check refuses
// never reaches an engine, so no party saw anything and nothing is booked.
func TestRefusedParamsCostNothing(t *testing.T) {
	for _, shape := range faultShapes() {
		if !shape.metered {
			continue
		}
		for _, kind := range []EngineKind{EnginePlain, EngineActorBGW} {
			p := Params{Gamma: 1 << 31, Mu: 100, Engine: kind, Parties: 3, Seed: 3, Acct: dp.NewAccountant(0)}
			released, _, err := shape.run(p)
			if !errors.Is(err, ErrFieldOverflow) || released {
				t.Fatalf("%s on %v: released = %v, err = %v, want ErrFieldOverflow and nothing", shape.name, kind, released, err)
			}
			if n := p.Acct.Releases(); n != 0 {
				t.Fatalf("%s on %v: refused parameters booked %d releases", shape.name, kind, n)
			}
		}
	}
}

// waitGoroutines fails the test unless the goroutine count settles back
// to base within five seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after the abort: %d live, %d at baseline\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
