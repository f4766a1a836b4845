package transport

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRoundTrip: get/recycle cycles must be served from the free
// list (a tight loop that never hits would mean recycle is filing
// buffers under the wrong class) and the hit/miss accounting must cover
// every call.
func TestPoolRoundTrip(t *testing.T) {
	h0, m0 := PoolStats()
	const iters = 100
	for i := 0; i < iters; i++ {
		b := GetPayload(200)
		if len(b) != 200 {
			t.Fatalf("GetPayload(200) returned %d bytes", len(b))
		}
		b[0], b[199] = 1, 2
		recycle(b)
	}
	h1, m1 := PoolStats()
	if got := (h1 - h0) + (m1 - m0); got != iters {
		t.Errorf("accounting covered %d of %d GetPayload calls", got, iters)
	}
	if h1 == h0 {
		t.Errorf("%d get/recycle cycles never hit the pool", iters)
	}

	// Oversize frames fall back to plain allocation and recycle drops
	// them silently.
	big := GetPayload(poolClasses[len(poolClasses)-1] + 1)
	if cap(big) != len(big) {
		t.Errorf("oversize GetPayload returned cap %d for len %d", cap(big), len(big))
	}
	recycle(big)
	recycle(nil)
	recycle(make([]byte, 100)) // caller-allocated, cap not a class
}

// TestPoolRoundTripAllocatesNothing: a GetPayload → recycle round trip
// at a class size allocates nothing once the free list is warm — the
// buffer comes back from its class, with no box around it — and nothing
// after a garbage collection either: the free list keeps its buffers.
func TestPoolRoundTripAllocatesNothing(t *testing.T) {
	for _, n := range []int{8, 200, 8 * 1000} {
		allocs := testing.AllocsPerRun(100, func() {
			b := GetPayload(n)
			b[0] = 1
			recycle(b)
		})
		if allocs != 0 {
			t.Errorf("GetPayload(%d) → recycle: %v allocations per round trip, want 0", n, allocs)
		}
		if allocs := allocsAfterGC(10, func() {
			b := GetPayload(n)
			b[0] = 1
			recycle(b)
		}); allocs != 0 {
			t.Errorf("GetPayload(%d) → recycle after two collections: %v allocations per round trip, want 0", n, allocs)
		}
	}
}

// TestFramesAllocateNothing: one frame — GetPayload, SendN, Recv —
// costs no allocation once the free list and the link are warm, over a
// ChanMesh and a TCP mesh with a receive deadline set, and none after
// garbage collections either: the free list keeps its buffers through a
// GC. (bgw's TestFramesAllocateNothing runs a traced row over both.)
func TestFramesAllocateNothing(t *testing.T) {
	const size = 8 * 1000 // one 1 000-element row
	for _, c := range []struct {
		name string
		tcp  bool
	}{{"chan", false}, {"tcp", true}} {
		t.Run(c.name, func(t *testing.T) {
			var m Mesh = NewChanMesh(2)
			if c.tcp {
				m.Close()
				var err error
				if m, err = NewTCPMesh(2); err != nil {
					t.Fatal(err)
				}
			}
			defer m.Close()
			// A receive deadline arms no timer for a frame already there.
			m.SetRecvTimeout(time.Minute)
			a, b := m.Conn(0), m.Conn(1)
			var err error
			frame := func() {
				p := GetPayload(size)
				p[0], p[size-1] = 1, 2
				if err == nil {
					err = a.SendN(1, p, size/8)
				}
				if err == nil {
					var got []byte
					if got, err = b.Recv(0); err == nil && (len(got) != size || got[0] != 1 || got[size-1] != 2) {
						err = errors.New("frame corrupted")
					}
				}
			}
			for i := 0; i < 10; i++ {
				frame()
			}
			warm := testing.AllocsPerRun(100, frame)
			gc := allocsAfterGC(10, frame)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %v allocations per frame warm, %v after two collections", c.name, warm, gc)
			if warm != 0 || gc != 0 {
				t.Errorf("%s: %v allocations per frame warm, %v after two collections; want 0", c.name, warm, gc)
			}
		})
	}
}

// allocsAfterGC returns the allocations of f averaged over runs calls,
// each the first call after two garbage collections (which allocate
// themselves, so they are not counted). Like testing.AllocsPerRun it
// runs at GOMAXPROCS 1 and rounds down to a whole number.
func allocsAfterGC(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total / uint64(runs))
}

// TestNetMeshRecvBufferReuse is the regression test for the TCP mesh
// receive path: when the next frame's payload fits, Recv must decode it
// into the link's existing buffer instead of allocating per frame —
// which is exactly why the ownership rule exists (the previous payload
// is overwritten by the next Recv from the same peer).
func TestNetMeshRecvBufferReuse(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatalf("NewTCPMesh: %v", err)
	}
	defer m.Close()

	send := func(fill byte, n int) {
		b := GetPayload(n)
		for i := range b {
			b[i] = fill + byte(i)
		}
		if err := m.Conn(0).Send(1, b); err != nil {
			t.Fatalf("send %#x: %v", fill, err)
		}
	}
	recv := func(fill byte, n int) []byte {
		b, err := m.Conn(1).Recv(0)
		if err != nil {
			t.Fatalf("recv %#x: %v", fill, err)
		}
		if len(b) != n {
			t.Fatalf("recv %#x: got %d bytes, want %d", fill, len(b), n)
		}
		for i := range b {
			if b[i] != fill+byte(i) {
				t.Fatalf("recv %#x: byte %d = %#x, want %#x", fill, i, b[i], fill+byte(i))
			}
		}
		return b
	}

	send(0x10, 40)
	send(0x20, 40)
	send(0x30, 200)
	send(0x40, 40)

	b1 := recv(0x10, 40)
	b2 := recv(0x20, 40)
	if &b1[0] != &b2[0] {
		t.Errorf("second 40-byte frame did not reuse the link's recv buffer")
	}
	if b1[0] != 0x20 {
		t.Errorf("old payload view survived the next Recv: b1[0] = %#x (the ownership rule says it must be overwritten)", b1[0])
	}
	b3 := recv(0x30, 200) // larger frame: buffer must grow
	if &b3[0] == &b2[0] {
		t.Errorf("200-byte frame decoded into a 40-byte-backed buffer")
	}
	b4 := recv(0x40, 40) // fits in the grown buffer again
	if &b4[0] != &b3[0] {
		t.Errorf("40-byte frame did not reuse the grown recv buffer")
	}
}

// TestChanMeshRecvOwnership: the channel mesh's endpoint stashes each
// peer's latest wire frame and recycles it on the next Recv from that
// peer — the in-memory half of the Recv ownership rule.
func TestChanMeshRecvOwnership(t *testing.T) {
	m := NewChanMesh(2)
	defer m.Close()

	p1 := GetPayload(64)
	for i := range p1 {
		p1[i] = 0xA0 + byte(i)
	}
	p2 := GetPayload(64)
	for i := range p2 {
		p2[i] = 0xB0 + byte(i)
	}
	if err := m.Conn(0).Send(1, p1); err != nil {
		t.Fatal(err)
	}
	if err := m.Conn(0).Send(1, p2); err != nil {
		t.Fatal(err)
	}

	c := &m.conns[1]
	b1, err := c.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if b1[0] != 0xA0 {
		t.Fatalf("first frame byte 0 = %#x", b1[0])
	}
	if &c.prev[0][0] != &b1[0] {
		t.Errorf("endpoint did not stash the first frame for deferred recycling")
	}
	b2, err := c.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if b2[0] != 0xB0 {
		t.Fatalf("second frame byte 0 = %#x", b2[0])
	}
	if &c.prev[0][0] != &b2[0] {
		t.Errorf("endpoint did not rotate the stashed frame on the next Recv")
	}
}

// TestSessionsOnFreshChanMeshesStopMissing: a ChanMesh lives for one
// session, and no endpoint ever makes the Recv that would recycle the
// last frame it took from each peer, so each endpoint's Close hands
// those frames back. Once one session has warmed the free list, every
// later session on a fresh mesh draws its payloads from it: the misses
// stop growing. The frames' class starts empty, so that what earlier
// tests left there cannot hide a frame that is lost.
func TestSessionsOnFreshChanMeshesStopMissing(t *testing.T) {
	const p = 4
	size := poolClasses[len(poolClasses)-1]
	for free[classFor(size)].pop() != nil {
	}
	session := func() {
		m := NewChanMesh(p)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					if err := m.Conn(i).Send(j, GetPayload(size)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					if b, err := m.Conn(i).Recv(j); err != nil || len(b) != size {
						t.Fatalf("party %d from %d: %d bytes, %v", i, j, len(b), err)
					}
				}
			}
			m.Conn(i).Close()
		}
		m.Close()
	}
	session()
	_, before := PoolStats()
	for k := 0; k < 3; k++ {
		session()
	}
	if _, after := PoolStats(); after != before {
		t.Errorf("three sessions on warm fresh meshes missed the free list %d times, want 0", after-before)
	}
}

// TestPooledFramesChaosRace hammers the frame pool through a FaultMesh
// injecting drops and delays: four parties concurrently draw pooled
// payloads, send to every peer, and verify every delivered frame
// against the pattern its own header implies. Run under -race this
// catches any use-after-put — a buffer recycled while a reader still
// holds it is rewritten by the next sender, which the verifier sees as
// corruption and the race detector as a write/read race.
func TestPooledFramesChaosRace(t *testing.T) {
	const p, rounds, frameLen = 4, 60, 64
	fm := NewFaultMesh(NewChanMesh(p), FaultProfile{
		Seed: 11,
		All:  LinkFault{Delay: 100 * time.Microsecond, DropProb: 0.1},
	}, nil)
	defer fm.Close()

	pattern := func(from, to, round, i int) byte {
		return byte((from ^ to<<2 ^ round) + i)
	}
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			conn := fm.Conn(me)
			conn.SetRecvTimeout(2 * time.Millisecond)
			for r := 0; r < rounds; r++ {
				for j := 0; j < p; j++ {
					if j == me {
						continue
					}
					b := GetPayload(frameLen)
					binary.LittleEndian.PutUint32(b[0:], uint32(me))
					binary.LittleEndian.PutUint32(b[4:], uint32(j))
					binary.LittleEndian.PutUint32(b[8:], uint32(r))
					for k := 12; k < len(b); k++ {
						b[k] = pattern(me, j, r, k)
					}
					if err := conn.Send(j, b); err != nil {
						t.Errorf("party %d round %d send to %d: %v", me, r, j, err)
						return
					}
				}
				for j := 0; j < p; j++ {
					if j == me {
						continue
					}
					b, err := conn.Recv(j)
					if errors.Is(err, ErrTimeout) {
						continue // dropped or still in flight
					}
					if err != nil {
						t.Errorf("party %d round %d recv from %d: %v", me, r, j, err)
						return
					}
					from := int(binary.LittleEndian.Uint32(b[0:]))
					to := int(binary.LittleEndian.Uint32(b[4:]))
					rr := int(binary.LittleEndian.Uint32(b[8:]))
					// Peers pace themselves: a frame from the sender's
					// next round can arrive while we are still in this
					// one, so only the global bound applies.
					if from != j || to != me || rr < 0 || rr >= rounds {
						t.Errorf("party %d round %d: frame header (from=%d to=%d round=%d)", me, r, from, to, rr)
						return
					}
					for k := 12; k < len(b); k++ {
						if b[k] != pattern(from, to, rr, k) {
							t.Errorf("party %d: frame from %d round %d corrupted at byte %d", me, from, rr, k)
							return
						}
					}
					delivered.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	if delivered.Load() == 0 {
		t.Fatal("chaos run delivered no frames at all")
	}
	if inj := fm.Injected(); inj.Drops == 0 || inj.Delays == 0 {
		t.Errorf("chaos profile injected nothing: %+v", inj)
	}
}

// waitForGoroutines polls until the goroutine count settles back to at
// most base, failing after the deadline — the leak check shared by the
// Close tests.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after Close: %d live, %d at baseline\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultMeshCloseNoGoroutineLeak: a TCP mesh wrapped in a delaying
// FaultMesh spins up writer pumps and delay forwarders; Close must join
// every one of them.
func TestFaultMeshCloseNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	inner, err := NewTCPMesh(3)
	if err != nil {
		t.Fatalf("NewTCPMesh: %v", err)
	}
	fm := NewFaultMesh(inner, FaultProfile{All: LinkFault{Delay: 100 * time.Microsecond}}, nil)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			b := GetPayload(32)
			for k := range b {
				b[k] = byte(i ^ j)
			}
			if err := fm.Conn(i).Send(j, b); err != nil {
				t.Fatalf("send %d->%d: %v", i, j, err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			b, err := fm.Conn(i).Recv(j)
			if err != nil {
				t.Fatalf("recv %d<-%d: %v", i, j, err)
			}
			if len(b) != 32 || b[0] != byte(i^j) {
				t.Fatalf("recv %d<-%d: bad frame", i, j)
			}
		}
	}
	if err := fm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitForGoroutines(t, base)
}
