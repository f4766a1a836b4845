package transport

import (
	"sync"
	"sync/atomic"
)

// Frame buffers. Every frame of a round is a payload at the sender, a
// trace-stamped copy when tracing is on, and a receive buffer; the
// transport recycles them through one process-wide free list of
// size-classed buffers:
//
//   - Senders draw payloads from GetPayload; after Send the transport
//     owns them and hands them back once they are dead — after the TCP
//     writer pump has written them, or after the receiving ChanMesh
//     endpoint has moved past them or closed.
//   - Receivers get buffers that are valid only until the next Recv
//     from the same peer (the ownership rule documented on
//     PartyConn.Recv); the endpoint recycles or overwrites them on that
//     next call.
//
// The list is process-wide, not per link, because a mesh lives for one
// session: a link's own list would start empty every session and pay
// one buffer for every frame it ever has in flight. Each class is a
// stack of buffers under a mutex, kept across garbage collections, and
// holds at most freeBytes of them, so what the list keeps is bounded by
// the largest burst of frames in flight at once, up to
// len(poolClasses)·freeBytes.
//
// Buffers whose capacity does not exactly match a size class — e.g.
// caller-allocated payloads — are left to the GC, so recycling is
// always safe to attempt and never mixes classes.

// poolClasses are the frame-buffer size classes. Share traffic is 8
// bytes per element, so the classes cover single scalars (with or
// without the 20-byte trace header) through rows of 4 000 elements;
// frames beyond the largest class fall back to plain allocation. They
// double, so a frame fills more than half of its buffer: an input round
// queues every row a party deals at once, and with classes four times
// apart a 1 000-element row (8 016 bytes framed) would hold a 16 KB
// buffer. They stop at 32 KB, where Go's large objects start: such a
// buffer has pages of its own, and keeping it from session to session
// cost more peak memory than the allocation it saves (DESIGN.md "One
// driver").
var poolClasses = [...]int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// freeBytes bounds the bytes one class keeps: 512 buffers of 8 KB,
// against the ≈ 300 a P = 10 covariance session has in flight at once,
// and 128 of the largest class.
const freeBytes = 4 << 20

// freeList is one size class: a stack of buffers of that capacity.
type freeList struct {
	mu   sync.Mutex
	bufs [][]byte
}

var free [len(poolClasses)]freeList

var (
	poolHits   atomic.Int64 // GetPayload calls served from the free list
	poolMisses atomic.Int64 // GetPayload calls that allocated
)

// PoolStats reports how many GetPayload calls were served from the
// free list versus freshly allocated (cumulative, process-wide).
func PoolStats() (hits, misses int64) {
	return poolHits.Load(), poolMisses.Load()
}

// classFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds every class.
func classFor(n int) int {
	for i, c := range poolClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// GetPayload returns a length-n byte slice for building one frame
// payload, drawn from the free list when a size class fits. The
// contents are unspecified — callers must overwrite all n bytes. Hand
// the buffer to Send/SendN and forget it: the transport owns it from
// then on and recycles it when the frame is dead.
func GetPayload(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		poolMisses.Add(1)
		return make([]byte, n)
	}
	if b := free[ci].pop(); b != nil {
		poolHits.Add(1)
		return b[:n]
	}
	poolMisses.Add(1)
	return make([]byte, n, poolClasses[ci])
}

// recycle returns a frame buffer to its class. Buffers whose capacity
// is not exactly a class size (caller-allocated payloads, protocol
// fallbacks) are left to the GC, and so is a buffer its class has no
// room for. The caller must not touch b again.
func recycle(b []byte) {
	ci := classFor(cap(b))
	if ci < 0 || poolClasses[ci] != cap(b) {
		return
	}
	free[ci].push(b[:0], freeBytes/poolClasses[ci])
}

func (l *freeList) pop() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.bufs)
	if n == 0 {
		return nil
	}
	b := l.bufs[n-1]
	l.bufs[n-1] = nil
	l.bufs = l.bufs[:n-1]
	return b
}

// push keeps b unless the class already holds most buffers.
func (l *freeList) push(b []byte, most int) {
	l.mu.Lock()
	if len(l.bufs) < most {
		l.bufs = append(l.bufs, b)
	}
	l.mu.Unlock()
}
