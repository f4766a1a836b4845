package transport

import (
	"sync"
	"sync/atomic"
)

// Frame-buffer pooling. Every frame of a resharing round used to be a
// fresh allocation — payload at the sender, trace wrapper, wire frame,
// receive buffer — which made the allocator the hottest non-arithmetic
// path of a protocol run. The transport now recycles frame buffers
// through size-classed sync.Pools:
//
//   - Senders draw payloads from GetPayload; after Send the transport
//     owns them (that was already the contract) and routes them back to
//     the pool once they are dead — after framing copies them (net
//     mesh) or after the receiving endpoint moves past them (channel
//     mesh).
//   - Receivers get buffers that are valid only until the next Recv
//     from the same peer (the ownership rule documented on
//     PartyConn.Recv); the endpoint recycles or overwrites them on that
//     next call.
//
// Buffers whose capacity does not exactly match a size class — e.g.
// caller-allocated payloads — are silently dropped to the GC, so
// recycling is always safe to attempt and never mixes classes.

// poolClasses are the frame-buffer size classes. Share traffic is 8
// bytes per element, so the classes cover single scalars (with or
// without the 20-byte trace header) through whole-level batches; frames
// beyond the largest class fall back to plain allocation. They double,
// so a frame fills more than half of its buffer: an input round queues
// every row a party deals at once, and with classes four times apart a
// 1 000-element row (8 016 bytes framed) would hold a 16 KB buffer.
var poolClasses = [...]int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144}

var framePools [len(poolClasses)]sync.Pool

// boxPool holds empty *[]byte headers. A pooled buffer travels in one of
// them, and GetPayload hands the emptied header back here for the next
// recycle, so a get/recycle round trip allocates nothing.
var boxPool sync.Pool

var (
	poolHits   atomic.Int64 // GetPayload calls served from a pool
	poolMisses atomic.Int64 // GetPayload calls that allocated
)

// PoolStats reports how many GetPayload calls were served from the
// frame pool versus freshly allocated (cumulative, process-wide).
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
// payload, drawn from the frame pool when a size class fits. The
// contents are unspecified — callers must overwrite all n bytes. Hand
// the buffer to Send/SendN and forget it: the transport owns it from
// then on and recycles it when the frame is dead.
func GetPayload(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		poolMisses.Add(1)
		return make([]byte, n)
	}
	if v := framePools[ci].Get(); v != nil {
		poolHits.Add(1)
		box := v.(*[]byte)
		b := (*box)[:n]
		*box = nil
		boxPool.Put(box)
		return b
	}
	poolMisses.Add(1)
	return make([]byte, n, poolClasses[ci])
}

// recycle returns a frame buffer to its pool. Buffers whose capacity is
// not exactly a class size (caller-allocated payloads, protocol
// fallbacks) are dropped to the GC. The caller must not touch b again.
func recycle(b []byte) {
	if b == nil {
		return
	}
	c := cap(b)
	for i, cs := range poolClasses {
		if c == cs {
			box, _ := boxPool.Get().(*[]byte)
			if box == nil {
				box = new([]byte)
			}
			*box = b[:0]
			framePools[i].Put(box)
			return
		}
	}
}
