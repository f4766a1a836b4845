package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"sqm/internal/field"
	"sqm/internal/protocol"
	"sqm/internal/randx"
	"sqm/internal/shamir"
	"sqm/internal/transport"
)

// Direct probes time leaf functions at the workload's own sizes. Each
// repeats its operation until probeBudget has passed and reports the
// cost of one operation.
const (
	probeBudget = 40 * time.Millisecond
	// probeRecvTimeout bounds the frame probes' receives so a broken
	// mesh fails the probe instead of hanging the run.
	probeRecvTimeout = 10 * time.Second
	probeSeed        = 0x5eed
)

// probeSink keeps probe results alive so the compiler cannot drop the
// measured calls.
var probeSink field.Elem

// perOp runs op in growing batches until the budget is spent and
// returns nanoseconds per call in the fastest batch, so one stall (a
// collection, a descheduled peer) does not decide the probe.
func perOp(op func()) float64 {
	best := math.Inf(1)
	var elapsed time.Duration
	for batch := 1; elapsed < probeBudget; batch *= 2 {
		start := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		took := time.Since(start)
		elapsed += took
		best = math.Min(best, float64(took.Nanoseconds())/float64(batch))
	}
	return best
}

func randomElems(n int, g *randx.RNG) []field.Elem {
	out := make([]field.Elem, n)
	for i := range out {
		out[i] = field.Rand(g)
	}
	return out
}

// melemPerS converts ns per call over n elements to Melem/s.
func melemPerS(n int, nsPerCall float64) float64 {
	return float64(n) / nsPerCall * 1e3
}

// probeField times the three batch kernels the engines lean on, over
// vectors of n elements.
func probeField(n int, metrics map[string]float64) {
	g := randx.New(probeSeed)
	a, b, dst := randomElems(n, g), randomElems(n, g), make([]field.Elem, n)
	metrics["field.dotacc_melem_s"] = melemPerS(n, perOp(func() { probeSink = field.DotAcc(probeSink, a, b) }))
	metrics["field.mulvec_melem_s"] = melemPerS(n, perOp(func() { field.MulVec(dst, a, b) }))
	metrics["field.addvec_melem_s"] = melemPerS(n, perOp(func() { field.AddVec(dst, a, b) }))
	probeSink = field.Add(probeSink, dst[0])
}

// probeShamir times sharing and reconstructing one secret at the
// workload's P and t.
func probeShamir(parties int, metrics map[string]float64) {
	g := randx.New(probeSeed)
	t := (parties - 1) / 2
	secret := field.FromInt64(42)
	var shares []field.Elem
	metrics["shamir.share_ns"] = perOp(func() { shares = shamir.Share(secret, t, parties, g) })
	weights := shamir.LagrangeAtZero(shamir.PartyPoints(parties))
	metrics["shamir.reconstruct_ns"] = perOp(func() { probeSink = shamir.ReconstructWithWeights(weights, shares) })
}

// probeProtocol times framing one share message of size bytes to and
// from memory.
func probeProtocol(size int, metrics map[string]float64) error {
	payload := make([]byte, size)
	var buf bytes.Buffer
	var werr error
	msg := protocol.Message{Type: protocol.MsgShare, Session: 1, Payload: payload}
	metrics["protocol.frame_encode_ns"] = perOp(func() {
		buf.Reset()
		if err := protocol.WriteMessage(&buf, msg); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return fmt.Errorf("protocol probe: %w", werr)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(frame)
	var rbuf []byte
	var rerr error
	metrics["protocol.frame_decode_ns"] = perOp(func() {
		rd.Reset(frame)
		var err error
		if _, rbuf, err = protocol.ReadMessageInto(rd, rbuf); err != nil {
			rerr = err
		}
	})
	if rerr != nil {
		return fmt.Errorf("protocol probe: %w", rerr)
	}
	return nil
}

// probeFrames bounces frames of size bytes between parties 0 and 1 of
// mesh and returns the one-way cost of a frame. It closes the mesh.
func probeFrames(mesh transport.Mesh, size int) (float64, error) {
	defer mesh.Close()
	mesh.SetRecvTimeout(probeRecvTimeout)
	a, b := mesh.Conn(0), mesh.Conn(1)
	send := func(c transport.PartyConn, to int) error {
		return c.Send(to, transport.GetPayload(size))
	}
	// The echo side stops on the first error; closing the mesh on the
	// way out unblocks it.
	echoErr := make(chan error, 1)
	go func() {
		for {
			if _, err := b.Recv(0); err != nil {
				echoErr <- err
				return
			}
			if err := send(b, 0); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	var perr error
	ns := perOp(func() {
		if perr != nil {
			return
		}
		if perr = send(a, 1); perr == nil {
			_, perr = a.Recv(1)
		}
	})
	mesh.Close()
	<-echoErr
	if perr != nil {
		return 0, fmt.Errorf("frame probe: %w", perr)
	}
	return ns / 2, nil
}

// probeTransport times one frame of the workload's mean size over each
// mesh kind, between two of its P parties.
func probeTransport(parties, size int, metrics map[string]float64) error {
	ns, err := probeFrames(transport.NewChanMesh(parties), size)
	if err != nil {
		return err
	}
	metrics["transport.chan_frame_ns"] = ns
	tcp, err := transport.NewTCPMesh(parties)
	if err != nil {
		return fmt.Errorf("frame probe: %w", err)
	}
	if ns, err = probeFrames(tcp, size); err != nil {
		return err
	}
	metrics["transport.tcp_frame_ns"] = ns
	return nil
}
