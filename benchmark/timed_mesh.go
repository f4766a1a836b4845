package main

import (
	"sync/atomic"
	"time"

	"sqm/internal/transport"
)

// timedMesh decorates a transport.Mesh so that every endpoint accounts
// the time its party spends inside Send and blocked inside Recv. It is
// transparent: payloads pass through untouched and are never retained
// (the Recv ownership rule), never read and never logged; counters and
// failure semantics are the inner mesh's own.
type timedMesh struct {
	transport.Mesh
	conns []*timedConn
}

func newTimedMesh(inner transport.Mesh) *timedMesh {
	m := &timedMesh{Mesh: inner, conns: make([]*timedConn, inner.Parties())}
	for i := range m.conns {
		m.conns[i] = &timedConn{PartyConn: inner.Conn(i)}
	}
	return m
}

// Conn returns party i's timed endpoint.
func (m *timedMesh) Conn(party int) transport.PartyConn { return m.conns[party] }

// partyTime is what one party spent in the transport since the last
// harvest.
type partyTime struct {
	send, recvWait time.Duration
	sends, recvs   int64
}

// harvest returns and resets every party's transport time. Call it only
// while the parties are quiescent (after an engine barrier), so the
// interval it covers is the protocol phase that just ended.
func (m *timedMesh) harvest() []partyTime {
	out := make([]partyTime, len(m.conns))
	for i, c := range m.conns {
		out[i] = partyTime{
			send:     time.Duration(c.sendNs.Swap(0)),
			recvWait: time.Duration(c.recvNs.Swap(0)),
			sends:    c.sends.Swap(0),
			recvs:    c.recvs.Swap(0),
		}
	}
	return out
}

// timedConn is one party's endpoint. Each is driven by its party's
// goroutine and read by the session goroutine, hence the atomics.
type timedConn struct {
	transport.PartyConn
	sendNs, recvNs atomic.Int64
	sends, recvs   atomic.Int64
}

func (c *timedConn) Send(to int, payload []byte) error {
	start := time.Now()
	err := c.PartyConn.Send(to, payload)
	c.sendNs.Add(time.Since(start).Nanoseconds())
	c.sends.Add(1)
	return err
}

func (c *timedConn) SendN(to int, payload []byte, msgs int) error {
	start := time.Now()
	err := c.PartyConn.SendN(to, payload, msgs)
	c.sendNs.Add(time.Since(start).Nanoseconds())
	c.sends.Add(1)
	return err
}

func (c *timedConn) Recv(from int) ([]byte, error) {
	start := time.Now()
	payload, err := c.PartyConn.Recv(from)
	c.recvNs.Add(time.Since(start).Nanoseconds())
	c.recvs.Add(1)
	return payload, err
}
