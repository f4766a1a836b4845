package bgw

import (
	"encoding/binary"
	"fmt"

	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/transport"
)

// actorOp enumerates the commands the facade broadcasts to the party
// actors. Every party executes the same command sequence in the same
// order, which keeps share slot indices and RNG streams aligned across
// parties without any coordination messages.
type actorOp uint8

const (
	opInput actorOp = iota
	opInputElem
	opInputVec
	opInputBatch
	opZero
	opAdd
	opSub
	opAddConst
	opMulConst
	opMul
	opInnerProduct
	opDot
	opDotBatch
	opAt
	opAddVec
	opFromScalars
	opOpen
	opOpenVec
	opAdditive
	opBarrier
	opMulBatch
	opOpenBatch
	opSetWorkers
)

// queues reports whether the command may wait in the facade's queue:
// only the scalar local gates, which cost the parties a few nanoseconds
// each and nothing on the wire. Everything else flushes the queue the
// moment it is issued (see ActorEngine).
func (op actorOp) queues() bool {
	switch op {
	case opZero, opAdd, opSub, opAddConst, opMulConst, opAt:
		return true
	}
	return false
}

// mulDesc is the wire form of one MulBatch item: operand slots resolved
// facade-side so the parties only index their share arrays.
type mulDesc struct {
	kind  MulKind
	a, b  int   // scalar (MulScalar) or vector (MulDot) slots
	refs  []int // MulInner operand list A
	refs2 []int // MulInner operand list B
}

// actorCmd is one broadcast command, passed by value inside a batch.
// Operand fields are interpreted per opcode. Batches are read-only for
// the parties — the facade never touches a command after it is sent.
type actorCmd struct {
	op   actorOp
	a, b int         // slot operands; a is the owner of opInput*, b the element index of opAt
	c    int64       // public constant, signed input, raw field input (opInputElem) or pool bound (opSetWorkers)
	x    *cmdPayload // set on commands that carry a list or await a reply
}

// cmdPayload holds what does not fit the scalar command: operand lists,
// input vectors and the reply channel of synchronizing commands.
type cmdPayload struct {
	ints    []int64      // signed input vector (opInputVec)
	inputs  []InputItem  // scalar inputs (opInputBatch)
	refs    []int        // operand list A (opInnerProduct, opDotBatch, opFromScalars, opOpenBatch)
	refs2   []int        // operand list B
	muls    []mulDesc    // gate list (opMulBatch)
	weights []field.Elem // Lagrange weights (opAdditive)
	reply   chan actorReply
}

// actorReply is one party's answer to a synchronizing command.
type actorReply struct {
	party int
	val   int64
	vals  []int64
	elem  field.Elem
	ops   int64
	err   error
}

// actorParty is one BGW party: it owns its share slots and its private
// randomness, and talks to its peers only through the transport. The
// run loop consumes facade command batches until the channel closes.
type actorParty struct {
	id, p, t int
	rng      *randx.RNG
	weights  []field.Elem
	conn     transport.PartyConn
	cmds     chan []actorCmd
	workers  int // per-party pool bound for batched local arithmetic

	sc       []field.Elem   // scalar share slots, indexed by facade refs
	vc       [][]field.Elem // vector share slots
	dec      []field.Elem   // decode scratch, reused across rounds
	sh       shareScratch   // working memory of shareOut and reshare
	fieldOps int64
	err      error
}

func (a *actorParty) run() {
	for batch := range a.cmds {
		for i := range batch {
			a.step(&batch[i])
		}
	}
}

// step executes one command; after the first failure every later
// command is skipped, and synchronizing ones are answered with the
// sticky error.
func (a *actorParty) step(cmd *actorCmd) {
	if a.err == nil {
		err := a.exec(cmd)
		if err == nil {
			return
		}
		a.err = fmt.Errorf("bgw: party %d: %w", a.id, err)
		// Tear down our endpoint so peers blocked on our traffic
		// fail fast instead of hanging mid-round.
		a.conn.Close()
	}
	if cmd.x != nil && cmd.x.reply != nil {
		cmd.x.reply <- actorReply{party: a.id, err: a.err}
	}
}

// exec performs one command. Commands carrying a reply channel must
// send exactly one reply on success; on error the run loop replies.
func (a *actorParty) exec(c *actorCmd) error {
	switch c.op {
	case opInput:
		return a.inputBatch([]InputItem{{Owner: c.a, Elem: field.FromInt64(c.c)}})
	case opInputElem:
		return a.inputBatch([]InputItem{{Owner: c.a, Elem: field.Elem(c.c)}})
	case opInputVec:
		return a.inputVec(c.a, c.x.ints)
	case opInputBatch:
		return a.inputBatch(c.x.inputs)
	case opZero:
		a.sc = append(a.sc, 0)
	case opAdd:
		a.sc = append(a.sc, field.Add(a.sc[c.a], a.sc[c.b]))
	case opSub:
		a.sc = append(a.sc, field.Sub(a.sc[c.a], a.sc[c.b]))
	case opAddConst:
		a.sc = append(a.sc, field.Add(a.sc[c.a], field.FromInt64(c.c)))
	case opMulConst:
		a.sc = append(a.sc, field.Mul(a.sc[c.a], field.FromInt64(c.c)))
		a.fieldOps++
	case opMul:
		prod := field.Mul(a.sc[c.a], a.sc[c.b])
		a.fieldOps++
		out, err := a.reshare([]field.Elem{prod})
		if err != nil {
			return err
		}
		a.sc = append(a.sc, out[0])
	case opInnerProduct:
		refs, refs2 := c.x.refs, c.x.refs2
		var acc field.Elem
		for i := range refs {
			acc = field.Add(acc, field.Mul(a.sc[refs[i]], a.sc[refs2[i]]))
		}
		a.fieldOps += int64(len(refs))
		out, err := a.reshare([]field.Elem{acc})
		if err != nil {
			return err
		}
		a.sc = append(a.sc, out[0])
	case opDot:
		va, vb := a.vc[c.a], a.vc[c.b]
		acc := field.DotAcc(0, va, vb)
		a.fieldOps += int64(len(va))
		out, err := a.reshare([]field.Elem{acc})
		if err != nil {
			return err
		}
		a.sc = append(a.sc, out[0])
	case opDotBatch:
		refs, refs2 := c.x.refs, c.x.refs2
		accs := make([]field.Elem, len(refs))
		for m := range refs {
			a.fieldOps += int64(len(a.vc[refs[m]]))
		}
		parallelChunks(len(refs), a.workers, func(start, end int) {
			for m := start; m < end; m++ {
				accs[m] = field.DotAcc(0, a.vc[refs[m]], a.vc[refs2[m]])
			}
		})
		out, err := a.reshare(accs)
		if err != nil {
			return err
		}
		a.sc = append(a.sc, out...)
	case opAt:
		a.sc = append(a.sc, a.vc[c.a][c.b])
	case opAddVec:
		va, vb := a.vc[c.a], a.vc[c.b]
		out := make([]field.Elem, len(va))
		field.AddVec(out, va, vb)
		a.vc = append(a.vc, out)
	case opFromScalars:
		out := make([]field.Elem, len(c.x.refs))
		for k, r := range c.x.refs {
			out[k] = a.sc[r]
		}
		a.vc = append(a.vc, out)
	case opOpen:
		vals, err := a.openValues([]field.Elem{a.sc[c.a]})
		if err != nil {
			return err
		}
		c.x.reply <- actorReply{party: a.id, val: field.ToInt64(vals[0])}
	case opOpenVec:
		return a.openAndReply(c, a.vc[c.a])
	case opMulBatch:
		// Validation and op metering run serially (shape-only); the
		// per-gate arithmetic splits across the worker pool. Gates have
		// no randomness, so every worker count computes identical highs.
		muls := c.x.muls
		for _, d := range muls {
			switch d.kind {
			case MulScalar:
				a.fieldOps++
			case MulInner:
				a.fieldOps += int64(len(d.refs))
			case MulDot:
				a.fieldOps += int64(len(a.vc[d.a]))
			default:
				return fmt.Errorf("unknown mul kind %d", d.kind)
			}
		}
		highs := make([]field.Elem, len(muls))
		parallelChunks(len(muls), a.workers, func(start, end int) {
			for m := start; m < end; m++ {
				switch d := muls[m]; d.kind {
				case MulScalar:
					highs[m] = field.Mul(a.sc[d.a], a.sc[d.b])
				case MulInner:
					var acc field.Elem
					for i := range d.refs {
						acc = field.Add(acc, field.Mul(a.sc[d.refs[i]], a.sc[d.refs2[i]]))
					}
					highs[m] = acc
				case MulDot:
					highs[m] = field.DotAcc(0, a.vc[d.a], a.vc[d.b])
				}
			}
		})
		out, err := a.reshare(highs)
		if err != nil {
			return err
		}
		a.sc = append(a.sc, out...)
	case opOpenBatch:
		mine := make([]field.Elem, len(c.x.refs))
		for m, r := range c.x.refs {
			mine[m] = a.sc[r]
		}
		return a.openAndReply(c, mine)
	case opAdditive:
		c.x.reply <- actorReply{party: a.id, elem: field.Mul(c.x.weights[a.id], a.sc[c.a])}
	case opBarrier:
		c.x.reply <- actorReply{party: a.id, ops: a.fieldOps}
	case opSetWorkers:
		a.workers = int(c.c)
	default:
		return fmt.Errorf("unknown opcode %d", c.op)
	}
	return nil
}

// openAndReply opens a batch of this party's shares and answers the
// command; only party 0 decodes the values for the caller.
func (a *actorParty) openAndReply(c *actorCmd, mine []field.Elem) error {
	vals, err := a.openValues(mine)
	if err != nil {
		return err
	}
	r := actorReply{party: a.id}
	if a.id == 0 {
		out := make([]int64, len(vals))
		for k, v := range vals {
			out[k] = field.ToInt64(v)
		}
		r.vals = out
	}
	c.x.reply <- r
	return nil
}

// shareOut Shamir-shares elems in order from this party's stream, sends
// every peer one frame carrying its share of each, and replaces elems
// with this party's own shares.
func (a *actorParty) shareOut(elems []field.Elem) error {
	rows := a.sh.share(elems, a.p, a.t, a.rng)
	a.fieldOps += int64(len(elems) * a.p * (a.t + 1))
	copy(elems, rows[a.id])
	return a.sendRows(rows)
}

// sendRows sends every peer j one pooled frame carrying rows[j].
func (a *actorParty) sendRows(rows [][]field.Elem) error {
	for j, row := range rows {
		if j == a.id {
			continue
		}
		buf := transport.GetPayload(8 * len(row))
		for k, s := range row {
			putElem(buf[8*k:], s)
		}
		if err := a.conn.SendN(j, buf, len(row)); err != nil {
			return err
		}
	}
	return nil
}

// recvElems takes the owner's frame of n shares.
func (a *actorParty) recvElems(owner, n int) ([]byte, error) {
	buf, err := a.conn.Recv(owner)
	if err != nil {
		return nil, err
	}
	if len(buf) != 8*n {
		return nil, fmt.Errorf("bad input payload from party %d: %d bytes for %d values", owner, len(buf), n)
	}
	return buf, nil
}

// inputVec shares a whole vector in one batched message per peer.
func (a *actorParty) inputVec(owner int, vs []int64) error {
	mine := make([]field.Elem, len(vs))
	if owner == a.id {
		for k, v := range vs {
			mine[k] = field.FromInt64(v)
		}
		if err := a.shareOut(mine); err != nil {
			return err
		}
	} else {
		buf, err := a.recvElems(owner, len(vs))
		if err != nil {
			return err
		}
		for k := range mine {
			mine[k] = getElem(buf[8*k:])
		}
	}
	a.vc = append(a.vc, mine)
	return nil
}

// inputBatch runs one sharing round for scalars: this party shares the
// items it owns, in item order, into one frame per peer, then takes one
// frame from every other owner. Sends never block, so sending first
// cannot deadlock; frames from different peers may be held together
// under the transport ownership rule.
func (a *actorParty) inputBatch(items []InputItem) error {
	counts := make([]int, a.p)
	for _, it := range items {
		counts[it.Owner]++
	}
	own := make([]field.Elem, 0, counts[a.id])
	for _, it := range items {
		if it.Owner == a.id {
			own = append(own, it.Elem)
		}
	}
	if len(own) > 0 {
		if err := a.shareOut(own); err != nil {
			return err
		}
	}
	bufs := make([][]byte, a.p)
	for owner, n := range counts {
		if owner == a.id || n == 0 {
			continue
		}
		buf, err := a.recvElems(owner, n)
		if err != nil {
			return err
		}
		bufs[owner] = buf
	}
	for _, it := range items {
		if it.Owner == a.id {
			a.sc = append(a.sc, own[0])
			own = own[1:]
		} else {
			a.sc = append(a.sc, getElem(bufs[it.Owner]))
			bufs[it.Owner] = bufs[it.Owner][8:]
		}
	}
	return nil
}

// reshare runs one degree-reduction round for a batch of degree-2t
// values: Shamir-share each local value, send every peer its sub-shares
// in one message, and combine the received sub-shares with the Lagrange
// weights. Sends never block (transport guarantee), so the
// all-send-then-all-receive shape cannot deadlock. Send buffers come
// from the transport frame pool; received payloads are decoded into the
// party's scratch before the next Recv, per the transport ownership
// rule.
func (a *actorParty) reshare(highs []field.Elem) ([]field.Elem, error) {
	n := len(highs)
	rows := a.sh.share(highs, a.p, a.t, a.rng)
	if err := a.sendRows(rows); err != nil {
		return nil, err
	}
	out := make([]field.Elem, n)
	field.MulConstVec(out, rows[a.id], a.weights[a.id])
	a.dec = growElems(a.dec, n)
	for j := 0; j < a.p; j++ {
		if j == a.id {
			continue
		}
		buf, err := a.conn.Recv(j)
		if err != nil {
			return nil, err
		}
		if len(buf) != 8*n {
			return nil, fmt.Errorf("bad reshare payload from party %d: %d bytes for %d values", j, len(buf), n)
		}
		for m := range a.dec {
			a.dec[m] = getElem(buf[8*m:])
		}
		field.MulAddVec(out, a.dec, a.weights[j])
	}
	// Per-party slice of the engine-level reshare cost model, so the
	// sum over parties matches the monolithic engine's accounting.
	a.fieldOps += int64(n * (a.p + a.t + 1))
	return out, nil
}

// openValues runs one opening round for a batch of shared values: every
// party broadcasts its shares and reconstructs by Lagrange
// interpolation at zero.
func (a *actorParty) openValues(mine []field.Elem) ([]field.Elem, error) {
	n := len(mine)
	out := make([]byte, 8*n)
	for m, v := range mine {
		putElem(out[8*m:], v)
	}
	for j := 0; j < a.p; j++ {
		if j == a.id {
			continue
		}
		// Each peer gets its own pooled copy: the transport owns
		// payloads after Send.
		b := transport.GetPayload(8 * n)
		copy(b, out)
		if err := a.conn.SendN(j, b, n); err != nil {
			return nil, err
		}
	}
	vals := make([]field.Elem, n)
	wi := a.weights[a.id]
	field.MulConstVec(vals, mine, wi)
	a.dec = growElems(a.dec, n)
	for j := 0; j < a.p; j++ {
		if j == a.id {
			continue
		}
		buf, err := a.conn.Recv(j)
		if err != nil {
			return nil, err
		}
		if len(buf) != 8*n {
			return nil, fmt.Errorf("bad opening payload from party %d: %d bytes for %d values", j, len(buf), n)
		}
		for m := range a.dec {
			a.dec[m] = getElem(buf[8*m:])
		}
		field.MulAddVec(vals, a.dec, a.weights[j])
	}
	a.fieldOps += int64(n)
	return vals, nil
}

func putElem(b []byte, e field.Elem) { binary.BigEndian.PutUint64(b, uint64(e)) }

func getElem(b []byte) field.Elem { return field.Elem(binary.BigEndian.Uint64(b)) }
