package bgw

import (
	"fmt"

	"sqm/internal/field"
	"sqm/internal/randx"
)

// actorOp enumerates the commands the engine issues to its parties.
// Every party executes the same command sequence in the same order,
// which keeps share slot indices and RNG streams aligned across parties
// without any coordination messages. There is no opcode for a gate that
// a batch of one expresses: Input, Mul, InnerProduct, Dot and Open are
// opInputBatch, opMulBatch and opOpenBatch of one.
type actorOp uint8

const (
	opInputVec actorOp = iota
	opInputUnshared
	opInputBatch
	opZero
	opAdd
	opSub
	opAddConst
	opMulConst
	opAt
	opAddVec
	opGather
	opLinComb
	opFromScalars
	opMulBatch
	opMulUnreduced
	opOpenBatch
	opOpenVec
	opAdditive
	opBarrier
)

// queues reports whether the command may wait in the engine's queue:
// only the scalar local gates, which cost the parties a few nanoseconds
// each and nothing on the wire. Everything else flushes the queue the
// moment it is issued (see Engine).
func (op actorOp) queues() bool {
	switch op {
	case opZero, opAdd, opSub, opAddConst, opMulConst, opAt:
		return true
	}
	return false
}

// mulDesc is the party-side form of one MulBatch item: operand slots
// resolved by the engine so the parties only index their share arrays.
type mulDesc struct {
	kind  MulKind
	a, b  int   // scalar (MulScalar) or vector (MulDot) slots
	refs  []int // MulInner operand list A
	refs2 []int // MulInner operand list B
}

// actorCmd is one command, passed by value inside a batch. Operand
// fields are interpreted per opcode. Batches are read-only for the
// parties — the engine never touches a command after it is issued.
type actorCmd struct {
	op   actorOp
	a, b int         // slot operands; a is the owner of opInputVec / opInputUnshared and the length of opLinComb, b the element index of opAt
	c    int64       // public constant
	x    *cmdPayload // set on commands that carry a list or await a reply
}

// cmdPayload holds what does not fit the scalar command: operand lists,
// input vectors and the reply channel of synchronizing commands.
type cmdPayload struct {
	ints    []int64      // signed input vector (opInputVec, opInputUnshared), coefficients (opLinComb)
	inputs  []InputItem  // scalar inputs (opInputBatch)
	refs    []int        // scalar slots (opFromScalars, opOpenBatch), element indices (opGather), vector slots (opLinComb)
	muls    []mulDesc    // gate list (opMulBatch, opMulUnreduced)
	weights []field.Elem // Lagrange weights (opAdditive)
	reply   chan actorReply
}

// actorReply is one party's answer to a synchronizing command.
type actorReply struct {
	party int
	vals  []int64
	elem  field.Elem
	ops   int64
	err   error
}

// actorParty is one BGW party: it owns its share slots and its private
// randomness, and talks to its peers only through its link. Every
// command has a sending half (local arithmetic, sharing, the rows that
// leave) and a receiving half (the rows that arrive, the Lagrange fold
// of a resharing or the sum of an opening, the slots filled, the reply).
// A party goroutine runs the halves back to back; the inline driver runs
// the first half on every party and then the second on every party.
type actorParty struct {
	id, p, t int
	rng      *randx.RNG
	weights  []field.Elem
	ownInv   field.Elem // 1/weights[id]: what publish's λ_id cancels on an unshared input
	link     link
	cmds     chan []actorCmd // command batches of a party goroutine; nil inline
	// pair[j] is this party's end of the mask stream it shares with peer
	// j (nil at its own index): both ends are seeded alike, once, and
	// advance together because every party opens the same elements in
	// the same order. A deployment keys them from a pairwise key
	// agreement at dial time; here they come from Config.Seed.
	pair []*randx.RNG
	// bare publishes an opening without its zero mask. Test-only: the
	// negative control of the simulator test.
	bare bool
	// chunks is how many goroutines a MulBatch's products split over.
	// The driver that builds the party decides: inline parties run one
	// after another and take every core, parties behind a mesh already
	// run P at a time and stay serial (DESIGN.md "Worker pools").
	chunks int

	sc       []field.Elem   // scalar share slots, indexed by handle refs
	vc       [][]field.Elem // vector share slots
	pend     []field.Elem   // this party's own row, kept between the halves
	sh       shareScratch   // working memory of the sharing sites
	pub      []field.Elem   // the row an OpenVec publishes (grow-only)
	acc      []field.Elem   // the sum of an opening's rows (grow-only)
	fieldOps int64
	err      error
}

func (a *actorParty) run() {
	for batch := range a.cmds {
		for i := range batch {
			a.begin(&batch[i])
			a.finish(&batch[i])
		}
	}
}

// begin runs the sending half of one command; a failed party skips it.
func (a *actorParty) begin(c *actorCmd) {
	if a.err == nil {
		if err := a.send(c); err != nil {
			a.fail(err)
		}
	}
}

// finish runs the receiving half of one command; a failed party answers
// synchronizing commands with its sticky error instead.
func (a *actorParty) finish(c *actorCmd) {
	if a.err == nil {
		err := a.recv(c)
		if err == nil {
			return
		}
		a.fail(err)
	}
	if c.x != nil && c.x.reply != nil {
		c.x.reply <- actorReply{party: a.id, err: a.err}
	}
}

// fail latches the party's first error and tears its link down so
// peers waiting on its traffic fail fast instead of hanging mid-round.
func (a *actorParty) fail(err error) {
	a.err = fmt.Errorf("bgw: party %d: %w", a.id, err)
	a.link.close()
}

// send is the sending half: everything up to and including the rows
// this party puts on its link. Local gates complete here.
func (a *actorParty) send(c *actorCmd) error {
	switch c.op {
	case opInputVec:
		if c.a != a.id {
			return nil
		}
		mine := make([]field.Elem, len(c.x.ints))
		for k, v := range c.x.ints {
			mine[k] = field.FromInt64(v)
		}
		a.vc = append(a.vc, mine)
		return a.shareOut(mine)
	case opInputUnshared:
		// No sharing: the owner's point is x/λ_owner and every other point
		// 0, which the Lagrange weights over all P points interpolate to x.
		// No randomness is drawn and nothing is sent; only linear gates and
		// openings may read the slot.
		mine := make([]field.Elem, len(c.x.ints))
		if c.a == a.id {
			for k, v := range c.x.ints {
				mine[k] = field.Mul(field.FromInt64(v), a.ownInv)
			}
			a.fieldOps += int64(len(mine))
		}
		a.vc = append(a.vc, mine)
	case opInputBatch:
		// This party shares the items it owns, in item order, into one
		// frame per peer.
		n := 0
		for _, it := range c.x.inputs {
			if it.Owner == a.id {
				n++
			}
		}
		if n == 0 {
			return nil
		}
		own := make([]field.Elem, 0, n)
		for _, it := range c.x.inputs {
			if it.Owner == a.id {
				own = append(own, it.Elem)
			}
		}
		a.pend = own
		return a.shareOut(own)
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
	case opAt:
		a.sc = append(a.sc, a.vc[c.a][c.b])
	case opAddVec:
		va, vb := a.vc[c.a], a.vc[c.b]
		out := make([]field.Elem, len(va))
		field.AddVec(out, va, vb)
		a.vc = append(a.vc, out)
	case opGather:
		src := a.vc[c.a]
		out := make([]field.Elem, len(c.x.refs))
		for k, i := range c.x.refs {
			out[k] = src[i]
		}
		a.vc = append(a.vc, out)
	case opLinComb:
		// c0 + Σ_k cs[k]·vs[k] on this party's shares: the constant is the
		// constant polynomial, added to every share as opAddConst adds it.
		out := make([]field.Elem, c.a)
		c0 := field.FromInt64(c.c)
		for k := range out {
			out[k] = c0
		}
		for k, r := range c.x.refs {
			field.MulAddVec(out, a.vc[r], field.FromInt64(c.x.ints[k]))
		}
		a.vc = append(a.vc, out)
		a.fieldOps += int64(len(c.x.refs) * c.a)
	case opFromScalars:
		a.vc = append(a.vc, a.gather(c.x.refs))
	case opMulBatch:
		// One degree-reduction round: the local degree-2t value of every
		// gate, Shamir-shared from this party's stream in gate order, one
		// row of sub-shares to each peer.
		highs := make([]field.Elem, len(c.x.muls))
		a.products(highs, c.x.muls)
		rows := a.sh.share(highs, a.p, a.t, a.rng)
		a.pend = rows[a.id]
		return a.sendRows(rows)
	case opMulUnreduced:
		// The same local values, kept: the slots hold this party's point
		// of a degree-2t sharing, no randomness is drawn and nothing is
		// sent. Only linear gates and openings may read them.
		base := len(a.sc)
		a.sc = append(a.sc, make([]field.Elem, len(c.x.muls))...)
		a.products(a.sc[base:], c.x.muls)
	case opOpenBatch:
		row := a.gather(c.x.refs)
		a.pend = a.publish(row, row)
		return a.broadcast(a.pend)
	case opOpenVec:
		a.pub = growElems(a.pub, len(a.vc[c.a]))
		a.pend = a.publish(a.pub, a.vc[c.a])
		return a.broadcast(a.pend)
	}
	return nil
}

// products leaves in highs the local product of every gate: this
// party's point of the degree-2t sharing of each. Op metering runs
// serially (shape-only); the products split into chunks and carry no
// randomness, so every chunk count computes identical highs.
func (a *actorParty) products(highs []field.Elem, muls []mulDesc) {
	for _, d := range muls {
		switch d.kind {
		case MulScalar:
			a.fieldOps++
		case MulInner:
			a.fieldOps += int64(len(d.refs))
		case MulDot:
			a.fieldOps += int64(len(a.vc[d.a]))
		}
	}
	parallelChunks(len(muls), a.chunks, func(start, end int) {
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
}

// publish leaves in dst (which may be shares itself) the row this party
// contributes to an opening: its additive share λ_i·s_i of every secret
// — the Lagrange weights span all P points, so a sharing of any degree
// up to P−1 ≥ 2t opens, an unshared input's x/λ_owner coming out as x in
// its owner's row — plus its share ζ_i of zero, the telescoping pairwise
// mask. The rows of all parties sum to the secrets, and to
// whoever lacks the stream two of the parties share, those two rows are
// uniform subject to that sum (PRIVACY.md "Open the degree you hold").
func (a *actorParty) publish(dst, shares []field.Elem) []field.Elem {
	field.MulConstVec(dst, shares, a.weights[a.id])
	a.fieldOps += int64(len(dst))
	if a.bare {
		return dst
	}
	for j, stream := range a.pair {
		if j != a.id {
			field.PairMask(dst, a.id, j, stream)
		}
	}
	return dst
}

// recv is the receiving half. Commands carrying a reply channel send
// exactly one reply on success; on error finish replies.
func (a *actorParty) recv(c *actorCmd) error {
	switch c.op {
	case opInputVec:
		if c.a == a.id {
			return nil
		}
		// The slot is made before the wait, not after the row is in.
		mine := make([]field.Elem, len(c.x.ints))
		if err := a.link.recvInto(c.a, mine); err != nil {
			return err
		}
		a.vc = append(a.vc, mine)
	case opInputBatch:
		// One row from every owner, in owner order, spread over the
		// items' slots; this party's own row is the one it kept.
		items := c.x.inputs
		base := len(a.sc)
		a.sc = append(a.sc, make([]field.Elem, len(items))...)
		for owner := 0; owner < a.p; owner++ {
			n := 0
			for _, it := range items {
				if it.Owner == owner {
					n++
				}
			}
			if n == 0 {
				continue
			}
			row := a.pend
			if owner != a.id {
				var err error
				if row, err = a.link.recv(owner, n); err != nil {
					return err
				}
			}
			for i, it := range items {
				if it.Owner == owner {
					a.sc[base+i] = row[0]
					row = row[1:]
				}
			}
		}
	case opMulBatch:
		n := len(c.x.muls)
		base := len(a.sc)
		a.sc = append(a.sc, make([]field.Elem, n)...)
		if err := a.fold(a.sc[base:], a.pend); err != nil {
			return err
		}
		// This party's slice of the resharing cost model.
		a.fieldOps += int64(n * (a.p + a.t + 1))
	case opOpenBatch, opOpenVec:
		// Every party reconstructs — the published rows sum to the
		// secrets — and only party 0 decodes for the caller.
		a.acc = growElems(a.acc, len(a.pend))
		vals := a.acc
		copy(vals, a.pend)
		for j := 0; j < a.p; j++ {
			if j == a.id {
				continue
			}
			row, err := a.link.recv(j, len(vals))
			if err != nil {
				return err
			}
			field.AddVec(vals, vals, row)
		}
		r := actorReply{party: a.id}
		if a.id == 0 {
			r.vals = make([]int64, len(vals))
			for k, v := range vals {
				r.vals[k] = field.ToInt64(v)
			}
		}
		c.x.reply <- r
	case opAdditive:
		c.x.reply <- actorReply{party: a.id, elem: field.Mul(c.x.weights[a.id], a.sc[c.a])}
	case opBarrier:
		c.x.reply <- actorReply{party: a.id, ops: a.fieldOps}
	}
	return nil
}

// gather copies the scalar slots refs name into a fresh row.
func (a *actorParty) gather(refs []int) []field.Elem {
	out := make([]field.Elem, len(refs))
	for k, r := range refs {
		out[k] = a.sc[r]
	}
	return out
}

// shareOut Shamir-shares elems in order from this party's stream, sends
// every peer one row carrying its share of each, and replaces elems
// with this party's own shares.
func (a *actorParty) shareOut(elems []field.Elem) error {
	rows := a.sh.share(elems, a.p, a.t, a.rng)
	a.fieldOps += int64(len(elems) * a.p * (a.t + 1))
	copy(elems, rows[a.id])
	return a.sendRows(rows)
}

// sendRows sends every peer j the row rows[j].
func (a *actorParty) sendRows(rows [][]field.Elem) error {
	for j, row := range rows {
		if j == a.id {
			continue
		}
		if err := a.link.send(j, row); err != nil {
			return err
		}
	}
	return nil
}

// broadcast sends every peer the same row.
func (a *actorParty) broadcast(row []field.Elem) error {
	for j := 0; j < a.p; j++ {
		if j == a.id {
			continue
		}
		if err := a.link.send(j, row); err != nil {
			return err
		}
	}
	return nil
}

// fold takes one row of len(dst) elements from every peer and leaves in
// dst the Lagrange combination at zero of those rows and mine, this
// party's own: the new degree-t shares after a resharing. Sends never
// block, so the all-send-then-all-receive shape of a round cannot
// deadlock.
func (a *actorParty) fold(dst, mine []field.Elem) error {
	field.MulConstVec(dst, mine, a.weights[a.id])
	for j := 0; j < a.p; j++ {
		if j == a.id {
			continue
		}
		row, err := a.link.recv(j, len(dst))
		if err != nil {
			return err
		}
		field.MulAddVec(dst, row, a.weights[j])
	}
	return nil
}
