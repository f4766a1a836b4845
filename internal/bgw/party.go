package bgw

import (
	"fmt"

	"sqm/internal/chunk"
	"sqm/internal/field"
	"sqm/internal/randx"
	"sqm/internal/shamir"
)

// actorOp enumerates the commands the engine issues to its parties.
// Every party executes the same command sequence in the same order,
// which keeps share slot indices and the pairwise streams aligned across
// parties without any coordination messages. The parties compute on
// vectors only: one opcode deals (opInputVecs; opInputUnshared keeps),
// one multiplies a level (opMulBatch; opMulUnreduced keeps) and one
// opens (opOpenVec). The engine lowers the scalar shapes onto them —
// Input is an InputVec of one taken apart with opAt, Mul and
// InnerProduct are MulDot items over operands packed with
// opFromScalars, OpenBatch is an OpenVec of packed scalars — and every
// InputVec joins an opInputVecs (Engine.issueRound).
type actorOp uint8

const (
	opInputVecs actorOp = iota
	opInputUnshared
	opZero
	opAdd
	opSub
	opAddConst
	opMulConst
	opAt
	opAddVec
	opGatherBatch
	opLinComb
	opFromScalars
	opMulBatch
	opMulUnreduced
	opOpenVec
	opBarrier
)

// mulDesc is the party-side form of one MulBatch item: operand slots
// resolved by the engine so the parties only index their share arrays.
type mulDesc struct {
	kind MulKind // MulDot, MulHadamard or MulDots
	a, b int     // vector slots (MulDot, MulHadamard)
	// at is where the item's products start in the level's row, which
	// holds every item's in item order: one element, a MulHadamard's n
	// or a MulDots item's one per dot.
	at int
	// A MulDots item's vector slots, each once, and its dots as index
	// pairs into them.
	slots []int
	pairs []int32
}

// width returns how many elements of the level's row the item fills.
func (d *mulDesc) width(a *actorParty) int {
	switch d.kind {
	case MulHadamard:
		return len(a.vc[d.a])
	case MulDots:
		return len(d.pairs) / 2
	}
	return 1
}

// actorCmd is one command, kept by value in the engine's command arena.
// Operand fields are interpreted per opcode. Commands are read-only for
// the parties — the engine never touches a command after it is issued.
type actorCmd struct {
	op actorOp
	// a, b are slot operands. a is also the length of opLinComb, the
	// vector count of opGatherBatch and the row length of a
	// multiplicative level, b the element index of opAt and the level's
	// scalar-valued items.
	a, b int
	c    int64       // public constant
	x    *cmdPayload // set on commands that carry a list or await a reply
}

// cmdPayload holds what does not fit the scalar command: operand lists,
// input vectors and the reply channel of synchronizing commands.
type cmdPayload struct {
	ints  []int64    // coefficients (opLinComb)
	vecs  []vecInput // the input round's vectors (opInputVecs), the unshared vector (opInputUnshared)
	refs  []int      // scalar slots (opFromScalars), vector slots (opLinComb; the reused dot operands of opMulBatch, opMulUnreduced), vector slots then element indices (opGatherBatch)
	muls  []mulDesc  // gate list (opMulBatch, opMulUnreduced)
	reply chan actorReply
}

// vecInput is one input vector, embedded in the field. elems is the
// owner's: it shares them — or scales them, unshared — in place and keeps
// them as its slot; the other parties read only the length.
type vecInput struct {
	owner int
	elems []field.Elem
}

// actorReply is one party's answer to a synchronizing command.
type actorReply struct {
	party int
	vals  []int64
	stats Stats // a barrier's: the party's traffic and FieldOps (no Rounds)
	err   error
}

// actorParty is one BGW party, run by its own goroutine: it owns its
// share slots and its ends of the pairwise streams, and talks to its peers
// only through its link. Every command has a sending half (local
// arithmetic, sharing, the rows that leave) and a receiving half (the rows
// that arrive, the Lagrange fold of a resharing or the sum of an opening,
// the slots filled, the reply), run back to back: sends never block, so no
// party's sending half waits on another's.
type actorParty struct {
	id, p, t int
	weights  []field.Elem
	ownInv   field.Elem // 1/weights[id]: what publish's λ_id cancels on an unshared input
	link     wireLink
	cmds     chan *actorCmd
	// dealing is this party's seeded sharing: the t peers after it draw
	// their rows of every sharing it deals, the others are sent theirs.
	// dealTo[j] is its end of the stream toward seeded peer j, dealFrom[j]
	// its end of the stream from dealer j when it is one of j's seeded
	// peers; both nil otherwise. Like pair, they advance together because
	// every party runs the same commands in the same order, and they are
	// keyed apart from the mask streams.
	dealing          *shamir.Dealing
	dealTo, dealFrom []*randx.RNG
	// pair[j] is this party's end of the mask stream it shares with peer
	// j (nil at its own index): both ends are seeded alike, once, and
	// advance together because every party opens the same elements in
	// the same order. A deployment keys them from a pairwise key
	// agreement at dial time; here they come from Config.Seed.
	pair []*randx.RNG
	// bare publishes an opening without its zero mask. Test-only: the
	// negative control of the simulator test.
	bare bool

	sc []field.Elem // scalar share slots, indexed by handle refs
	// vc holds the vector share slots. No command writes a slot after the
	// one that fills it, but for a batch's, so slots may share backing
	// arrays: every non-owner's slot of an unshared input is a view of
	// zeros, and every slot of a GatherBatch a view of batch.
	vc [][]field.Elem
	// slots carves the outputs of the local vector gates (opAddVec,
	// opLinComb, opFromScalars): a slot is never written after the command
	// that fills it, so they pack into shared chunks.
	slots chunk.Arena[field.Elem]
	// batch holds the rows of the last opGatherBatch, which the next one
	// overwrites: the engine refuses the earlier batch's handles
	// (grow-only, with a quarter to spare for the next batch's size).
	batch []field.Elem
	zeros []field.Elem // never written (grow-only)
	pairs []field.Elem // PairProd of the vector slots a Gram batch reuses, by slot (grow-only)
	gram  []field.Elem // PairProd of a MulDots item's vectors, in its slot order (grow-only)
	// row is this party's own row of a command, kept between its halves:
	// a MulBatch level's local products until the fold, the row an
	// OpenVec publishes, and on party 0 the sum of the opening's rows. The
	// halves of one command run back to back (step), so one grow-only
	// row serves them all.
	row      []field.Elem
	sh       shareScratch // working memory of the sharing sites
	drawn    []field.Elem // a seeded row drawn for a fold (grow-only)
	fieldOps int64
	err      error
}

// run executes the party's commands in issue order until the engine
// closes the stream, then closes the party's endpoint from the goroutine
// that owns it, which hands back the frames it still holds.
func (a *actorParty) run() {
	for c := range a.cmds {
		a.step(c)
	}
	a.link.close()
}

// step runs one command, its sending half and then its receiving half; a
// failed party skips both and answers a synchronizing command with its
// sticky error instead.
func (a *actorParty) step(c *actorCmd) {
	if a.err == nil {
		err := a.send(c)
		if err == nil {
			err = a.recv(c)
		}
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
	case opInputVecs:
		// The input round: this party deals every vector it owns, in item
		// order, one frame per vector and unseeded peer, before it waits on
		// any peer's (recv takes those).
		base := len(a.vc)
		a.vc = append(a.vc, make([][]field.Elem, len(c.x.vecs))...)
		for i, in := range c.x.vecs {
			if in.owner == a.id {
				a.vc[base+i] = in.elems
				if err := a.shareOut(in.elems); err != nil {
					return err
				}
			}
		}
	case opInputUnshared:
		// No sharing: the owner's point is x/λ_owner and every other point
		// 0, which the Lagrange weights over all P points interpolate to x.
		// No randomness is drawn and nothing is sent; only linear gates and
		// openings may read the slot.
		in := c.x.vecs[0]
		n := len(in.elems)
		if in.owner != a.id {
			a.zeros = growElems(a.zeros, n)
			a.vc = append(a.vc, a.zeros[:n:n])
			return nil
		}
		field.MulConstVec(in.elems, in.elems, a.ownInv)
		a.fieldOps += int64(n)
		a.vc = append(a.vc, in.elems)
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
		out := a.slots.Take(len(va))
		field.AddVec(out, va, vb)
		a.vc = append(a.vc, out)
	case opGatherBatch:
		srcs, idx := c.x.refs[:c.a], c.x.refs[c.a:]
		n := len(idx)
		if size := c.a * n; cap(a.batch) < size {
			a.batch = make([]field.Elem, size+size/4)
		}
		for j, s := range srcs {
			out := a.batch[j*n : (j+1)*n : (j+1)*n]
			gatherRows(out, a.vc[s], idx)
			a.vc = append(a.vc, out)
		}
	case opLinComb:
		// c0 + Σ_k cs[k]·vs[k] on this party's shares: the constant is the
		// constant polynomial, added to every share as opAddConst adds it.
		// Without coefficients it is the plain sum, which adds, never
		// multiplies, and meters nothing, as opAddVec.
		out := a.slots.Take(c.a)
		c0 := field.FromInt64(c.c)
		for k := range out {
			out[k] = c0
		}
		for k, r := range c.x.refs {
			if c.x.ints == nil {
				field.AddVec(out, out, a.vc[r])
			} else {
				field.MulAddVec(out, a.vc[r], field.FromInt64(c.x.ints[k]))
			}
		}
		a.vc = append(a.vc, out)
		if c.x.ints != nil {
			a.fieldOps += int64(len(c.x.refs) * c.a)
		}
	case opFromScalars:
		a.vc = append(a.vc, a.gather(c.x.refs))
	case opMulBatch:
		// One degree-reduction round: the local degree-2t value of every
		// product, dealt in row order (mulDesc.at), one row of sub-shares
		// to each unseeded peer; row becomes this party's own row of
		// sub-shares, which the fold reads.
		a.row = growElems(a.row, c.a)
		a.products(a.row, c.x.muls, c.x.refs)
		return a.sendRows(a.sh.share(a.row, a.dealing, a.dealTo))
	case opMulUnreduced:
		// The same local values, kept: the slots hold this party's point
		// of a degree-2t sharing, no randomness is drawn and nothing is
		// sent. Only linear gates and openings may read them.
		return a.keep(c, func(row []field.Elem) error {
			a.products(row, c.x.muls, c.x.refs)
			return nil
		})
	case opOpenVec:
		// Only party 0 decodes, so only party 0 is sent the rows.
		a.row = a.publish(growElems(a.row, len(a.vc[c.a])), a.vc[c.a])
		if a.id != 0 {
			return a.link.send(0, a.row)
		}
	}
	return nil
}

// products leaves in highs the local product of every gate: this
// party's point of the degree-2t sharing of each. reused lists the vector slots the level's dots share
// (Engine.reusedDotSlots): when it is set, every listed slot's pair
// products are computed once, serially, and every dot is a DotWinograd
// — the same element DotAcc gives, from half the multiplications.
func (a *actorParty) products(highs []field.Elem, muls []mulDesc, reused []int) {
	if reused != nil {
		a.pairs = growElems(a.pairs, len(a.vc))
		for _, s := range reused {
			a.pairs[s] = field.PairProd(a.vc[s])
		}
	}
	for i := range muls {
		d := &muls[i]
		switch d.kind {
		case MulDot:
			a.fieldOps += int64(len(a.vc[d.a]))
			if reused != nil {
				highs[d.at] = field.DotWinograd(a.pairs[d.a], a.pairs[d.b], a.vc[d.a], a.vc[d.b])
			} else {
				highs[d.at] = field.DotAcc(0, a.vc[d.a], a.vc[d.b])
			}
		case MulHadamard:
			va := a.vc[d.a]
			a.fieldOps += int64(len(va))
			field.MulVec(highs[d.at:d.at+len(va)], va, a.vc[d.b])
		case MulDots:
			a.dots(highs[d.at:d.at+d.width(a)], d)
		}
	}
}

// dots leaves in out the local products of a MulDots item, one per pair.
// When its dots outnumber its vectors — a Gram level — every vector's pair
// product is computed once and each dot is a DotWinograd, as for a level
// reusedDotSlots lists; otherwise each is a DotAcc. FieldOps counts one
// multiplication per element of every dot either way, as for MulDot.
func (a *actorParty) dots(out []field.Elem, d *mulDesc) {
	winograd := len(d.slots) < len(out)
	if winograd {
		a.gram = growElems(a.gram, len(d.slots))
		for k, s := range d.slots {
			a.gram[k] = field.PairProd(a.vc[s])
		}
	}
	for i := range out {
		ia, ib := d.pairs[2*i], d.pairs[2*i+1]
		va, vb := a.vc[d.slots[ia]], a.vc[d.slots[ib]]
		a.fieldOps += int64(len(va))
		if winograd {
			out[i] = field.DotWinograd(a.gram[ia], a.gram[ib], va, vb)
		} else {
			out[i] = field.DotAcc(0, va, vb)
		}
	}
}

// keep gives the results of a multiplicative command their slots. fill
// leaves the level's row — c.a elements, laid out by mulDesc.at — in the
// slice it is handed; every scalar-valued result takes the next scalar
// slot and the elements of every MulHadamard or MulDots item a vector
// slot of their own, a view of the row. A level of c.b scalar-valued
// items and nothing else is filled straight into the scalar slots.
func (a *actorParty) keep(c *actorCmd, fill func(row []field.Elem) error) error {
	if c.b == len(c.x.muls) {
		base := len(a.sc)
		a.sc = append(a.sc, make([]field.Elem, c.b)...)
		return fill(a.sc[base:])
	}
	row := a.slots.Take(c.a)
	if err := fill(row); err != nil {
		return err
	}
	for i := range c.x.muls {
		d := &c.x.muls[i]
		if d.kind == MulDot {
			a.sc = append(a.sc, row[d.at])
			continue
		}
		end := d.at + d.width(a)
		a.vc = append(a.vc, row[d.at:end:end])
	}
	return nil
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
	case opInputVecs:
		// The peers' rows in item order, each kept as the slot it fills:
		// drawn from the dealer's stream by a seeded peer, taken off the
		// link by the others. Every row drawn or decoded is carved from
		// one array made for the round.
		base := len(a.vc) - len(c.x.vecs)
		rows := make([]field.Elem, a.roundLen(c.x.vecs))
		for i, in := range c.x.vecs {
			if in.owner == a.id {
				continue
			}
			n := len(in.elems)
			row := rows[:n:n]
			rows = rows[n:]
			if s := a.dealFrom[in.owner]; s != nil {
				shamir.Draw(row, s)
			} else if err := a.link.take(in.owner, row); err != nil {
				return err
			}
			a.vc[base+i] = row
		}
	case opMulBatch:
		if err := a.keep(c, func(row []field.Elem) error { return a.fold(row, a.row) }); err != nil {
			return err
		}
		// This party's slice of the resharing cost model.
		a.fieldOps += int64(c.a * (a.p + a.t + 1))
	case opOpenVec:
		// Party 0 reconstructs and decodes for the caller: the published
		// rows sum to the secrets, which it adds into its own row in place.
		// Every other party's row is out.
		r := actorReply{party: a.id}
		if a.id == 0 {
			vals := a.row
			for j := 1; j < a.p; j++ {
				row, err := a.link.recv(j, len(vals))
				if err != nil {
					return err
				}
				field.AddVec(vals, vals, row)
			}
			r.vals = make([]int64, len(vals))
			for k, v := range vals {
				r.vals[k] = field.ToInt64(v)
			}
		}
		c.x.reply <- r
	case opBarrier:
		st := a.link.sent
		st.FieldOps = a.fieldOps
		c.x.reply <- actorReply{party: a.id, stats: st}
	}
	return nil
}

// roundLen is the number of elements this party draws or decodes in an
// input round of vecs: every peer's vector.
func (a *actorParty) roundLen(vecs []vecInput) int {
	n := 0
	for _, in := range vecs {
		if in.owner != a.id {
			n += len(in.elems)
		}
	}
	return n
}

// gatherRows copies src[idx[k]] into dst[k]: the rows of one vector of a
// GatherBatch.
func gatherRows(dst, src []field.Elem, idx []int) {
	for k, i := range idx {
		dst[k] = src[i]
	}
}

// gather copies the scalar slots refs name into a fresh slot.
func (a *actorParty) gather(refs []int) []field.Elem {
	out := a.slots.Take(len(refs))
	for k, r := range refs {
		out[k] = a.sc[r]
	}
	return out
}

// shareOut Shamir-shares elems in order, deals every unseeded peer one
// row carrying its share of each, and replaces elems with this party's
// own shares. FieldOps meters the textbook sharing, P evaluations of a
// degree-t polynomial per element.
func (a *actorParty) shareOut(elems []field.Elem) error {
	a.fieldOps += int64(len(elems) * a.p * (a.t + 1))
	return a.sendRows(a.sh.share(elems, a.dealing, a.dealTo))
}

// sendRows sends every unseeded peer j the row rows[j]; the seeded peers
// draw theirs.
func (a *actorParty) sendRows(rows [][]field.Elem) error {
	for j, row := range rows {
		if j == a.id || a.dealTo[j] != nil {
			continue
		}
		if err := a.link.send(j, row); err != nil {
			return err
		}
	}
	return nil
}

// dealt returns dealer j's next row of n elements for this party, valid
// until the next call: drawn from the stream they share when this party
// is one of j's seeded peers, else received.
func (a *actorParty) dealt(j, n int) ([]field.Elem, error) {
	if s := a.dealFrom[j]; s != nil {
		a.drawn = growElems(a.drawn, n)
		shamir.Draw(a.drawn, s)
		return a.drawn, nil
	}
	return a.link.recv(j, n)
}

// fold takes one row of len(dst) elements from every peer, drawn or
// received (dealt), and leaves in dst the Lagrange combination at zero of
// those rows and mine, this party's own: the new degree-t shares after a
// resharing. Sends never block, so the all-send-then-all-receive shape
// of a round cannot deadlock.
func (a *actorParty) fold(dst, mine []field.Elem) error {
	field.MulConstVec(dst, mine, a.weights[a.id])
	for j := 0; j < a.p; j++ {
		if j == a.id {
			continue
		}
		row, err := a.dealt(j, len(dst))
		if err != nil {
			return err
		}
		field.MulAddVec(dst, row, a.weights[j])
	}
	return nil
}
