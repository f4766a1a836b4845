package bgw

import (
	"errors"
	"fmt"
	"sync"

	"sqm/internal/chunk"
	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/obs"
	"sqm/internal/randx"
	"sqm/internal/shamir"
	"sqm/internal/transport"
)

// Engine runs the BGW protocol as P parties, each owning only its
// shares and its ends of the pairwise streams, and each run by its own
// goroutine behind a transport mesh: resharing and opening traffic
// crosses the transport as framed messages, which each party's link
// counts as it sends them. NewEngine puts the parties behind an in-memory
// ChanMesh, NewActorEngine behind the mesh it is given; the parties,
// the seed tree and the command stream are the same, so for one seed
// every mesh carries the same frames, messages and bytes, and the
// parties hold the same shares and open the same values.
//
// The engine is driven by a single caller goroutine. Commands reach
// every party in issue order, which keeps the pairwise streams and the
// pairwise message sequences deterministic. Only operations that reveal
// data (Open*, Stats) synchronize the caller with the parties;
// everything else pipelines.
//
// Every command reaches the parties the moment it is issued, with one
// channel send per party: no gate waits for a later one.
// What a gate leaves on the heap — the command the parties read, its
// payload and operand lists, the caller's handle, and each party's
// output slot — is carved from chunked arenas (chunk.Arena) that live
// as long as the engine, so issuing a local gate allocates nothing but,
// now and then, the next chunk; a GatherBatch's rows go to one array per
// party instead, which the next GatherBatch overwrites. A workload's
// local gates are vector gates (AddVec, GatherBatch, LinComb) and its
// products level-wide batches —
// a per-element product is a MulHadamard item — so the commands of a
// session are counted in levels and columns, not in records.
//
// Every sharing is a seeded dealing: the t parties after the dealer
// draw their shares from a stream each shares with it (shamir.Dealing),
// so a dealing sends only its P−1−t unseeded peers a row. The streams
// are keyed at set-up from Config.Seed, after and apart from the
// openings' pairwise mask streams.
//
// Input vectors travel as one round. InputVec adds its owner and vector
// to the open round, and the engine's next command of any other kind
// issues the round as one command (issueRound), embedding every vector
// in the field into one array carved for the round: every party deals
// all the vectors it owns before it waits on a peer's, so no party's
// dealing waits on another's.
//
// The engine counts its own rounds, where it issues an exchange: the
// input round, a MulBatch's resharing and an OpenVec's opening are one
// round each (Open and OpenBatch are OpenVecs). Local gates,
// InputUnshared, MulBatchUnreduced and any command a failed or closed
// engine drops count none. An input round is issued by the next command,
// so it is in the count once the caller's next synchronizing call (Stats
// or an Open*) returns.
//
// The parties compute on vectors only (actorOp). The scalar gates are
// lowerings onto the vector ones, with the shares, traffic and FieldOps
// those had: Input is element 0 of an InputVec of one, a MulScalar or
// MulInner item is a MulDot over its operands packed with FromScalars
// (mulBatch), and OpenBatch is an OpenVec of the packed scalars.
type Engine struct {
	p, t    int
	mesh    transport.Mesh
	parties []actorParty
	wg      sync.WaitGroup

	// round is the open input round: the owners and vectors InputVec
	// took since the last command was issued. issueRound embeds them and
	// keeps the list's array for the next round.
	round []roundVec
	// The arenas of the caller's side (see Engine). issue writes a
	// command into cmds and hands the parties a pointer to it, so a sent
	// command is never touched again; payloads, idx, coefs and inputs
	// hold what hangs off a command, scalars and vecs the handles, and
	// elems the input vectors embedded in the field: one run per input
	// round, however many vectors it holds.
	cmds     chunk.Arena[actorCmd]
	payloads chunk.Arena[cmdPayload]
	idx      chunk.Arena[int]
	coefs    chunk.Arena[int64]
	inputs   chunk.Arena[vecInput]
	elems    chunk.Arena[field.Elem]
	scalars  chunk.Arena[Shared]
	vecs     chunk.Arena[SharedVec]
	// seen marks vector slots while reusedDotSlots scans a level; all
	// false between levels (grow-only).
	seen []bool

	nextSc, nextVec int
	// batch numbers the GatherBatch calls: the vectors of the last one are
	// the only batch vectors a gate may take (see GatherBatch).
	batch  int
	rounds int64 // the exchanges issued (see Engine)
	// counted is the parties' traffic and FieldOps summed at the last
	// barrier that every party answered (see Stats).
	counted Stats
	err     error
	closed  bool

	rec obs.Recorder // never nil
}

// Shared is an opaque handle to one secret-shared scalar: the slot in
// which every party keeps its share.
type Shared struct {
	eng *Engine
	ref int
	// deg is the degree of the sharing the slots hold: t for an input or
	// a reshared product, deg(a)+deg(b) for an unreduced product, P−1 for
	// an unshared input, 0 for Zero, and the largest operand's for a
	// linear gate. Any degree up to P−1 interpolates to the secret over
	// the P points, so linear gates and openings take every handle; a
	// multiplication takes it only while its operand degrees sum to at
	// most P−1 (ErrOpenOnly), and only a handle of degree at most t is
	// the degree-t sharing a later multiplication may assume.
	deg int
}

// SharedVec is an opaque handle to a secret-shared vector.
type SharedVec struct {
	eng *Engine
	ref int
	n   int
	deg int // as Shared.deg
	// batch is the GatherBatch call that issued the handle, 0 for any
	// other gate's: its slot lives until the next GatherBatch.
	batch int
}

// ErrOpenOnly is the engine failure (see Err) of a multiplicative gate
// whose operand degrees sum above P−1: its local products would leave
// the P points an opening or a resharing interpolates over. An operand
// out of InputUnshared (degree P−1) is refused with any other; an
// unreduced product (degree 2t) is refused unless 3t ≤ P−1.
var ErrOpenOnly = errors.New("bgw: product of degree above P−1: an operand's sharing is of too high a degree")

// Len returns the number of shared elements.
func (v *SharedVec) Len() int { return v.n }

// NewEngine validates the configuration and starts one party goroutine
// per endpoint of an in-memory transport.ChanMesh, which the engine owns.
func NewEngine(cfg Config) (*Engine, error) {
	if _, err := cfg.threshold(); err != nil {
		return nil, err
	}
	return NewActorEngine(cfg, transport.NewChanMesh(cfg.Parties))
}

// NewActorEngine validates the configuration and starts one party
// goroutine per mesh endpoint. The engine owns the mesh: Close tears
// both down.
func NewActorEngine(cfg Config, mesh transport.Mesh) (*Engine, error) {
	if mesh == nil {
		return nil, fmt.Errorf("bgw: NewActorEngine needs a mesh")
	}
	t, err := cfg.threshold()
	if err != nil {
		return nil, err
	}
	if mesh.Parties() != cfg.Parties {
		return nil, fmt.Errorf("bgw: mesh has %d endpoints for %d parties", mesh.Parties(), cfg.Parties)
	}
	// A recorder wrapped with a trace context of one stream per party
	// traces every party's link; a context with the coordinator's stream
	// only traces no link.
	tc := obs.TraceOf(cfg.Recorder).Context()
	if tc != nil && tc.Parties() != 0 && tc.Parties() != cfg.Parties {
		return nil, fmt.Errorf("bgw: trace context has %d party streams, engine has %d parties", tc.Parties(), cfg.Parties)
	}
	if cfg.RecvTimeout > 0 {
		mesh.SetRecvTimeout(cfg.RecvTimeout)
	}
	p := cfg.Parties
	e := &Engine{p: p, t: t, mesh: mesh, parties: make([]actorParty, p), rec: obs.Or(cfg.Recorder)}
	weights := shamir.LagrangeAtZero(shamir.PartyPoints(p))
	dealings := shamir.NewDealings(p, t)
	// Every party's stream ends, three rows of P, come from one array.
	streams := make([]*randx.RNG, 3*p*p)
	for i := range e.parties {
		ends := streams[3*p*i : 3*p*(i+1) : 3*p*(i+1)]
		e.parties[i] = actorParty{id: i, p: p, t: t, weights: weights, ownInv: field.Inv(weights[i]),
			dealing: &dealings[i], pair: ends[:p:p], dealTo: ends[p : 2*p : 2*p], dealFrom: ends[2*p:],
			link: wireLink{conn: mesh.Conn(i)}}
		if tc != nil {
			e.parties[i].link.tr = tc.Party(i)
		}
	}
	// The pairwise mask streams of the openings come first, then every
	// dealer's stream toward each of its seeded peers: separate keys, so
	// no mask stream is ever drawn by a dealing (PRIVACY.md "Seeded
	// dealing"). Every stream, the root's too, is seeded in place in one
	// array: two ends of each pair's stream and of each seeded dealing.
	seeded := 0
	for i := range e.parties {
		seeded += len(e.parties[i].dealing.Peers)
	}
	rngs := make([]randx.RNG, 1+p*(p-1)+2*seeded)
	root, rngs := &rngs[0], rngs[1:]
	root.Seed(cfg.Seed)
	ends := func() (*randx.RNG, *randx.RNG) {
		key := root.Uint64()
		a, b := &rngs[0], &rngs[1]
		a.Seed(key)
		b.Seed(key)
		rngs = rngs[2:]
		return a, b
	}
	for i := range e.parties {
		for j := i + 1; j < p; j++ {
			e.parties[i].pair[j], e.parties[j].pair[i] = ends()
		}
	}
	for o := range e.parties {
		for _, j := range e.parties[o].dealing.Peers {
			e.parties[o].dealTo[j], e.parties[j].dealFrom[o] = ends()
		}
	}
	e.wg.Add(p)
	for i := range e.parties {
		pa := &e.parties[i]
		// The parties fall behind the caller by at most 256 commands.
		pa.cmds = make(chan *actorCmd, 256)
		go func() {
			defer e.wg.Done()
			pa.run()
		}()
	}
	return e, nil
}

// threshold validates the party count and returns t, the configured one
// or the largest P admits.
func (cfg Config) threshold() (int, error) {
	if cfg.Parties < 3 {
		return 0, fmt.Errorf("bgw: need at least 3 parties, got %d", cfg.Parties)
	}
	t := cfg.Threshold
	if t == 0 {
		t = (cfg.Parties - 1) / 2
	}
	if t < 1 || cfg.Parties < 2*t+1 {
		return 0, fmt.Errorf("bgw: threshold %d invalid for %d parties (need P >= 2t+1, t >= 1)", t, cfg.Parties)
	}
	return t, nil
}

// Parties returns P.
func (e *Engine) Parties() int { return e.p }

// Threshold returns t.
func (e *Engine) Threshold() int { return e.t }

// Recorder returns the engine's telemetry sink (never nil).
func (e *Engine) Recorder() obs.Recorder { return e.rec }

// Err returns the first failure any party hit (transport abort, EOF
// mid-round, malformed frame, a receive deadline); nil while healthy.
func (e *Engine) Err() error { return e.err }

// Stats synchronizes with the parties and returns the counters since
// the engine started: rounds as the engine issued them (see Engine), and
// frames/messages/bytes and field operations summed over what each
// party's link sent and what it computed (see wireLink). Once the engine
// has failed or closed there is no barrier to sum them at, and they stay
// at the last one's. A phase's counters are the difference of two
// snapshots (Stats.Sub).
func (e *Engine) Stats() Stats {
	replies, ok := e.call(actorCmd{op: opBarrier, x: e.payloads.Put(cmdPayload{})})
	if ok && e.err == nil {
		var sum Stats
		for _, r := range replies {
			sum = sum.Add(r.stats)
		}
		e.counted = sum
	}
	s := e.counted
	s.Rounds = e.rounds
	return s
}

// Close ends the engine; closing twice is harmless. It tears the mesh
// down — parties blocked mid-round are unblocked by the teardown — and
// joins the party goroutines. An input round still open is dropped —
// nothing can observe its results any more.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.round = nil
	e.mesh.Close()
	for i := range e.parties {
		close(e.parties[i].cmds)
	}
	e.wg.Wait()
	return nil
}

// dispatch issues one command to every party, after the open input
// round, in issue order; reports false when the engine is failed or
// closed (the command must then be skipped).
func (e *Engine) dispatch(c actorCmd) bool {
	e.issueRound()
	if e.err != nil || e.closed {
		return false
	}
	e.issue(c)
	return true
}

// issueRound issues the open input round, if there is one, as one
// opInputVecs command; a failed or closed engine drops it. Every vector
// is embedded in the field here, into one run of elems carved for the
// whole round, and each owner keeps its part as its slot: the callers'
// vectors are theirs again once the round is issued.
func (e *Engine) issueRound() {
	if len(e.round) == 0 {
		return
	}
	if e.err == nil && !e.closed {
		total := 0
		for _, in := range e.round {
			total += len(in.vs)
		}
		elems := e.elems.Take(total)
		vecs := e.inputs.Take(len(e.round))
		for i, in := range e.round {
			n := len(in.vs)
			vecs[i] = vecInput{owner: in.owner, elems: embed(elems[:n:n], in.vs)}
			elems = elems[n:]
		}
		e.issue(actorCmd{op: opInputVecs, x: e.payloads.Put(cmdPayload{vecs: vecs})})
		e.rounds++
	}
	clear(e.round) // the callers' vectors are not held past their round
	e.round = e.round[:0]
}

// issue hands one command to every party through its channel, written
// into the command arena (see Engine).
func (e *Engine) issue(c actorCmd) {
	sent := e.cmds.Put(c)
	for i := range e.parties {
		e.parties[i].cmds <- sent
	}
}

// call dispatches a synchronizing command and collects the parties'
// replies; ok is false when the engine was already failed or closed.
func (e *Engine) call(c actorCmd) (replies []actorReply, ok bool) {
	c.x.reply = make(chan actorReply, e.p)
	if !e.dispatch(c) {
		return nil, false
	}
	return e.await(c.x.reply), true
}

// await collects exactly one reply per party and latches the first
// error into the engine's sticky failure state.
func (e *Engine) await(reply chan actorReply) []actorReply {
	replies := make([]actorReply, e.p)
	for i := 0; i < e.p; i++ {
		r := <-reply
		if r.err != nil && e.err == nil {
			e.err = r.err
			if e.rec.Enabled(obs.LevelWarn) {
				e.rec.Event(obs.LevelWarn, "bgw.party.failed",
					obs.Int("party", r.party), obs.String("err", r.err.Error()))
			}
		}
		replies[r.party] = r
	}
	return replies
}

// newVec issues the handle of the next vector slot.
func (e *Engine) newVec(n, deg int) *SharedVec {
	e.nextVec++
	return e.vecs.Put(SharedVec{eng: e, ref: e.nextVec - 1, n: n, deg: deg})
}

// shared resolves a scalar handle this engine issued.
func (e *Engine) shared(v Val) *Shared {
	s, ok := v.(*Shared)
	if !ok || s.eng != e {
		panic(invariant.Violation("bgw: share from a different engine"))
	}
	return s
}

// sharedVec resolves a vector handle this engine issued. A vector of a
// batch before the last GatherBatch is refused like a foreign one: the
// parties have written the next batch over its slot.
func (e *Engine) sharedVec(v Vec) *SharedVec {
	s, ok := v.(*SharedVec)
	if !ok || s.eng != e {
		panic(invariant.Violation("bgw: vector from a different engine"))
	}
	if s.batch != 0 && s.batch != e.batch {
		panic(invariant.Violation("bgw: vector of batch %d used after batch %d was gathered", s.batch, e.batch))
	}
	return s
}

// refuseOpenOnly fails the engine: a multiplicative gate would take its
// local products to degree deg, above P−1, and compute a wrong value.
func (e *Engine) refuseOpenOnly(deg int) {
	if e.err == nil {
		e.err = fmt.Errorf("%w (degree %d at P = %d)", ErrOpenOnly, deg, e.p)
	}
}

func (e *Engine) checkParty(i int) {
	if i < 0 || i >= e.p {
		panic(invariant.Violation("bgw: party %d out of range [0,%d)", i, e.p))
	}
}

// ---- Evaluator operations ----

// local dispatches a command that fills the next scalar slot without a
// reply and returns the slot's handle, a sharing of degree deg: a linear
// gate's is its largest operand's.
func (e *Engine) local(c actorCmd, deg int) Val {
	h := e.scalars.Put(Shared{eng: e, ref: e.nextSc, deg: deg})
	e.nextSc++
	e.dispatch(c)
	return h
}

// Input has party owner secret-share the signed value v: element 0 of an
// InputVec of one, which joins the open input round.
func (e *Engine) Input(owner int, v int64) Val {
	return e.At(e.InputVec(owner, []int64{v}), 0)
}

// InputElem has party owner secret-share a raw field element, as Input
// shares its signed representative.
func (e *Engine) InputElem(owner int, el field.Elem) Val {
	return e.Input(owner, field.ToInt64(el))
}

// InputVec has party owner secret-share the signed vector vs, one frame
// per unseeded peer, as part of the open input round: the engine issues the
// vectors InputVec takes between two of its other commands as one
// command (see Engine). vs is read when the round is issued — by the
// engine's next command of another kind — and is the caller's again
// after that.
func (e *Engine) InputVec(owner int, vs []int64) Vec {
	e.checkParty(owner)
	e.round = append(e.round, roundVec{owner: owner, vs: vs})
	return e.newVec(len(vs), e.t)
}

// roundVec is one vector of the open input round, as InputVec took it.
type roundVec struct {
	owner int
	vs    []int64
}

// embed writes the signed vector vs into dst, embedded in the field, and
// returns dst.
func embed(dst []field.Elem, vs []int64) []field.Elem {
	for k, v := range vs {
		dst[k] = field.FromInt64(v)
	}
	return dst
}

// InputUnshared enters party owner's signed vector vs without sharing
// it: the owner keeps λ_owner⁻¹·vs in the slot and every other party 0,
// so the slots interpolate to vs over the P points — a sharing of degree
// P−1 — while no randomness is drawn, nothing is sent and no round
// passes. The handle may flow through linear gates into an opening and
// nowhere else (a multiplication by anything of degree above 0 would
// pass P−1: ErrOpenOnly): there the owner's published row carries vs under the
// opening's zero mask, which hides it as the sharing would have
// (PRIVACY.md "Add what only you know at the opening"). circuit.Plan
// issues this for an input leaf that reaches nothing but openings.
func (e *Engine) InputUnshared(owner int, vs []int64) Vec {
	e.checkParty(owner)
	in := e.inputs.Take(1)
	in[0] = vecInput{owner: owner, elems: embed(e.elems.Take(len(vs)), vs)}
	out := e.newVec(len(vs), e.p-1)
	e.dispatch(actorCmd{op: opInputUnshared, x: e.payloads.Put(cmdPayload{vecs: in})})
	return out
}

// Zero returns a trivial sharing of 0, the constant polynomial (degree
// 0); local.
func (e *Engine) Zero() Val { return e.local(actorCmd{op: opZero}, 0) }

// Add returns a sharing of a + b; local.
func (e *Engine) Add(a, b Val) Val {
	sa, sb := e.shared(a), e.shared(b)
	return e.local(actorCmd{op: opAdd, a: sa.ref, b: sb.ref}, max(sa.deg, sb.deg))
}

// Sub returns a sharing of a − b; local.
func (e *Engine) Sub(a, b Val) Val {
	sa, sb := e.shared(a), e.shared(b)
	return e.local(actorCmd{op: opSub, a: sa.ref, b: sb.ref}, max(sa.deg, sb.deg))
}

// AddConst returns a sharing of a + c; local (the constant polynomial c
// added to every share).
func (e *Engine) AddConst(a Val, c int64) Val {
	sa := e.shared(a)
	return e.local(actorCmd{op: opAddConst, a: sa.ref, c: c}, sa.deg)
}

// MulConst returns a sharing of c·a; local.
func (e *Engine) MulConst(a Val, c int64) Val {
	sa := e.shared(a)
	return e.local(actorCmd{op: opMulConst, a: sa.ref, c: c}, sa.deg)
}

// Mul returns a sharing of a·b: every party multiplies its shares
// locally and the parties run one degree-reduction resharing round. A
// MulBatch of one.
func (e *Engine) Mul(a, b Val) Val {
	return e.MulBatch([]MulItem{{Kind: MulScalar, A: a, B: b}})[0]
}

// InnerProduct returns a sharing of Σ_k a[k]·b[k] with the fused gate:
// local sums of share products, then a single resharing. This is what
// makes Gram matrices and gradient sums communication-cheap (one
// resharing per output instead of per product). A MulBatch of one.
func (e *Engine) InnerProduct(as, bs []Val) Val {
	return e.MulBatch([]MulItem{{Kind: MulInner, As: as, Bs: bs}})[0]
}

// Dot returns a sharing of ⟨a, b⟩ with the fused gate (one resharing);
// a MulBatch of one.
func (e *Engine) Dot(a, b Vec) Val {
	return e.MulBatch([]MulItem{{Kind: MulDot, VA: a, VB: b}})[0]
}

// DotBatch evaluates many fused inner products in one batched resharing
// round: a MulBatch of MulDot items. workers is ignored — each party
// computes its products serially on its own goroutine (DESIGN.md "Worker
// pools"); the parameter stays because decorators of Evaluator override
// the method with it.
func (e *Engine) DotBatch(pairs []VecPair, workers int) []Val {
	_ = workers
	items := make([]MulItem, len(pairs))
	for i, pr := range pairs {
		items[i] = MulItem{Kind: MulDot, VA: pr.A, VB: pr.B}
	}
	return e.MulBatch(items)
}

// MulBatch evaluates one level of independent multiplicative gates in a
// single batched degree-reduction round: every party computes all local
// products, then one reshare exchange carries every sub-share in one
// frame per party and unseeded peer. Every product of degree up to P−1
// reduces, and the handles are degree-t sharings.
func (e *Engine) MulBatch(items []MulItem) []Val { return e.mulBatch(opMulBatch, items) }

// MulBatchUnreduced evaluates one level of multiplicative gates and
// stops before the degree reduction: every party keeps its local
// product, nothing is sent and no round passes. A handle's degree is the
// sum of its operands' (the largest pair's, for an inner product): it
// may flow through linear gates into an opening, into a MulBatch that
// reduces it, or into another product while the degrees still sum to at
// most P−1 — beyond that the engine fails with ErrOpenOnly.
// circuit.Plan issues this for every product no later gate needs at
// degree t.
func (e *Engine) MulBatchUnreduced(items []MulItem) []Val {
	return e.mulBatch(opMulUnreduced, items)
}

// mulBatch resolves a level's operands to slots and issues it as op. An
// item whose operand degrees sum above P−1 fails the engine instead: the
// handles are still returned, and every opening from here on reports
// zeros. The scalar-valued items take the next scalar slots in item
// order, and the MulHadamard items the next vector slots; in the parties'
// row every item takes its width in item order (mulDesc.at).
//
// A MulScalar or MulInner item is a MulDot over its operands packed with
// FromScalars. Its degree is still its largest pair's, not the packed
// sides' sum: an inner product of a share and a product against the
// product and the share is 3t, where the packed sides would be 4t. The
// packing commands take vector slots, so they are issued before any of
// the level's results is.
func (e *Engine) mulBatch(op actorOp, items []MulItem) []Val {
	if len(items) == 0 {
		return []Val{}
	}
	muls := make([]mulDesc, len(items))
	var pairDeg []int // each scalar item's largest pair degree; nil on a level without one
	for i, it := range items {
		as, bs := it.As, it.Bs
		switch it.Kind {
		case MulScalar:
			as, bs = []Val{it.A}, []Val{it.B}
		case MulInner:
			if len(as) != len(bs) {
				panic(invariant.Violation("bgw: inner-product length mismatch"))
			}
		default:
			continue
		}
		if pairDeg == nil {
			pairDeg = make([]int, len(items))
		}
		for k := range as {
			pairDeg[i] = max(pairDeg[i], e.shared(as[k]).deg+e.shared(bs[k]).deg)
		}
		va, vb := e.sharedVec(e.FromScalars(as)), e.sharedVec(e.FromScalars(bs))
		muls[i] = mulDesc{kind: MulDot, a: va.ref, b: vb.ref}
	}
	out := make([]Val, len(items))
	hs := e.scalars.Take(len(items))
	scalars, width := 0, 0
	for i, it := range items {
		deg, n := 0, 0
		switch it.Kind {
		case MulScalar, MulInner:
			deg = pairDeg[i]
		case MulDot, MulHadamard:
			a, b := e.sharedVec(it.VA), e.sharedVec(it.VB)
			if a.n != b.n {
				panic(invariant.Violation("bgw: vector length mismatch"))
			}
			muls[i] = mulDesc{kind: it.Kind, a: a.ref, b: b.ref}
			deg, n = a.deg+b.deg, a.n
		default:
			panic(invariant.Violation("bgw: unknown MulKind %d", it.Kind))
		}
		if deg > e.p-1 {
			e.refuseOpenOnly(deg)
		}
		if op == opMulBatch {
			deg = e.t
		}
		muls[i].at = width
		if it.Kind == MulHadamard {
			width += n
			out[i] = e.newVec(n, deg)
			continue
		}
		width++
		hs[i] = Shared{eng: e, ref: e.nextSc, deg: deg}
		out[i] = &hs[i]
		e.nextSc++
		scalars++
	}
	if e.dispatch(actorCmd{op: op, a: width, b: scalars, x: e.payloads.Put(cmdPayload{muls: muls, refs: e.reusedDotSlots(muls)})}) && op == opMulBatch {
		e.rounds++
	}
	return out
}

// reusedDotSlots returns the distinct vector slots of the level's MulDot
// items when there are fewer of them than dots — the columns a Gram batch
// pairs over and over — and nil otherwise. With the list the parties
// compute every listed vector's pair products once and each dot by
// Winograd's pairing (actorParty.products), at half the multiplications;
// without it every dot is a DotAcc. An LR step's d dots over d + 1
// vectors stay on DotAcc.
func (e *Engine) reusedDotSlots(muls []mulDesc) []int {
	if cap(e.seen) < e.nextVec {
		e.seen = make([]bool, 2*e.nextVec)
	}
	seen := e.seen[:e.nextVec]
	dots, distinct := 0, 0
	for _, d := range muls {
		if d.kind != MulDot {
			continue
		}
		dots++
		for _, s := range [2]int{d.a, d.b} {
			if !seen[s] {
				seen[s] = true
				distinct++
			}
		}
	}
	var slots []int
	if distinct < dots {
		slots = make([]int, 0, distinct)
	}
	// A second pass lists the slots in first-use order and leaves seen
	// cleared for the next level.
	for _, d := range muls {
		if d.kind != MulDot {
			continue
		}
		for _, s := range [2]int{d.a, d.b} {
			if seen[s] {
				seen[s] = false
				if slots != nil {
					slots = append(slots, s)
				}
			}
		}
	}
	return slots
}

// Open reveals the signed secret to party 0, which decodes it for the
// caller: an OpenBatch of one.
// Returns 0 after a failure (see Err).
func (e *Engine) Open(s Val) int64 { return e.OpenBatch([]Val{s})[0] }

// OpenBatch reveals many shared scalars in one batched opening round: an
// OpenVec of the scalars packed with FromScalars. The sharings may be of
// any degree up to P−1 — out of MulBatchUnreduced or InputUnshared as
// well as degree t.
func (e *Engine) OpenBatch(vals []Val) []int64 {
	if len(vals) == 0 {
		return []int64{}
	}
	return e.OpenVec(e.FromScalars(vals))
}

// OpenVec reveals every element as one batched opening: every party
// publishes its additive share of each under the pairwise zero mask
// (actorParty.publish), every other party sends its row to party 0 in
// one frame, and party 0 sums the P rows and reports the values to the
// caller — n·(P−1) elements on the wire. Returns zeros after a failure
// (see Err).
func (e *Engine) OpenVec(v Vec) []int64 {
	replies, ok := e.call(actorCmd{op: opOpenVec, a: e.sharedVec(v).ref, x: e.payloads.Put(cmdPayload{})})
	if ok {
		e.rounds++
	}
	if !ok || e.err != nil || replies[0].vals == nil {
		return make([]int64, v.Len())
	}
	return replies[0].vals
}

// At extracts element k of a vector as a scalar; local.
func (e *Engine) At(v Vec, k int) Val {
	sv := e.sharedVec(v)
	if k < 0 || k >= sv.n {
		panic(invariant.Violation("bgw: vector index out of range"))
	}
	return e.local(actorCmd{op: opAt, a: sv.ref, b: k}, sv.deg)
}

// AddVec returns the element-wise sum a + b; local.
func (e *Engine) AddVec(a, b Vec) Vec {
	sa, sb := e.sharedVec(a), e.sharedVec(b)
	if sa.n != sb.n {
		panic(invariant.Violation("bgw: vector length mismatch"))
	}
	out := e.newVec(sa.n, max(sa.deg, sb.deg))
	e.dispatch(actorCmd{op: opAddVec, a: sa.ref, b: sb.ref})
	return out
}

// GatherBatch returns the vector vs[j][idx[k]] for every j as one command
// with one index list; local. Each party writes the rows into one
// grow-only array, which the next GatherBatch overwrites. The vectors
// therefore live one batch: handing one to any gate after the next
// GatherBatch panics with an invariant.Violation, while what a gate
// derived from it before then keeps its value. A batch vector cannot be
// gathered from again.
func (e *Engine) GatherBatch(vs []Vec, idx []int) []Vec {
	// refs lists the source slots, then the rows: the parties' copy of
	// both, since they run behind the caller.
	refs := e.idx.Take(len(vs) + len(idx))
	for j, v := range vs {
		sv := e.sharedVec(v)
		if sv.batch != 0 {
			panic(invariant.Violation("bgw: GatherBatch from a batch vector"))
		}
		checkGather(idx, sv.n)
		refs[j] = sv.ref
	}
	copy(refs[len(vs):], idx)
	e.batch++
	out := make([]Vec, len(vs))
	for j, v := range vs {
		h := e.newVec(len(idx), e.sharedVec(v).deg)
		h.batch = e.batch
		out[j] = h
	}
	e.dispatch(actorCmd{op: opGatherBatch, a: len(vs), x: e.payloads.Put(cmdPayload{refs: refs})})
	return out
}

// checkGather refuses an index outside a vector of n elements.
func checkGather(idx []int, n int) {
	for _, i := range idx {
		if i < 0 || i >= n {
			panic(invariant.Violation("bgw: gather index %d out of range [0,%d)", i, n))
		}
	}
}

// LinComb returns c0 + Σ_k cs[k]·vs[k] element-wise; local, one command
// whatever the number of terms. Nil coefficients are all 1: the plain
// sum, which the parties add without a multiplication or a FieldOp.
func (e *Engine) LinComb(vs []Vec, cs []int64, c0 int64) Vec {
	if cs != nil && len(vs) != len(cs) {
		panic(invariant.Violation("bgw: LinComb has %d vectors for %d coefficients", len(vs), len(cs)))
	}
	refs := e.idx.Take(len(vs))
	n, deg := 0, 0
	for k, v := range vs {
		sv := e.sharedVec(v)
		refs[k], deg = sv.ref, max(deg, sv.deg)
		if k == 0 {
			n = sv.n
		} else if sv.n != n {
			panic(invariant.Violation("bgw: vector length mismatch"))
		}
	}
	if cs != nil {
		cs = e.coefs.Clone(cs)
	}
	out := e.newVec(n, deg)
	e.dispatch(actorCmd{op: opLinComb, a: n, c: c0, x: e.payloads.Put(cmdPayload{refs: refs, ints: cs})})
	return out
}

// FromScalars packs scalar shares into a vector of the largest of their
// degrees; local.
func (e *Engine) FromScalars(xs []Val) Vec {
	refs := e.idx.Take(len(xs))
	deg := 0
	for i, x := range xs {
		s := e.shared(x)
		refs[i], deg = s.ref, max(deg, s.deg)
	}
	out := e.newVec(len(xs), deg)
	e.dispatch(actorCmd{op: opFromScalars, x: e.payloads.Put(cmdPayload{refs: refs})})
	return out
}
