package bgw

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/obs"
	"sqm/internal/randx"
	"sqm/internal/shamir"
	"sqm/internal/transport"
)

// Engine runs the BGW protocol as P parties, each owning only its
// shares and its private randomness, and drives them one of two ways.
// NewEngine runs them inline: no goroutines, every command runs on the
// parties in turn in the caller's goroutine — first every party's
// sending half, then every party's receiving half — and rows change
// hands by reference through an in-memory link that counts them.
// NewActorEngine runs them as goroutines behind a transport mesh:
// resharing and opening traffic crosses the transport as framed
// messages and the traffic statistics are the mesh's own. The parties,
// the seed tree and the command stream are the same, so for one seed
// both drivers hold the same shares, move the same frames, messages and
// bytes, and open the same values.
//
// The engine is driven by a single caller goroutine. Commands reach
// every party in issue order, which keeps the per-party RNG streams and
// the pairwise message sequences deterministic. Behind a mesh only
// operations that reveal data (Open*, AdditiveShares, Stats)
// synchronize the caller with the parties; everything else pipelines.
//
// Behind a mesh commands travel in batches. Scalar local gates (see
// actorOp.queues) only append to the current batch; every other command
// — anything with a vector, a batch, a frame or a reply — is appended
// and then flushes the batch with one channel send per party, so a
// planned local gate costs an append, not P channel operations. Vector
// commands flush at once because the parties' sharing work must overlap
// the caller's next quantise/noise step (DESIGN.md "Per-gate cost" has
// the measurement).
type Engine struct {
	p, t    int
	mesh    transport.Mesh // nil when the parties run inline
	hub     *memHub        // the inline parties' exchange; nil behind a mesh
	parties []*actorParty
	wg      sync.WaitGroup

	// queue is the unsent tail of the current command chunk: dispatch
	// hands the parties queue[:len] (capacity clipped) and keeps writing
	// behind it, so sent commands are never touched again.
	queue []actorCmd

	nextSc, nextVec int
	rounds          int64
	err             error
	closed          bool

	baseRounds, baseFrames, baseMsgs, baseBytes, baseOps int64

	rec         obs.Recorder // nil when telemetry is disabled
	roundHist   *obs.Histogram
	opsGauge    *obs.Gauge
	partyGauges []*obs.Gauge // per-party cumulative field ops
	lastRound   time.Time
	lastFrames  int64 // frame counter at the previous round boundary
	lastMsgs    int64 // message counter at the previous round boundary
}

// Shared is an opaque handle to one secret-shared scalar: the slot in
// which every party keeps its share.
type Shared struct {
	eng *Engine
	ref int
	// openOnly: the slots hold a sharing of degree above t — an unreduced
	// product, an unshared input, or a linear gate over one. The P points
	// still interpolate to the secret, so linear gates and openings take
	// it; a multiplication would not, and is refused (ErrOpenOnly).
	openOnly bool
}

// SharedVec is an opaque handle to a secret-shared vector.
type SharedVec struct {
	eng      *Engine
	ref      int
	n        int
	openOnly bool // as Shared.openOnly
}

// ErrOpenOnly is the engine failure (see Err) of a multiplicative gate or
// an AdditiveShares handed an open-only sharing: the result of
// MulBatchUnreduced or InputUnshared, or of a linear gate over one. Only
// linear gates and openings may consume those.
var ErrOpenOnly = errors.New("bgw: open-only sharing where a degree-t sharing is required")

// Len returns the number of shared elements.
func (v *SharedVec) Len() int { return v.n }

// NewEngine validates the configuration and prepares an engine whose
// parties run inline, in the caller's goroutine. Config.RecvTimeout
// does not apply: nothing blocks.
func NewEngine(cfg Config) (*Engine, error) { return newEngine(cfg, nil) }

// NewActorEngine validates the configuration and starts one party
// goroutine per mesh endpoint. The engine owns the mesh: Close tears
// both down.
func NewActorEngine(cfg Config, mesh transport.Mesh) (*Engine, error) {
	if mesh == nil {
		return nil, fmt.Errorf("bgw: NewActorEngine needs a mesh")
	}
	return newEngine(cfg, mesh)
}

func newEngine(cfg Config, mesh transport.Mesh) (*Engine, error) {
	if cfg.Parties < 3 {
		return nil, fmt.Errorf("bgw: need at least 3 parties, got %d", cfg.Parties)
	}
	t := cfg.Threshold
	if t == 0 {
		t = (cfg.Parties - 1) / 2
	}
	if t < 1 || cfg.Parties < 2*t+1 {
		return nil, fmt.Errorf("bgw: threshold %d invalid for %d parties (need P >= 2t+1, t >= 1)", t, cfg.Parties)
	}
	e := &Engine{p: cfg.Parties, t: t, mesh: mesh}
	if mesh == nil {
		e.hub = &memHub{p: cfg.Parties, box: make([]memRow, cfg.Parties*cfg.Parties)}
	} else {
		if mesh.Parties() != cfg.Parties {
			return nil, fmt.Errorf("bgw: mesh has %d endpoints for %d parties", mesh.Parties(), cfg.Parties)
		}
		if cfg.RecvTimeout > 0 {
			mesh.SetRecvTimeout(cfg.RecvTimeout)
		}
	}
	if rec := cfg.Recorder; rec != nil && rec.Metrics() != nil {
		e.rec = rec
		e.roundHist = rec.Metrics().Histogram("bgw.round.seconds")
		e.opsGauge = rec.Metrics().Gauge("bgw.fieldops")
		e.partyGauges = make([]*obs.Gauge, cfg.Parties)
		for i := range e.partyGauges {
			e.partyGauges[i] = rec.Metrics().Gauge(fmt.Sprintf("bgw.party.%d.fieldops", i))
		}
		e.lastRound = time.Now()
	}
	weights := shamir.LagrangeAtZero(shamir.PartyPoints(cfg.Parties))
	root := randx.New(cfg.Seed)
	for i := 0; i < cfg.Parties; i++ {
		pa := &actorParty{id: i, p: cfg.Parties, t: t, rng: root.Fork(), weights: weights,
			ownInv: field.Inv(weights[i]), pair: make([]*randx.RNG, cfg.Parties)}
		e.parties = append(e.parties, pa)
	}
	// The pairwise mask streams of the openings are keyed after every
	// party's fork, so the sharing streams sit where they always have.
	for i, pa := range e.parties {
		for j := i + 1; j < cfg.Parties; j++ {
			key := root.Uint64()
			pa.pair[j], e.parties[j].pair[i] = randx.New(key), randx.New(key)
		}
	}
	for i, pa := range e.parties {
		if mesh == nil {
			pa.link = memLink{hub: e.hub, id: i}
			pa.chunks = runtime.GOMAXPROCS(0)
			continue
		}
		pa.link = &wireLink{conn: mesh.Conn(i)}
		pa.chunks = 1
		// 256 batches in flight: a vector command is a batch of its
		// own, so covariance sessions keep the pipelining depth they
		// had when the channel carried single commands.
		pa.cmds = make(chan []actorCmd, 256)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			pa.run()
		}()
	}
	return e, nil
}

// Parties returns P.
func (e *Engine) Parties() int { return e.p }

// Threshold returns t.
func (e *Engine) Threshold() int { return e.t }

// Recorder returns the engine's telemetry sink (never nil).
func (e *Engine) Recorder() obs.Recorder { return obs.Or(e.rec) }

// traffic returns the frames, messages and bytes sent so far: the
// mesh's counters, or the in-memory hub's for inline parties.
func (e *Engine) traffic() (frames, msgs, bytes int64) {
	if e.mesh != nil {
		return e.mesh.Counters()
	}
	return e.hub.frames, e.hub.msgs, e.hub.bytes
}

// AdvanceRound accounts one communication round; with telemetry enabled
// the wall-clock since the previous boundary becomes one bgw.round span
// carrying the frame/message deltas for the round.
func (e *Engine) AdvanceRound() {
	e.rounds++
	if e.rec != nil {
		now := time.Now()
		secs := now.Sub(e.lastRound).Seconds()
		e.lastRound = now
		e.roundHist.Observe(secs)
		frames, msgs, _ := e.traffic()
		e.rec.Event(obs.LevelDebug, "bgw.round",
			obs.Int64("round", e.rounds), obs.Float64("seconds", secs),
			obs.Int64("frames", frames-e.lastFrames), obs.Int64("messages", msgs-e.lastMsgs))
		e.lastFrames, e.lastMsgs = frames, msgs
	}
}

// Err returns the first failure any party hit (transport abort, EOF
// mid-round, malformed frame, a missing row); nil while healthy.
func (e *Engine) Err() error { return e.err }

// Stats synchronizes with the parties and returns counters: rounds from
// the protocol structure, frames/messages/bytes counted where each row
// is sent, field operations summed over the parties' local work.
func (e *Engine) Stats() Stats {
	ops := e.collectOps()
	frames, msgs, bytes := e.traffic()
	return Stats{
		Rounds:   e.rounds - e.baseRounds,
		Frames:   frames - e.baseFrames,
		Messages: msgs - e.baseMsgs,
		Bytes:    bytes - e.baseBytes,
		FieldOps: ops - e.baseOps,
	}
}

// ResetStats zeroes the counters (between experiment phases).
func (e *Engine) ResetStats() {
	e.baseOps = e.collectOps()
	e.baseFrames, e.baseMsgs, e.baseBytes = e.traffic()
	e.baseRounds = e.rounds
}

// Close ends the engine; closing twice is harmless. Behind a mesh it
// joins the party goroutines and tears the mesh down: parties blocked
// mid-round are unblocked by the teardown, and scalar gates still
// queued are dropped — nothing can observe their results any more.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.mesh == nil {
		return nil
	}
	e.queue = nil
	e.mesh.Close()
	for _, pa := range e.parties {
		close(pa.cmds)
	}
	e.wg.Wait()
	return nil
}

// cmdChunk is the capacity of one command chunk, and so the longest run
// of scalar gates the caller records before the parties start on them.
const cmdChunk = 256

// dispatch issues one command to every party, in issue order; reports
// false when the engine is failed or closed (the command must then be
// skipped). Inline parties run it now, half by half. Behind a mesh,
// scalar gates wait in the queue for the next command that flushes or
// for the chunk to fill.
func (e *Engine) dispatch(c actorCmd) bool {
	if e.err != nil || e.closed {
		return false
	}
	if e.mesh == nil {
		for _, pa := range e.parties {
			pa.begin(&c)
		}
		for _, pa := range e.parties {
			pa.finish(&c)
		}
		return true
	}
	if len(e.queue) == cap(e.queue) {
		e.queue = make([]actorCmd, 0, cmdChunk)
	}
	e.queue = append(e.queue, c)
	if !c.op.queues() || len(e.queue) == cap(e.queue) {
		n := len(e.queue)
		batch := e.queue[:n:n]
		for _, pa := range e.parties {
			pa.cmds <- batch
		}
		e.queue = e.queue[n:]
	}
	return true
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
			if e.rec != nil {
				e.rec.Event(obs.LevelWarn, "bgw.party.failed",
					obs.Int("party", r.party), obs.String("err", r.err.Error()))
			}
		}
		replies[r.party] = r
	}
	return replies
}

// newSharedN issues the handles of the next n scalar slots out of one
// allocation (the outputs of a batched command).
func (e *Engine) newSharedN(n int, openOnly bool) []Val {
	hs := make([]Shared, n)
	out := make([]Val, n)
	for i := range hs {
		hs[i] = Shared{eng: e, ref: e.nextSc, openOnly: openOnly}
		e.nextSc++
		out[i] = &hs[i]
	}
	return out
}

// newVec issues the handle of the next vector slot.
func (e *Engine) newVec(n int, openOnly bool) *SharedVec {
	e.nextVec++
	return &SharedVec{eng: e, ref: e.nextVec - 1, n: n, openOnly: openOnly}
}

// shared resolves a scalar handle this engine issued.
func (e *Engine) shared(v Val) *Shared {
	s, ok := v.(*Shared)
	if !ok || s.eng != e {
		panic(invariant.Violation("bgw: share from a different engine"))
	}
	return s
}

// sharedVec resolves a vector handle this engine issued.
func (e *Engine) sharedVec(v Vec) *SharedVec {
	s, ok := v.(*SharedVec)
	if !ok || s.eng != e {
		panic(invariant.Violation("bgw: vector from a different engine"))
	}
	return s
}

// refuseOpenOnly fails the engine: gate was handed an open-only sharing
// and would compute a wrong value from it.
func (e *Engine) refuseOpenOnly(gate string) {
	if e.err == nil {
		e.err = fmt.Errorf("%w (%s)", ErrOpenOnly, gate)
	}
}

func (e *Engine) checkParty(i int) {
	if i < 0 || i >= e.p {
		panic(invariant.Violation("bgw: party %d out of range [0,%d)", i, e.p))
	}
}

// collectOps runs a barrier and sums the parties' cumulative local
// field-operation counters; with telemetry enabled the per-party totals
// are published as bgw.party.<i>.fieldops gauges.
func (e *Engine) collectOps() int64 {
	replies, ok := e.call(actorCmd{op: opBarrier, x: &cmdPayload{}})
	if !ok {
		return e.baseOps
	}
	var sum int64
	for i, r := range replies {
		sum += r.ops
		if e.rec != nil {
			e.partyGauges[i].Set(float64(r.ops))
		}
	}
	if e.rec != nil {
		e.opsGauge.Set(float64(sum))
	}
	return sum
}

// ---- Evaluator operations ----

// local dispatches a command that fills the next scalar slot without a
// reply and returns the slot's handle; the result of a linear gate is
// open-only when an operand is.
func (e *Engine) local(c actorCmd, openOnly bool) Val {
	h := &Shared{eng: e, ref: e.nextSc, openOnly: openOnly}
	e.nextSc++
	e.dispatch(c)
	return h
}

// Input has party owner secret-share the signed value v: an InputBatch
// of one.
func (e *Engine) Input(owner int, v int64) Val {
	return e.InputElem(owner, field.FromInt64(v))
}

// InputElem has party owner secret-share a raw field element. Used by
// preprocessing protocols (e.g. Beaver-triple generation) whose values
// are uniform field elements rather than signed integers.
func (e *Engine) InputElem(owner int, el field.Elem) Val {
	return e.InputBatch([]InputItem{{Owner: owner, Elem: el}})[0]
}

// InputBatch has every owner share its items in item order and send
// each peer one frame carrying all of them.
func (e *Engine) InputBatch(items []InputItem) []Val {
	if len(items) == 0 {
		return []Val{}
	}
	for _, it := range items {
		e.checkParty(it.Owner)
	}
	if e.mesh != nil {
		// Party goroutines run behind the caller and need their own copy;
		// inline parties are done with items when dispatch returns.
		items = append([]InputItem(nil), items...)
	}
	out := e.newSharedN(len(items), false)
	e.dispatch(actorCmd{op: opInputBatch, x: &cmdPayload{inputs: items}})
	return out
}

// InputVec has party owner secret-share the signed vector vs; one
// batched message per receiving party.
func (e *Engine) InputVec(owner int, vs []int64) Vec { return e.inputVec(opInputVec, owner, vs) }

// InputUnshared enters party owner's signed vector vs without sharing
// it: the owner keeps λ_owner⁻¹·vs in the slot and every other party 0,
// so the slots interpolate to vs over the P points — a sharing of degree
// up to P−1 — while no randomness is drawn, nothing is sent and no round
// passes. The handle may flow through linear gates into an opening and
// nowhere else: there the owner's published row carries vs under the
// opening's zero mask, which hides it as the sharing would have
// (PRIVACY.md "Add what only you know at the opening"). circuit.Plan
// issues this for an input leaf that reaches nothing but openings.
func (e *Engine) InputUnshared(owner int, vs []int64) Vec {
	return e.inputVec(opInputUnshared, owner, vs)
}

// inputVec issues owner's vector as op: shared, or kept (open-only).
func (e *Engine) inputVec(op actorOp, owner int, vs []int64) Vec {
	e.checkParty(owner)
	if e.mesh != nil {
		// As in InputBatch: inline, the caller's vector passes through.
		vs = append([]int64(nil), vs...)
	}
	out := e.newVec(len(vs), op == opInputUnshared)
	e.dispatch(actorCmd{op: op, a: owner, x: &cmdPayload{ints: vs}})
	return out
}

// Zero returns a trivial sharing of 0; local.
func (e *Engine) Zero() Val { return e.local(actorCmd{op: opZero}, false) }

// Add returns a sharing of a + b; local.
func (e *Engine) Add(a, b Val) Val {
	sa, sb := e.shared(a), e.shared(b)
	return e.local(actorCmd{op: opAdd, a: sa.ref, b: sb.ref}, sa.openOnly || sb.openOnly)
}

// Sub returns a sharing of a − b; local.
func (e *Engine) Sub(a, b Val) Val {
	sa, sb := e.shared(a), e.shared(b)
	return e.local(actorCmd{op: opSub, a: sa.ref, b: sb.ref}, sa.openOnly || sb.openOnly)
}

// AddConst returns a sharing of a + c; local (the constant polynomial c
// added to every share).
func (e *Engine) AddConst(a Val, c int64) Val {
	sa := e.shared(a)
	return e.local(actorCmd{op: opAddConst, a: sa.ref, c: c}, sa.openOnly)
}

// MulConst returns a sharing of c·a; local.
func (e *Engine) MulConst(a Val, c int64) Val {
	sa := e.shared(a)
	return e.local(actorCmd{op: opMulConst, a: sa.ref, c: c}, sa.openOnly)
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
// round: a MulBatch of MulDot items. workers is ignored — the engine
// picks its own width (see actorParty.chunks); the parameter stays
// because decorators of Evaluator override the method with it.
func (e *Engine) DotBatch(pairs []VecPair, workers int) []Val {
	_ = workers
	items := make([]MulItem, len(pairs))
	for i, pr := range pairs {
		items[i] = MulItem{Kind: MulDot, VA: pr.A, VB: pr.B}
	}
	return e.MulBatch(items)
}

// scRefs resolves a list of scalar handles to their slots and reports
// whether any of them is open-only.
func (e *Engine) scRefs(vs []Val) (refs []int, openOnly bool) {
	refs = make([]int, len(vs))
	for i, v := range vs {
		s := e.shared(v)
		refs[i], openOnly = s.ref, openOnly || s.openOnly
	}
	return refs, openOnly
}

// MulBatch evaluates one level of independent multiplicative gates in a
// single batched degree-reduction round: every party computes all local
// degree-2t values, then one reshare exchange carries every sub-share
// in one frame per ordered party pair.
func (e *Engine) MulBatch(items []MulItem) []Val { return e.mulBatch(opMulBatch, items) }

// MulBatchUnreduced evaluates one level of multiplicative gates and
// stops before the degree reduction: every party keeps its local
// degree-2t value, nothing is sent and no round passes. The handles are
// open-only: they may flow through linear gates into an opening and
// nowhere else — a second multiplication would leave the P points an
// opening interpolates over, and fails the engine with ErrOpenOnly
// (circuit.Plan issues this for a terminal level and refuses to hand
// such a handle out).
func (e *Engine) MulBatchUnreduced(items []MulItem) []Val {
	return e.mulBatch(opMulUnreduced, items)
}

// mulBatch resolves a level's operands to slots and issues it as op. An
// open-only operand fails the engine instead: the handles are still
// returned, and every opening from here on reports zeros.
func (e *Engine) mulBatch(op actorOp, items []MulItem) []Val {
	if len(items) == 0 {
		return []Val{}
	}
	muls := make([]mulDesc, len(items))
	openOnly := false
	for i, it := range items {
		switch it.Kind {
		case MulScalar:
			a, b := e.shared(it.A), e.shared(it.B)
			muls[i] = mulDesc{kind: MulScalar, a: a.ref, b: b.ref}
			openOnly = openOnly || a.openOnly || b.openOnly
		case MulInner:
			if len(it.As) != len(it.Bs) {
				panic(invariant.Violation("bgw: inner-product length mismatch"))
			}
			as, oa := e.scRefs(it.As)
			bs, ob := e.scRefs(it.Bs)
			muls[i] = mulDesc{kind: MulInner, refs: as, refs2: bs}
			openOnly = openOnly || oa || ob
		case MulDot:
			a, b := e.sharedVec(it.VA), e.sharedVec(it.VB)
			if a.n != b.n {
				panic(invariant.Violation("bgw: vector length mismatch"))
			}
			muls[i] = mulDesc{kind: MulDot, a: a.ref, b: b.ref}
			openOnly = openOnly || a.openOnly || b.openOnly
		default:
			panic(invariant.Violation("bgw: unknown MulKind %d", it.Kind))
		}
	}
	if openOnly {
		e.refuseOpenOnly("multiplicative gate")
	}
	out := e.newSharedN(len(items), op == opMulUnreduced)
	e.dispatch(actorCmd{op: op, x: &cmdPayload{muls: muls}})
	return out
}

// AdditiveShares converts the Shamir sharing to an additive sharing:
// with Lagrange weights λ, party i reports λ_i·share_i and Σ_i λ_i·s_i
// equals the secret (a local computation; the collection is engine-side
// synchronization, not protocol traffic).
func (e *Engine) AdditiveShares(s Val, weights []field.Elem) []field.Elem {
	sh := e.shared(s)
	if len(weights) != e.p {
		panic(invariant.Violation("bgw: AdditiveShares weight count mismatch"))
	}
	out := make([]field.Elem, e.p)
	if sh.openOnly {
		// The caller's weights interpolate a degree-t sharing.
		e.refuseOpenOnly("AdditiveShares")
		return out
	}
	replies, ok := e.call(actorCmd{op: opAdditive, a: sh.ref, x: &cmdPayload{weights: weights}})
	if !ok || e.err != nil {
		return out
	}
	for i, r := range replies {
		out[i] = r.elem
	}
	return out
}

// Open reveals the signed secret to all parties: an OpenBatch of one.
// Returns 0 after a failure (see Err).
func (e *Engine) Open(s Val) int64 { return e.OpenBatch([]Val{s})[0] }

// OpenBatch reveals many shared scalars in one batched opening round:
// every party publishes its additive share of each under the pairwise
// zero mask (actorParty.publish), each sums the rows, and party 0
// reports the values to the caller. The sharings may be of degree t or,
// out of MulBatchUnreduced or InputUnshared, of any degree up to P−1.
func (e *Engine) OpenBatch(vals []Val) []int64 {
	if len(vals) == 0 {
		return []int64{}
	}
	refs, _ := e.scRefs(vals)
	return e.openVals(actorCmd{op: opOpenBatch, x: &cmdPayload{refs: refs}}, len(vals))
}

// OpenVec reveals every element as one batched opening (one message per
// ordered party pair carrying all elements).
func (e *Engine) OpenVec(v Vec) []int64 {
	return e.openVals(actorCmd{op: opOpenVec, a: e.sharedVec(v).ref, x: &cmdPayload{}}, v.Len())
}

// openVals runs a batched opening command and returns party 0's n
// values, or zeros after a failure.
func (e *Engine) openVals(c actorCmd, n int) []int64 {
	replies, ok := e.call(c)
	if !ok || e.err != nil || replies[0].vals == nil {
		return make([]int64, n)
	}
	return replies[0].vals
}

// At extracts element k of a vector as a scalar; local.
func (e *Engine) At(v Vec, k int) Val {
	sv := e.sharedVec(v)
	if k < 0 || k >= sv.n {
		panic(invariant.Violation("bgw: vector index out of range"))
	}
	return e.local(actorCmd{op: opAt, a: sv.ref, b: k}, sv.openOnly)
}

// AddVec returns the element-wise sum a + b; local.
func (e *Engine) AddVec(a, b Vec) Vec {
	sa, sb := e.sharedVec(a), e.sharedVec(b)
	if sa.n != sb.n {
		panic(invariant.Violation("bgw: vector length mismatch"))
	}
	out := e.newVec(sa.n, sa.openOnly || sb.openOnly)
	e.dispatch(actorCmd{op: opAddVec, a: sa.ref, b: sb.ref})
	return out
}

// Gather returns the vector v[idx[k]]; local. Like every vector command
// it reaches the parties at once.
func (e *Engine) Gather(v Vec, idx []int) Vec {
	sv := e.sharedVec(v)
	for _, i := range idx {
		if i < 0 || i >= sv.n {
			panic(invariant.Violation("bgw: gather index %d out of range [0,%d)", i, sv.n))
		}
	}
	if e.mesh != nil {
		// As in InputBatch: party goroutines need their own copy.
		idx = append([]int(nil), idx...)
	}
	out := e.newVec(len(idx), sv.openOnly)
	e.dispatch(actorCmd{op: opGather, a: sv.ref, x: &cmdPayload{refs: idx}})
	return out
}

// LinComb returns c0 + Σ_k cs[k]·vs[k] element-wise; local, one command
// whatever the number of terms.
func (e *Engine) LinComb(vs []Vec, cs []int64, c0 int64) Vec {
	if len(vs) != len(cs) {
		panic(invariant.Violation("bgw: LinComb has %d vectors for %d coefficients", len(vs), len(cs)))
	}
	refs := make([]int, len(vs))
	n, openOnly := 0, false
	for k, v := range vs {
		sv := e.sharedVec(v)
		refs[k], openOnly = sv.ref, openOnly || sv.openOnly
		if k == 0 {
			n = sv.n
		} else if sv.n != n {
			panic(invariant.Violation("bgw: vector length mismatch"))
		}
	}
	if e.mesh != nil {
		cs = append([]int64(nil), cs...)
	}
	out := e.newVec(n, openOnly)
	e.dispatch(actorCmd{op: opLinComb, a: n, c: c0, x: &cmdPayload{refs: refs, ints: cs}})
	return out
}

// FromScalars packs scalar shares into a vector; local.
func (e *Engine) FromScalars(xs []Val) Vec {
	refs, openOnly := e.scRefs(xs)
	out := e.newVec(len(xs), openOnly)
	e.dispatch(actorCmd{op: opFromScalars, x: &cmdPayload{refs: refs}})
	return out
}
