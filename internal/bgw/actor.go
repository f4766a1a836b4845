package bgw

import (
	"fmt"
	"sync"
	"time"

	"sqm/internal/field"
	"sqm/internal/invariant"
	"sqm/internal/obs"
	"sqm/internal/randx"
	"sqm/internal/shamir"
	"sqm/internal/transport"
)

// ActorEngine runs the BGW protocol as P message-driven party actors
// over a pluggable transport. Unlike the monolithic Engine — which
// holds all parties' shares in one slice — each actor goroutine owns
// only *its* shares and private randomness; resharing and opening
// traffic crosses the transport as framed messages, so the
// message/byte statistics are measured from real traffic rather than
// hand-counted.
//
// The facade keeps the monolithic engine's API shape (Input, Dot,
// DotBatch, InnerProduct, Open, stats metering) and is output-identical
// to it: BGW computes exactly, so for the same inputs the opened values
// are bit-equal regardless of backend or share randomness.
//
// The facade is driven by a single caller goroutine. Commands are
// broadcast to every party in issue order; parties execute them in that
// order, which keeps the per-party RNG streams and the pairwise message
// sequences deterministic. Only operations that reveal data (Open,
// OpenVec, AdditiveShares, Stats) synchronize the caller with the
// actors; everything else pipelines.
//
// Commands travel in batches. Scalar local gates (see actorOp.queues)
// only append to the current batch; every other command — anything with
// a vector, a batch, a frame or a reply — is appended and then flushes
// the batch with one channel send per party, so a planned local gate
// costs an append, not P channel operations. Vector commands flush at
// once because the parties' sharing work must overlap the caller's next
// quantise/noise step (DESIGN.md "Per-gate cost" has the measurement).
type ActorEngine struct {
	p, t    int
	latency time.Duration
	mesh    transport.Mesh
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
	lastFrames  int64 // mesh frame counter at the previous round boundary
	lastMsgs    int64 // mesh message counter at the previous round boundary
}

// ActorShared is an opaque handle to one secret-shared scalar whose
// shares live inside the party actors.
type ActorShared struct {
	eng *ActorEngine
	ref int
}

// ActorVec is an opaque handle to a secret-shared vector.
type ActorVec struct {
	eng *ActorEngine
	ref int
	n   int
}

// Len returns the number of shared elements.
func (v *ActorVec) Len() int { return v.n }

// At extracts element k as a scalar handle (local to every party).
func (v *ActorVec) At(k int) Val { return v.eng.At(v, k) }

// NewActorEngine validates the configuration and starts one party
// actor per mesh endpoint. The engine owns the mesh: Close tears both
// down. Seed derivation matches NewEngine, so party i's private stream
// is identical to the monolithic engine's party i under the same seed.
func NewActorEngine(cfg Config, mesh transport.Mesh) (*ActorEngine, error) {
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
	if mesh.Parties() != cfg.Parties {
		return nil, fmt.Errorf("bgw: mesh has %d endpoints for %d parties", mesh.Parties(), cfg.Parties)
	}
	lat := cfg.Latency
	if lat == 0 {
		lat = DefaultLatency
	}
	if cfg.RecvTimeout > 0 {
		mesh.SetRecvTimeout(cfg.RecvTimeout)
	}
	e := &ActorEngine{p: cfg.Parties, t: t, latency: lat, mesh: mesh}
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
		pa := &actorParty{
			id: i, p: cfg.Parties, t: t,
			rng:     root.Fork(),
			weights: weights,
			conn:    mesh.Conn(i),
			// 256 batches in flight: a vector command is a batch of its
			// own, so covariance sessions keep the pipelining depth they
			// had when the channel carried single commands.
			cmds:    make(chan []actorCmd, 256),
			workers: cfg.Workers,
		}
		e.parties = append(e.parties, pa)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			pa.run()
		}()
	}
	return e, nil
}

// Parties returns P.
func (e *ActorEngine) Parties() int { return e.p }

// Threshold returns t.
func (e *ActorEngine) Threshold() int { return e.t }

// Latency returns the per-round latency.
func (e *ActorEngine) Latency() time.Duration { return e.latency }

// Recorder returns the engine's telemetry sink (never nil).
func (e *ActorEngine) Recorder() obs.Recorder { return obs.Or(e.rec) }

// AdvanceRound accounts one communication round; with telemetry enabled
// the wall-clock since the previous boundary becomes one bgw.round span
// carrying the mesh's frame/message deltas for the round.
func (e *ActorEngine) AdvanceRound() {
	e.rounds++
	if e.rec != nil {
		now := time.Now()
		secs := now.Sub(e.lastRound).Seconds()
		e.lastRound = now
		e.roundHist.Observe(secs)
		frames, msgs, _ := e.mesh.Counters()
		e.rec.Event(obs.LevelDebug, "bgw.round",
			obs.Int64("round", e.rounds), obs.Float64("seconds", secs),
			obs.Int64("frames", frames-e.lastFrames), obs.Int64("messages", msgs-e.lastMsgs))
		e.lastFrames, e.lastMsgs = frames, msgs
	}
}

// SetWorkers implements WorkerTunable: the bound is broadcast to every
// party actor (applied in command order, like any other op) and governs
// the pool that parallelizes each party's batched local arithmetic.
// Party gate computations carry no randomness, so shares — and
// therefore opened outputs — are identical for every setting.
func (e *ActorEngine) SetWorkers(n int) int {
	e.dispatch(actorCmd{op: opSetWorkers, c: int64(n)})
	return effectiveWorkers(n)
}

// Err returns the first failure any party actor hit (transport abort,
// EOF mid-round, malformed frame); nil while healthy.
func (e *ActorEngine) Err() error { return e.err }

// Stats synchronizes with the actors and returns counters: rounds from
// the protocol structure, frames/messages/bytes measured by the
// transport, field operations summed over the parties' local work.
func (e *ActorEngine) Stats() Stats {
	ops := e.collectOps()
	frames, msgs, bytes := e.mesh.Counters()
	return Stats{
		Rounds:   e.rounds - e.baseRounds,
		Frames:   frames - e.baseFrames,
		Messages: msgs - e.baseMsgs,
		Bytes:    bytes - e.baseBytes,
		FieldOps: ops - e.baseOps,
	}
}

// ResetStats zeroes the counters (between experiment phases).
func (e *ActorEngine) ResetStats() {
	e.baseOps = e.collectOps()
	e.baseFrames, e.baseMsgs, e.baseBytes = e.mesh.Counters()
	e.baseRounds = e.rounds
}

// Close shuts the party actors down and tears down the mesh. Parties
// blocked mid-round are unblocked by the mesh teardown. Scalar gates
// still queued are dropped: nothing can observe their results any more.
func (e *ActorEngine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
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
// skipped). Scalar gates wait in the queue for the next command that
// flushes or for the chunk to fill.
func (e *ActorEngine) dispatch(c actorCmd) bool {
	if e.err != nil || e.closed {
		return false
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
func (e *ActorEngine) call(c actorCmd) (replies []actorReply, ok bool) {
	if c.x == nil {
		c.x = &cmdPayload{}
	}
	c.x.reply = make(chan actorReply, e.p)
	if !e.dispatch(c) {
		return nil, false
	}
	return e.await(c.x.reply), true
}

// await collects exactly one reply per party and latches the first
// error into the engine's sticky failure state.
func (e *ActorEngine) await(reply chan actorReply) []actorReply {
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

// newShared issues the handle of the next scalar slot.
func (e *ActorEngine) newShared() *ActorShared {
	h := &ActorShared{eng: e, ref: e.nextSc}
	e.nextSc++
	return h
}

// newSharedN issues the handles of the next n scalar slots out of one
// allocation (the outputs of a batched command).
func (e *ActorEngine) newSharedN(n int) []Val {
	hs := make([]ActorShared, n)
	out := make([]Val, n)
	for i := range hs {
		hs[i] = ActorShared{eng: e, ref: e.nextSc}
		e.nextSc++
		out[i] = &hs[i]
	}
	return out
}

func (e *ActorEngine) newVec() int {
	r := e.nextVec
	e.nextVec++
	return r
}

func (e *ActorEngine) scRef(v Val) int {
	s, ok := v.(*ActorShared)
	if !ok || s.eng != e {
		panic(invariant.Violation("bgw: share from a different engine"))
	}
	return s.ref
}

func (e *ActorEngine) vecRef(v Vec) int {
	s, ok := v.(*ActorVec)
	if !ok || s.eng != e {
		panic(invariant.Violation("bgw: vector from a different engine"))
	}
	return s.ref
}

func (e *ActorEngine) checkParty(i int) {
	if i < 0 || i >= e.p {
		panic(invariant.Violation("bgw: party %d out of range [0,%d)", i, e.p))
	}
}

// collectOps runs a barrier and sums the parties' cumulative local
// field-operation counters; with telemetry enabled the per-party totals
// are published as bgw.party.<i>.fieldops gauges.
func (e *ActorEngine) collectOps() int64 {
	replies, ok := e.call(actorCmd{op: opBarrier})
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
// reply and returns the slot's handle.
func (e *ActorEngine) local(c actorCmd) Val {
	h := e.newShared()
	e.dispatch(c)
	return h
}

// Input has party owner secret-share the signed value v; one real
// message per receiving party crosses the transport.
func (e *ActorEngine) Input(owner int, v int64) Val {
	e.checkParty(owner)
	return e.local(actorCmd{op: opInput, a: owner, c: v})
}

// InputElem has party owner secret-share a raw field element.
func (e *ActorEngine) InputElem(owner int, el field.Elem) Val {
	e.checkParty(owner)
	return e.local(actorCmd{op: opInputElem, a: owner, c: int64(el)})
}

// InputBatch has every owner share its items in item order and send
// each peer one frame carrying all of them.
func (e *ActorEngine) InputBatch(items []InputItem) []Val {
	if len(items) == 0 {
		return []Val{}
	}
	for _, it := range items {
		e.checkParty(it.Owner)
	}
	out := e.newSharedN(len(items))
	e.dispatch(actorCmd{op: opInputBatch, x: &cmdPayload{inputs: append([]InputItem(nil), items...)}})
	return out
}

// InputVec has party owner secret-share the signed vector vs; one
// batched message per receiving party.
func (e *ActorEngine) InputVec(owner int, vs []int64) Vec {
	e.checkParty(owner)
	ref := e.newVec()
	e.dispatch(actorCmd{op: opInputVec, a: owner, x: &cmdPayload{ints: append([]int64(nil), vs...)}})
	return &ActorVec{eng: e, ref: ref, n: len(vs)}
}

// Zero returns a trivial sharing of 0; local.
func (e *ActorEngine) Zero() Val { return e.local(actorCmd{op: opZero}) }

// Add returns a sharing of a + b; local.
func (e *ActorEngine) Add(a, b Val) Val {
	return e.local(actorCmd{op: opAdd, a: e.scRef(a), b: e.scRef(b)})
}

// Sub returns a sharing of a − b; local.
func (e *ActorEngine) Sub(a, b Val) Val {
	return e.local(actorCmd{op: opSub, a: e.scRef(a), b: e.scRef(b)})
}

// AddConst returns a sharing of a + c; local.
func (e *ActorEngine) AddConst(a Val, c int64) Val {
	return e.local(actorCmd{op: opAddConst, a: e.scRef(a), c: c})
}

// MulConst returns a sharing of c·a; local.
func (e *ActorEngine) MulConst(a Val, c int64) Val {
	return e.local(actorCmd{op: opMulConst, a: e.scRef(a), c: c})
}

// Mul returns a sharing of a·b: every party multiplies its shares
// locally and the actors run one degree-reduction resharing round over
// the transport.
func (e *ActorEngine) Mul(a, b Val) Val {
	return e.local(actorCmd{op: opMul, a: e.scRef(a), b: e.scRef(b)})
}

// scRefs resolves a list of scalar handles to their slots.
func (e *ActorEngine) scRefs(vs []Val) []int {
	refs := make([]int, len(vs))
	for i, v := range vs {
		refs[i] = e.scRef(v)
	}
	return refs
}

// InnerProduct returns a sharing of Σ_k a[k]·b[k] with the fused gate:
// local sums of share products, then a single resharing.
func (e *ActorEngine) InnerProduct(as, bs []Val) Val {
	if len(as) != len(bs) {
		panic(invariant.Violation("bgw: InnerProduct length mismatch"))
	}
	return e.local(actorCmd{op: opInnerProduct, x: &cmdPayload{refs: e.scRefs(as), refs2: e.scRefs(bs)}})
}

// AdditiveShares converts the Shamir sharing to an additive sharing:
// each party reports weights[i]·share_i (a local computation; the
// collection is facade-side synchronization, not protocol traffic).
func (e *ActorEngine) AdditiveShares(s Val, weights []field.Elem) []field.Elem {
	if len(weights) != e.p {
		panic(invariant.Violation("bgw: AdditiveShares weight count mismatch"))
	}
	out := make([]field.Elem, e.p)
	replies, ok := e.call(actorCmd{op: opAdditive, a: e.scRef(s),
		x: &cmdPayload{weights: append([]field.Elem(nil), weights...)}})
	if !ok || e.err != nil {
		return out
	}
	for i, r := range replies {
		out[i] = r.elem
	}
	return out
}

// Open reveals the signed secret: the parties exchange shares pairwise
// over the transport, each reconstructs, and party 0 reports the value
// to the caller. Returns 0 after a transport failure (see Err).
func (e *ActorEngine) Open(s Val) int64 {
	replies, ok := e.call(actorCmd{op: opOpen, a: e.scRef(s)})
	if !ok || e.err != nil {
		return 0
	}
	return replies[0].val
}

// At extracts element k of a vector as a scalar; local.
func (e *ActorEngine) At(v Vec, k int) Val {
	rv := e.vecRef(v)
	if k < 0 || k >= v.Len() {
		panic(invariant.Violation("bgw: vector index out of range"))
	}
	return e.local(actorCmd{op: opAt, a: rv, b: k})
}

// AddVec returns the element-wise sum a + b; local.
func (e *ActorEngine) AddVec(a, b Vec) Vec {
	ra, rb := e.vecRef(a), e.vecRef(b)
	if a.Len() != b.Len() {
		panic(invariant.Violation("bgw: vector length mismatch"))
	}
	ref := e.newVec()
	e.dispatch(actorCmd{op: opAddVec, a: ra, b: rb})
	return &ActorVec{eng: e, ref: ref, n: a.Len()}
}

// Dot returns a sharing of ⟨a, b⟩ with the fused gate (one resharing).
func (e *ActorEngine) Dot(a, b Vec) Val {
	ra, rb := e.vecRef(a), e.vecRef(b)
	if a.Len() != b.Len() {
		panic(invariant.Violation("bgw: vector length mismatch"))
	}
	return e.local(actorCmd{op: opDot, a: ra, b: rb})
}

// DotBatch evaluates many fused inner products in one batched resharing
// round: every party sends a single message per peer carrying the
// sub-shares of all pairs. workers is ignored — the parties are already
// concurrent actors.
func (e *ActorEngine) DotBatch(pairs []VecPair, workers int) []Val {
	_ = workers
	if len(pairs) == 0 {
		return []Val{}
	}
	refs := make([]int, len(pairs))
	refs2 := make([]int, len(pairs))
	for i, pr := range pairs {
		refs[i] = e.vecRef(pr.A)
		refs2[i] = e.vecRef(pr.B)
		if pr.A.Len() != pr.B.Len() {
			panic(invariant.Violation("bgw: vector length mismatch"))
		}
	}
	out := e.newSharedN(len(pairs))
	e.dispatch(actorCmd{op: opDotBatch, x: &cmdPayload{refs: refs, refs2: refs2}})
	return out
}

// MulBatch evaluates one level of independent multiplicative gates in a
// single batched degree-reduction round: every party computes all local
// degree-2t values, then one reshare exchange carries every sub-share
// in one frame per ordered party pair.
func (e *ActorEngine) MulBatch(items []MulItem) []Val {
	if len(items) == 0 {
		return []Val{}
	}
	muls := make([]mulDesc, len(items))
	for i, it := range items {
		switch it.Kind {
		case MulScalar:
			muls[i] = mulDesc{kind: MulScalar, a: e.scRef(it.A), b: e.scRef(it.B)}
		case MulInner:
			if len(it.As) != len(it.Bs) {
				panic(invariant.Violation("bgw: MulBatch inner-product length mismatch"))
			}
			muls[i] = mulDesc{kind: MulInner, refs: e.scRefs(it.As), refs2: e.scRefs(it.Bs)}
		case MulDot:
			if it.VA.Len() != it.VB.Len() {
				panic(invariant.Violation("bgw: vector length mismatch"))
			}
			muls[i] = mulDesc{kind: MulDot, a: e.vecRef(it.VA), b: e.vecRef(it.VB)}
		default:
			panic(invariant.Violation("bgw: unknown MulKind %d", it.Kind))
		}
	}
	out := e.newSharedN(len(items))
	e.dispatch(actorCmd{op: opMulBatch, x: &cmdPayload{muls: muls}})
	return out
}

// OpenBatch reveals many shared scalars in one batched opening round;
// party 0 reports the values to the caller.
func (e *ActorEngine) OpenBatch(vals []Val) []int64 {
	if len(vals) == 0 {
		return []int64{}
	}
	return e.openVals(actorCmd{op: opOpenBatch, x: &cmdPayload{refs: e.scRefs(vals)}}, len(vals))
}

// openVals runs a batched opening command and returns party 0's n
// values, or zeros after a failure.
func (e *ActorEngine) openVals(c actorCmd, n int) []int64 {
	replies, ok := e.call(c)
	if !ok || e.err != nil || replies[0].vals == nil {
		return make([]int64, n)
	}
	return replies[0].vals
}

// FromScalars packs scalar shares into a vector; local.
func (e *ActorEngine) FromScalars(xs []Val) Vec {
	refs := e.scRefs(xs)
	ref := e.newVec()
	e.dispatch(actorCmd{op: opFromScalars, x: &cmdPayload{refs: refs}})
	return &ActorVec{eng: e, ref: ref, n: len(xs)}
}

// OpenVec reveals every element as one batched opening (one message per
// ordered party pair carrying all elements).
func (e *ActorEngine) OpenVec(v Vec) []int64 {
	return e.openVals(actorCmd{op: opOpenVec, a: e.vecRef(v)}, v.Len())
}
