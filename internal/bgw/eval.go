// Package bgw implements the BGW protocol (Ben-Or, Goldwasser, Wigderson
// 1988) for semi-honest parties over the field of package field, as used
// by SQM (§II and Appendix B of the paper):
//
//  1. each party secret-shares its private inputs with Shamir's scheme —
//     except an input that reaches nothing but openings, which its owner
//     keeps (InputUnshared: no randomness, no traffic, no round) and adds
//     under the mask of step 3,
//  2. addition and scaling are local; each multiplication takes the
//     pointwise product of shares, a sharing whose degree is the sum of
//     its operands', and every handle carries that degree. A product is
//     reduced to degree t by a resharing round (MulBatch) — the
//     Gennaro–Rabin–Rabin reduction, which takes any degree up to P−1 —
//     or kept as it is at the cost of nothing (MulBatchUnreduced) while
//     whatever multiplies it stays within P−1 (ErrOpenOnly; PRIVACY.md
//     "Multiply the degree you hold"),
//  3. outputs are opened by interpolating at 0 over all P points, which
//     is right at any degree up to P−1: every party publishes its
//     Lagrange-weighted share under a pairwise zero mask, and party 0,
//     the one party that decodes, is sent the other P−1 rows and sums
//     them with its own (PRIVACY.md "Open the degree you hold").
//
// There is one implementation of a party (actorParty) and one Engine
// that drives P of them, as goroutines behind a transport mesh. The party
// computes on vectors only — it deals vectors, multiplies dots and
// element-wise products, and opens vectors — and the Engine lowers every
// scalar gate of the Evaluator onto those shapes. Over every mesh the
// share arithmetic
// is performed faithfully (so outputs are bit-exact with the plaintext
// computation) and the communication is metered: traffic is counted
// where a row is sent, every input, resharing or opening round advances a
// round counter, and simulated network time is rounds × a per-round
// latency the caller holds (Stats.NetTime), matching the paper's
// experimental setup of a fixed 0.1 s message-passing cost.
package bgw

import (
	"time"

	"sqm/internal/field"
	"sqm/internal/obs"
)

// DefaultLatency is the per-round message-passing cost used by the
// paper's simulation (§VI).
const DefaultLatency = 100 * time.Millisecond

// Config describes a BGW deployment.
type Config struct {
	Parties   int          // P >= 2*Threshold + 1
	Threshold int          // t; 0 means floor((P-1)/2)
	Seed      uint64       // keys the pairwise mask and dealing streams
	Recorder  obs.Recorder // telemetry sink; nil disables at zero cost
	// RecvTimeout bounds every blocking receive of the parties, over
	// every mesh: a peer that stays silent past the deadline surfaces as
	// a transport.ErrTimeout party failure instead of a hung protocol.
	// 0 keeps receives blocking (the trusted-simulation default).
	RecvTimeout time.Duration
}

// Stats meters the protocol execution. Frames and Messages separate
// physical sends from logical traffic: a batched round folds the
// independent messages of a whole level into one frame per ordered
// party pair, so Frames drops with batching while Messages — the
// protocol-defined traffic — stays put.
type Stats struct {
	Rounds   int64 // communication rounds
	Frames   int64 // physical point-to-point sends (batched frames count once)
	Messages int64 // logical point-to-point messages
	Bytes    int64 // payload bytes (8 per field element per message)
	// FieldOps counts local field multiplications (the cost-model
	// input). The count is exact for products (one per element of a
	// dot or a MulHadamard; a scalar product is a dot of one), affine
	// gates, unshared inputs — one
	// x/λ_owner per element, at the owner — and openings — one λ_i·s_i
	// per element and party, the rows are summed — and a model for
	// sharings: P·(t+1) per dealt element, P+t+1 per reshared product
	// (a Hadamard element is one) and party. A dot counts one
	// multiplication per element, which is also a model: in a batch that
	// reuses its vectors (a Gram matrix) the parties pair the elements by
	// Winograd's identity and multiply about half as often, while the
	// count stays the shape's.
	FieldOps int64
}

// Add returns the field-by-field sum s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Rounds:   s.Rounds + o.Rounds,
		Frames:   s.Frames + o.Frames,
		Messages: s.Messages + o.Messages,
		Bytes:    s.Bytes + o.Bytes,
		FieldOps: s.FieldOps + o.FieldOps,
	}
}

// Sub returns the field-by-field difference s − o: the counters of what
// ran between snapshot o and snapshot s.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Rounds:   s.Rounds - o.Rounds,
		Frames:   s.Frames - o.Frames,
		Messages: s.Messages - o.Messages,
		Bytes:    s.Bytes - o.Bytes,
		FieldOps: s.FieldOps - o.FieldOps,
	}
}

// NetTime returns the simulated network time for the metered rounds at
// the given per-round latency.
func (s Stats) NetTime(latency time.Duration) time.Duration {
	return time.Duration(s.Rounds) * latency
}

// Val is an opaque handle to one secret-shared scalar (*Shared for the
// engine of this package; recording evaluators issue their own).
// Handles must only be passed back to the evaluator that issued them.
type Val interface{}

// Vec is an opaque handle to a secret-shared vector.
type Vec interface {
	// Len returns the number of shared elements.
	Len() int
}

// VecPair names one fused inner product of a DotBatch.
type VecPair struct{ A, B Vec }

// MulKind selects the shape of one MulBatch item.
type MulKind uint8

const (
	// MulScalar is one scalar product a·b (fields A, B). The engine
	// lowers it onto a MulDot of one-element vectors (FromScalars).
	MulScalar MulKind = iota
	// MulInner is one fused inner product Σ_k As[k]·Bs[k] over scalar
	// handles (fields As, Bs), lowered onto a MulDot of the two lists
	// packed with FromScalars. Its degree is its largest pair's.
	MulInner
	// MulDot is one fused inner product ⟨VA, VB⟩ over vector handles
	// (fields VA, VB).
	MulDot
	// MulHadamard is the element-wise product VA ⊙ VB of two vectors of
	// one length (fields VA, VB). Its result is a vector: the Vec in the
	// item's slot of what MulBatch or MulBatchUnreduced returns. Each of
	// its n elements is one product in the level's exchange, as n
	// MulScalar items over the elements would be — n elements in every
	// reshare frame, n field multiplications and, reshared, n·(P+t+1)
	// more in FieldOps' model — and the vector carries one degree, the
	// sum of its operands'.
	MulHadamard
	// MulDots is a vector of fused inner products, element i the dot
	// ⟨Vecs[Pairs[2i]], Vecs[Pairs[2i+1]]⟩: a Gram level as one item. Its
	// result is a vector, as MulHadamard's is, and each of its elements
	// costs what a MulDot item would — one element in every reshare
	// frame, one field multiplication per vector element — while the
	// engine resolves each of Vecs once and issues no handle per dot. Its
	// degree is its largest pair's. Dots that outnumber their vectors are
	// computed by Winograd's pairing. The parties read Pairs itself,
	// behind the caller, so the caller leaves it as it is while the
	// engine runs (circuit.Plan hands over its own, which it never
	// writes).
	MulDots
)

// MulItem describes one multiplicative gate of a batched round. Only
// the fields selected by Kind are read.
type MulItem struct {
	Kind   MulKind
	A, B   Val     // MulScalar operands
	As, Bs []Val   // MulInner operand lists
	VA, VB Vec     // MulDot and MulHadamard operands
	Vecs   []Vec   // MulDots operand vectors
	Pairs  []int32 // MulDots index pairs into Vecs, two per dot
}

// Evaluator is the abstract MPC backend the SQM protocols run against.
// It captures exactly the share operations the paper's circuits need:
// input sharing, local linear algebra — scalar gates and the vector
// gates AddVec and LinComb, which carry a whole column of a vertically
// partitioned batch as one command, and GatherBatch, which carries every
// column's batch rows as one, into an array the next batch reuses —
// degree-reduction multiplication, fused inner products and openings. Its one backend is
// the Engine of this package, its party goroutines over an in-memory
// ChanMesh (NewEngine) or any pluggable transport (NewActorEngine); the
// other implementations are decorators that wrap an Engine for tests or
// timing. Nothing plaintext implements it: because BGW computes exactly,
// the plain engine is internal/core's int64 arithmetic in
// release.evaluate, and a plan's plaintext interpreter is
// circuit.Plan.Plain.
//
// All operations follow the semi-honest, synchronized-round model of the
// concrete engines, and the backend alone decides where a round ends:
// every exchange it issues — an input round, a MulBatch, an opening — is
// one round of Stats.Rounds, so a protocol batches the independent
// messages of a phase into one round by issuing them as one batch. The
// scalar forms — Input,
// InputElem, Mul, InnerProduct, Open, OpenBatch and the MulScalar and
// MulInner items — are the vector ones with one- or many-element vectors
// packed and taken apart locally, at the same traffic and FieldOps.
type Evaluator interface {
	// Parties returns P.
	Parties() int
	// Threshold returns t.
	Threshold() int
	// Stats returns a snapshot of the execution counters since the
	// backend started; a phase's are the difference of two snapshots
	// (Stats.Sub). Rounds counts the exchanges the backend issued. For transport-backed evaluators the message/byte
	// counts are measured from real traffic, not modeled.
	Stats() Stats
	// Recorder returns the backend's telemetry sink; never nil (the
	// no-op recorder when telemetry is disabled).
	Recorder() obs.Recorder
	// Err returns the first failure the backend hit (transport abort,
	// EOF mid-round); nil while healthy. Openings performed after a
	// failure return zero values.
	Err() error
	// Close releases backend resources (party goroutines, sockets).
	Close() error

	// Input has party owner secret-share the signed value v: an
	// InputVec of one element, taken apart with At.
	Input(owner int, v int64) Val
	// InputElem has party owner secret-share a raw field element.
	InputElem(owner int, e field.Elem) Val
	// InputVec has party owner secret-share the signed vector vs. The
	// vectors of consecutive calls are one input round: every owner
	// deals all of its vectors before any party waits on a peer's. vs is
	// read when the round is issued, which is the backend's next command
	// of another kind: the caller leaves it as it is until then.
	InputVec(owner int, vs []int64) Vec
	// InputUnshared enters party owner's signed vector vs without a
	// sharing: no randomness, no traffic, no round. The result has degree
	// P−1 and is good for linear gates and openings only, where the owner's published row
	// carries vs under the opening's zero mask; circuit.Plan.Execute
	// issues it for an input leaf that reaches nothing but openings.
	InputUnshared(owner int, vs []int64) Vec
	// Zero returns a trivial sharing of 0.
	Zero() Val
	// Add returns a sharing of a + b; local.
	Add(a, b Val) Val
	// Sub returns a sharing of a − b; local.
	Sub(a, b Val) Val
	// AddConst returns a sharing of a + c; local.
	AddConst(a Val, c int64) Val
	// MulConst returns a sharing of c·a; local.
	MulConst(a Val, c int64) Val
	// Mul returns a degree-t sharing of a·b via degree-reduction
	// resharing.
	Mul(a, b Val) Val
	// InnerProduct returns a sharing of Σ_k a[k]·b[k] with the fused
	// gate (one resharing total).
	InnerProduct(as, bs []Val) Val
	// Open reveals the signed secret to the caller.
	Open(s Val) int64

	// At extracts element k of a vector as a scalar; local.
	At(v Vec, k int) Val
	// AddVec returns the element-wise sum a + b; local.
	AddVec(a, b Vec) Vec
	// GatherBatch returns, for every j, the vector whose element k is
	// vs[j][idx[k]], as one command with one index list: an SGD step's
	// batch rows of every resident column. Local, no field operations;
	// indices may repeat. The vectors live one batch — the backend writes
	// the next GatherBatch's rows over theirs, and a gate handed one
	// afterwards panics with an invariant.Violation — while what was
	// derived from them keeps its value.
	GatherBatch(vs []Vec, idx []int) []Vec
	// LinComb returns c0 + Σ_k cs[k]·vs[k] element-wise over vectors of
	// one length: a single fused affine gate, local. It is metered as
	// the scalar MulConst gates it stands for — len(vs)·n field
	// operations per party — and the constant is free, as AddConst is.
	// Nil coefficients mean the plain sum c0 + Σ_k vs[k], which is
	// unmetered, as AddVec is. With no terms the result is the empty
	// vector.
	LinComb(vs []Vec, cs []int64, c0 int64) Vec
	// Dot returns a sharing of the inner product ⟨a, b⟩ (fused gate).
	Dot(a, b Vec) Val
	// DotBatch evaluates many fused inner products belonging to the
	// same communication round. workers is ignored: no backend takes a
	// pool width from its caller.
	DotBatch(pairs []VecPair, workers int) []Val
	// MulBatch evaluates one whole level of independent multiplicative
	// gates (scalar products, fused inner products, vector dots,
	// element-wise vector products, vectors of dots) in a single
	// degree-reduction round: all sub-shares travel in one frame per
	// party and unseeded peer. Results are returned in item order: a Val
	// per scalar-valued item, and in a MulHadamard or MulDots item's slot
	// its vector, a Vec.
	MulBatch(items []MulItem) []Val
	// MulBatchUnreduced evaluates one level of multiplicative gates
	// without the degree reduction: no traffic, no round. A result's
	// degree is the sum of its operands'; it is good for linear gates,
	// openings, a MulBatch, and a further product while the degrees sum
	// to at most P−1. circuit.Plan.Execute issues it for every product no
	// later gate needs at degree t.
	MulBatchUnreduced(items []MulItem) []Val
	// OpenBatch reveals many shared scalars in one batched opening
	// round (one frame from every other party to the decoding one,
	// carrying every share): an OpenVec of the scalars packed with
	// FromScalars.
	OpenBatch(vals []Val) []int64
	// FromScalars packs scalar shares into a vector; local.
	FromScalars(xs []Val) Vec
	// OpenVec reveals every element as one batched opening.
	OpenVec(v Vec) []int64
}

// Eval returns the engine as an Evaluator. It is the identity: Engine
// implements the interface itself.
func Eval(e *Engine) Evaluator { return e }
