// Package bgw implements the BGW protocol (Ben-Or, Goldwasser, Wigderson
// 1988) for semi-honest parties over the field of package field, as used
// by SQM (§II and Appendix B of the paper):
//
//  1. each party secret-shares its private inputs with Shamir's scheme —
//     except an input that reaches nothing but openings, which its owner
//     keeps (InputUnshared: no randomness, no traffic, no round) and adds
//     under the mask of step 3,
//  2. addition and scaling are local; each multiplication takes the
//     pointwise product of shares (a degree-2t sharing) followed by a
//     degree-reduction resharing round — except on a level nothing
//     multiplies after, which keeps its degree-2t values
//     (MulBatchUnreduced) and saves the round,
//  3. outputs are opened by interpolating at 0 over all P points, which
//     2t < P makes right at either degree: every party publishes its
//     Lagrange-weighted share under a pairwise zero mask and sums the
//     published rows (PRIVACY.md "Open the degree you hold").
//
// There is one implementation of a party (actorParty) and one Engine
// that drives P of them, inline in the caller's goroutine or as
// goroutines behind a transport mesh. Either way the share arithmetic
// is performed faithfully (so outputs are bit-exact with the plaintext
// computation) and the communication is metered: traffic is counted
// where a row is sent, every resharing or opening round advances a
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
	Seed      uint64       // seeds the per-party private randomness
	Recorder  obs.Recorder // telemetry sink; nil disables at zero cost
	// RecvTimeout bounds every blocking receive of parties behind a
	// mesh: a peer that stays silent past the deadline surfaces as a
	// transport.ErrTimeout party failure instead of a hung protocol.
	// 0 keeps receives blocking (the trusted-simulation default).
	// Inline parties never block and ignore it.
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
	// input). The count is exact for products, affine gates, unshared
	// inputs — one x/λ_owner per element, at the owner — and openings —
	// one λ_i·s_i per element and party, the rows are summed — and a
	// model for sharings: P·(t+1) per dealt element, P+t+1 per reshared
	// product and party.
	FieldOps int64
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
	// MulScalar is one scalar product a·b (fields A, B).
	MulScalar MulKind = iota
	// MulInner is one fused inner product Σ_k As[k]·Bs[k] over scalar
	// handles (fields As, Bs).
	MulInner
	// MulDot is one fused inner product ⟨VA, VB⟩ over vector handles
	// (fields VA, VB).
	MulDot
)

// MulItem describes one multiplicative gate of a batched round. Only
// the fields selected by Kind are read.
type MulItem struct {
	Kind   MulKind
	A, B   Val   // MulScalar operands
	As, Bs []Val // MulInner operand lists
	VA, VB Vec   // MulDot operands
}

// InputItem names one scalar of a batched input round: party Owner
// secret-shares the field element Elem (field.FromInt64 of a signed
// input).
type InputItem struct {
	Owner int
	Elem  field.Elem
}

// Evaluator is the abstract MPC backend the SQM protocols run against.
// It captures exactly the share operations the paper's circuits need:
// input sharing, local linear algebra — scalar gates and the vector
// gates AddVec, Gather and LinComb, which carry a whole column of a
// vertically partitioned batch as one command — degree-reduction
// multiplication, fused inner products and openings. Backends: the
// Engine of this package with inline parties (NewEngine) or with party
// goroutines over a pluggable transport (NewActorEngine), and — because
// BGW computes exactly — the plaintext engine in internal/core that
// bypasses sharing entirely.
//
// All operations follow the semi-honest, synchronized-round model of the
// concrete engines: structured protocols batch the independent messages
// of a phase into one round via AdvanceRound.
type Evaluator interface {
	// Parties returns P.
	Parties() int
	// Threshold returns t.
	Threshold() int
	// Stats returns a snapshot of the execution counters. For
	// transport-backed evaluators the message/byte counts are measured
	// from real traffic, not modeled.
	Stats() Stats
	// ResetStats zeroes the counters.
	ResetStats()
	// AdvanceRound accounts one communication round.
	AdvanceRound()
	// Recorder returns the backend's telemetry sink; never nil (the
	// no-op recorder when telemetry is disabled).
	Recorder() obs.Recorder
	// Err returns the first failure the backend hit (transport abort,
	// EOF mid-round); nil while healthy. Openings performed after a
	// failure return zero values.
	Err() error
	// Close releases backend resources (party goroutines, sockets).
	Close() error

	// Input has party owner secret-share the signed value v.
	Input(owner int, v int64) Val
	// InputElem has party owner secret-share a raw field element.
	InputElem(owner int, e field.Elem) Val
	// InputVec has party owner secret-share the signed vector vs.
	InputVec(owner int, vs []int64) Vec
	// InputUnshared enters party owner's signed vector vs without a
	// sharing: no randomness, no traffic, no round. The result is good
	// for linear gates and openings only, where the owner's published row
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
	// Mul returns a sharing of a·b via degree-reduction resharing.
	Mul(a, b Val) Val
	// InnerProduct returns a sharing of Σ_k a[k]·b[k] with the fused
	// gate (one resharing total).
	InnerProduct(as, bs []Val) Val
	// AdditiveShares converts the Shamir sharing to an additive sharing
	// locally: party i's addend is weights[i]·share_i.
	AdditiveShares(s Val, weights []field.Elem) []field.Elem
	// Open reveals the signed secret to all parties.
	Open(s Val) int64

	// At extracts element k of a vector as a scalar; local.
	At(v Vec, k int) Val
	// AddVec returns the element-wise sum a + b; local.
	AddVec(a, b Vec) Vec
	// Gather returns the vector whose element k is v[idx[k]]; local, no
	// field operations. Indices may repeat; the result has len(idx)
	// elements.
	Gather(v Vec, idx []int) Vec
	// LinComb returns c0 + Σ_k cs[k]·vs[k] element-wise over vectors of
	// one length: a single fused affine gate, local. It is metered as
	// the scalar MulConst gates it stands for — len(vs)·n field
	// operations per party — and the constant is free, as AddConst is.
	// With no terms the result is the empty vector.
	LinComb(vs []Vec, cs []int64, c0 int64) Vec
	// Dot returns a sharing of the inner product ⟨a, b⟩ (fused gate).
	Dot(a, b Vec) Val
	// DotBatch evaluates many fused inner products belonging to the
	// same communication round. workers is ignored: no backend takes a
	// pool width from its caller.
	DotBatch(pairs []VecPair, workers int) []Val
	// MulBatch evaluates one whole level of independent multiplicative
	// gates (scalar products, fused inner products, vector dots) in a
	// single degree-reduction round: all sub-shares travel in one frame
	// per ordered party pair. Results are returned in item order.
	MulBatch(items []MulItem) []Val
	// MulBatchUnreduced evaluates one level of multiplicative gates
	// without the degree reduction: no traffic, no round. The results
	// are degree-2t sharings, good for linear gates and openings only;
	// circuit.Plan.Execute issues it for a level nothing multiplies
	// after.
	MulBatchUnreduced(items []MulItem) []Val
	// OpenBatch reveals many shared scalars in one batched opening
	// round (one frame per ordered party pair carrying every share).
	OpenBatch(vals []Val) []int64
	// InputBatch shares a whole input round of scalars: each owner
	// shares its items in item order and sends every peer one frame
	// carrying all of them, so the round costs (#distinct owners)·(P−1)
	// frames while messages and bytes equal per-scalar Input. Results
	// are returned in item order.
	InputBatch(items []InputItem) []Val
	// FromScalars packs scalar shares into a vector; local.
	FromScalars(xs []Val) Vec
	// OpenVec reveals every element as one batched opening.
	OpenVec(v Vec) []int64
}

// Eval returns the engine as an Evaluator. It is the identity: Engine
// implements the interface itself, and the function stays for callers
// written when the inline engine needed an adapter.
func Eval(e *Engine) Evaluator { return e }
