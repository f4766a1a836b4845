package main

import (
	"time"

	"sqm/internal/bgw"
	"sqm/internal/field"
)

// opClass groups the evaluator's operations by what they cost.
type opClass int

const (
	classInput opClass = iota // secret-share an input: sharing arithmetic + one frame per peer
	classLocal                // linear gates and handle shuffling: no traffic
	classMul                  // degree-reduction exchange
	classOpen                 // opening exchange
)

var classSpan = [...]string{"bgw.input", "bgw.local", "bgw.mul", "bgw.open"}

// queued is the caller-side time of one class since the last barrier.
type queued struct {
	start time.Time
	dur   time.Duration
	calls int64
}

func (q *queued) add(start time.Time) {
	if q.calls == 0 {
		q.start = start
	}
	q.dur += time.Since(start)
	q.calls++
}

// timedEvaluator decorates a bgw.Evaluator with per-class spans. It is
// transparent: handles pass through untouched, share material is never
// inspected, and every method it does not time (Parties, Stats,
// AdvanceRound, …) is the inner evaluator's own.
//
// The actor engines run the parties behind the caller: Input and the
// local gates only enqueue, and the work surfaces at the next operation
// that synchronises. To charge each phase its own time the decorator
// puts a barrier (the inner Stats call, which costs no traffic) before
// and after every exchange. The drain before an exchange is charged to
// bgw.input when inputs were queued since the last barrier and to
// bgw.local otherwise; input and local calls themselves are coalesced
// into one span per phase, with Calls counting them.
type timedEvaluator struct {
	bgw.Evaluator
	rec  *recorder
	mesh *timedMesh // nil on the monolithic engine

	pending  [2]queued // classInput, classLocal
	mulGates int64
}

func (e *timedEvaluator) barrier() { _ = e.Evaluator.Stats() }

// emit records one phase span with the parties' transport time inside
// it as children.
func (e *timedEvaluator) emit(class opClass, start time.Time, dur time.Duration, calls int64) {
	parent := e.rec.parent()
	id := e.rec.add(parent, classSpan[class], -1, start, dur, calls)
	if e.mesh == nil {
		return
	}
	for party, pt := range e.mesh.harvest() {
		if pt.sends > 0 {
			e.rec.add(id, "transport.send", party, start, pt.send, pt.sends)
		}
		if pt.recvs > 0 {
			e.rec.add(id, "transport.recv_wait", party, start, pt.recvWait, pt.recvs)
		}
	}
}

// flush drains the parties and emits the queued input and local time.
// Call it once more after the last Execute of a session.
func (e *timedEvaluator) flush() {
	in, loc := &e.pending[classInput], &e.pending[classLocal]
	if in.calls == 0 && loc.calls == 0 {
		return
	}
	start := time.Now()
	e.barrier()
	drain := time.Since(start)
	if in.calls > 0 {
		if loc.calls > 0 {
			e.rec.add(e.rec.parent(), classSpan[classLocal], -1, loc.start, loc.dur, loc.calls)
		}
		e.emit(classInput, in.start, in.dur+drain, in.calls)
	} else {
		e.emit(classLocal, loc.start, loc.dur+drain, loc.calls)
	}
	*in, *loc = queued{}, queued{}
}

// exchange times one synchronising operation between two barriers.
func (e *timedEvaluator) exchange(class opClass, op func()) {
	e.flush()
	start := time.Now()
	op()
	e.barrier()
	e.emit(class, start, time.Since(start), 1)
}

// ---- inputs ----

func (e *timedEvaluator) Input(owner int, v int64) bgw.Val {
	defer e.pending[classInput].add(time.Now())
	return e.Evaluator.Input(owner, v)
}

func (e *timedEvaluator) InputElem(owner int, el field.Elem) bgw.Val {
	defer e.pending[classInput].add(time.Now())
	return e.Evaluator.InputElem(owner, el)
}

func (e *timedEvaluator) InputVec(owner int, vs []int64) bgw.Vec {
	defer e.pending[classInput].add(time.Now())
	return e.Evaluator.InputVec(owner, vs)
}

// ---- local gates ----

func (e *timedEvaluator) Zero() bgw.Val {
	defer e.pending[classLocal].add(time.Now())
	return e.Evaluator.Zero()
}

func (e *timedEvaluator) Add(a, b bgw.Val) bgw.Val {
	defer e.pending[classLocal].add(time.Now())
	return e.Evaluator.Add(a, b)
}

func (e *timedEvaluator) Sub(a, b bgw.Val) bgw.Val {
	defer e.pending[classLocal].add(time.Now())
	return e.Evaluator.Sub(a, b)
}

func (e *timedEvaluator) AddConst(a bgw.Val, c int64) bgw.Val {
	defer e.pending[classLocal].add(time.Now())
	return e.Evaluator.AddConst(a, c)
}

func (e *timedEvaluator) MulConst(a bgw.Val, c int64) bgw.Val {
	defer e.pending[classLocal].add(time.Now())
	return e.Evaluator.MulConst(a, c)
}

func (e *timedEvaluator) At(v bgw.Vec, k int) bgw.Val {
	defer e.pending[classLocal].add(time.Now())
	return e.Evaluator.At(v, k)
}

func (e *timedEvaluator) AddVec(a, b bgw.Vec) bgw.Vec {
	defer e.pending[classLocal].add(time.Now())
	return e.Evaluator.AddVec(a, b)
}

func (e *timedEvaluator) FromScalars(xs []bgw.Val) bgw.Vec {
	defer e.pending[classLocal].add(time.Now())
	return e.Evaluator.FromScalars(xs)
}

// ---- degree-reduction exchanges ----

func (e *timedEvaluator) Mul(a, b bgw.Val) (out bgw.Val) {
	e.mulGates++
	e.exchange(classMul, func() { out = e.Evaluator.Mul(a, b) })
	return out
}

func (e *timedEvaluator) InnerProduct(as, bs []bgw.Val) (out bgw.Val) {
	e.mulGates++
	e.exchange(classMul, func() { out = e.Evaluator.InnerProduct(as, bs) })
	return out
}

func (e *timedEvaluator) Dot(a, b bgw.Vec) (out bgw.Val) {
	e.mulGates++
	e.exchange(classMul, func() { out = e.Evaluator.Dot(a, b) })
	return out
}

func (e *timedEvaluator) DotBatch(pairs []bgw.VecPair, workers int) (out []bgw.Val) {
	e.mulGates += int64(len(pairs))
	e.exchange(classMul, func() { out = e.Evaluator.DotBatch(pairs, workers) })
	return out
}

func (e *timedEvaluator) MulBatch(items []bgw.MulItem) (out []bgw.Val) {
	e.mulGates += int64(len(items))
	e.exchange(classMul, func() { out = e.Evaluator.MulBatch(items) })
	return out
}

// ---- openings ----

func (e *timedEvaluator) Open(s bgw.Val) (out int64) {
	e.exchange(classOpen, func() { out = e.Evaluator.Open(s) })
	return out
}

func (e *timedEvaluator) OpenBatch(vals []bgw.Val) (out []int64) {
	e.exchange(classOpen, func() { out = e.Evaluator.OpenBatch(vals) })
	return out
}

func (e *timedEvaluator) OpenVec(v bgw.Vec) (out []int64) {
	e.exchange(classOpen, func() { out = e.Evaluator.OpenVec(v) })
	return out
}
