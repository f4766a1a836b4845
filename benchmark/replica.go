package main

import (
	"fmt"
	"math"

	"sqm"
	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/core"
	"sqm/internal/dp"
	"sqm/internal/linalg"
	"sqm/internal/logreg"
	"sqm/internal/quant"
	"sqm/internal/randx"
	"sqm/internal/retry"
	"sqm/internal/transport"
)

// A session replica rebuilds what one facade session does — the same
// random streams, the same circuits, the same engine configuration — out
// of each layer's public functions, so the benchmark's own decorators
// and timers can sit between the layers. The end-to-end run never uses
// it. Two checks keep it honest: its released output must be
// bit-identical to the plain engine's for the same seed, and its
// rounds/frames/messages/bytes/FieldOps must equal core's own counters
// (core.replica_drift, and replica_test.go). When a core change breaks
// either, resync this file with internal/core's mpcCovariance,
// LRProtocol and LR3Protocol and internal/logreg's two SQM trainers.

// Engine seed offsets of the three core protocols.
const (
	covEngineXor = 0x51c0
	lrEngineXor  = 0x17a3
	lr3EngineXor = 0x3c91
	dialSeedXor  = 0xd1a1
	lr3Precision = core.DefaultLR3Precision
)

// replicaResult is what one replica session produced.
type replicaResult struct {
	out      []float64 // released output (covariance entries or weights)
	stats    bgw.Stats // engine counters, summed over the session's engines
	mulGates int64
	builds   int64 // plans compiled
	nodes    int64 // plan nodes executed
	depth    int64 // deepest plan executed
}

// rngFamily mirrors core's stream derivation: one public-coin stream,
// then one private stream per client.
func rngFamily(seed uint64, clients int) (pub *randx.RNG, clientRNGs []*randx.RNG) {
	root := randx.New(seed)
	pub = root.Fork()
	clientRNGs = make([]*randx.RNG, clients)
	for j := range clientRNGs {
		clientRNGs[j] = root.Fork()
	}
	return pub, clientRNGs
}

// replicaRun carries one replica session's recorder and tallies.
type replicaRun struct {
	w   workload
	rec *recorder
	res replicaResult
}

// timed runs fn inside a span named name that stands for calls
// operations.
func (r *replicaRun) timed(name string, calls int64, fn func()) {
	id := r.rec.begin(name)
	fn()
	r.rec.setCalls(id, calls)
	r.rec.end(id)
}

// newEngine mirrors core's Params.newEvaluator with the decorators
// inserted: timedMesh between the engine and its mesh, timedEvaluator
// between the plan executor and the engine.
func (r *replicaRun) newEngine(seed uint64) (*timedEvaluator, error) {
	id := r.rec.begin("bgw.new")
	defer r.rec.end(id)
	w := r.w
	cfg := bgw.Config{Parties: w.parties, Seed: seed}
	switch w.engine {
	case sqm.EngineBGW:
		eng, err := bgw.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		return &timedEvaluator{Evaluator: bgw.Eval(eng), rec: r.rec}, nil
	case sqm.EngineActorBGW:
		mesh := newTimedMesh(transport.NewChanMesh(w.parties))
		eng, err := bgw.NewActorEngine(cfg, mesh)
		if err != nil {
			mesh.Close()
			return nil, err
		}
		return &timedEvaluator{Evaluator: eng, rec: r.rec, mesh: mesh}, nil
	case sqm.EngineActorBGWNet:
		dial := r.rec.begin("transport.dial")
		inner, err := transport.NewTCPMesh(w.parties, transport.WithDialRetry(retry.Policy{
			Jitter: 0.5, Seed: seed ^ dialSeedXor, Name: "core.dial",
		}))
		r.rec.end(dial)
		if err != nil {
			return nil, err
		}
		mesh := newTimedMesh(inner)
		eng, err := bgw.NewActorEngine(cfg, mesh)
		if err != nil {
			mesh.Close()
			return nil, err
		}
		return &timedEvaluator{Evaluator: eng, rec: r.rec, mesh: mesh}, nil
	}
	return nil, fmt.Errorf("replica: engine %s has no MPC backend", w.engine)
}

// execute runs plan on eng inside a circuit.exec span and tallies it.
func (r *replicaRun) execute(eng *timedEvaluator, plan *circuit.Plan, bind circuit.Bindings) (*circuit.Result, error) {
	// Gates queued before the plan runs (the batch's At extractions)
	// are their own phase, outside the executor's span.
	eng.flush()
	id := r.rec.begin("circuit.exec")
	res, err := plan.Execute(eng, bind)
	eng.flush()
	r.rec.end(id)
	if err == nil {
		err = eng.Err()
	}
	r.res.nodes += int64(plan.Gates())
	if d := int64(plan.Depth()); d > r.res.depth {
		r.res.depth = d
	}
	return res, err
}

// compile finishes a recorded circuit inside the open circuit.build span.
func (r *replicaRun) compile(b *circuit.Builder) (*circuit.Plan, error) {
	r.res.builds++
	return b.Compile()
}

// closeEngine tears the engine down and folds its counters in.
func (r *replicaRun) closeEngine(eng *timedEvaluator) {
	r.res.stats = addStats(r.res.stats, eng.Stats())
	r.res.mulGates += eng.mulGates
	r.timed("bgw.close", 1, func() { eng.Close() })
}

// replicaSession runs one instrumented session under rec.
func (w workload) replicaSession(rec *recorder, in *inputs, seed uint64) (*replicaResult, error) {
	r := &replicaRun{w: w, rec: rec}
	rec.session++
	root := rec.begin("core.session")
	defer rec.end(root)
	var err error
	if w.kind == kindCov {
		err = r.covariance(in, seed)
	} else {
		err = r.logreg(in, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("replica session (seed %d): %w", seed, err)
	}
	return &r.res, nil
}

// covariance mirrors core.Covariance on an MPC engine.
func (r *replicaRun) covariance(in *inputs, seed uint64) error {
	w := r.w
	n, P := w.n, w.parties
	pairs := n * (n + 1) / 2
	_, clientRNGs := rngFamily(seed, n) // one client per column

	var qd *quant.IntMatrix
	r.timed("quant.matrix", int64(w.m*n), func() {
		qd = quant.Matrix(in.x, w.gamma, nil, func(j int) *randx.RNG { return clientRNGs[j] })
	})
	noise := make([][]int64, n)
	r.timed("randx.skellam", int64(n*pairs), func() {
		share := in.mu / float64(n)
		for j, g := range clientRNGs {
			noise[j] = g.SkellamVec(pairs, share)
		}
	})

	var plan *circuit.Plan
	var outIdx int
	var err error
	r.timed("circuit.build", 1, func() {
		b := circuit.NewBuilder(P, 0)
		cols := make([]bgw.Vec, n)
		for j := 0; j < n; j++ {
			cols[j] = b.InputVec(j%P, qd.Col(j))
		}
		var noiseAcc bgw.Vec
		for j := range noise {
			v := b.InputVec(j%P, noise[j])
			if noiseAcc == nil {
				noiseAcc = v
			} else {
				noiseAcc = b.AddVec(noiseAcc, v)
			}
		}
		pairList := make([]bgw.VecPair, 0, pairs)
		for a := 0; a < n; a++ {
			for c := a; c < n; c++ {
				pairList = append(pairList, bgw.VecPair{A: cols[a], B: cols[c]})
			}
		}
		dots := b.DotBatch(pairList, 0)
		outIdx = b.OpenVecIdx(b.AddVec(b.FromScalars(dots), noiseAcc))
		plan, err = r.compile(b)
	})
	if err != nil {
		return err
	}

	eng, err := r.newEngine(seed ^ covEngineXor)
	if err != nil {
		return err
	}
	res, err := r.execute(eng, plan, circuit.Bindings{})
	r.closeEngine(eng)
	if err != nil {
		return err
	}

	r.timed("core.decode", 1, func() {
		upper := res.OpenedVec(outIdx)
		out := linalg.NewMatrix(n, n)
		inv := 1 / (w.gamma * w.gamma)
		idx := 0
		for a := 0; a < n; a++ {
			for c := a; c < n; c++ {
				v := float64(upper[idx]) * inv
				out.Set(a, c, v)
				out.Set(c, a, v)
				idx++
			}
		}
		r.res.out = out.Data
	})
	return nil
}

// lrState is the per-training-run protocol state (core.LRProtocol /
// core.LR3Protocol): the engine, the resident data shares and the plan
// cache keyed by batch size.
type lrState struct {
	eng        *timedEvaluator
	featShares []bgw.Vec
	labShares  bgw.Vec
	plans      map[int]*gradPlan
}

type gradPlan struct {
	plan   *circuit.Plan
	outIdx []int
}

// logreg mirrors logreg.TrainSQM / TrainSQMOrder3 over core's protocols.
func (r *replicaRun) logreg(in *inputs, seed uint64) error {
	w := r.w
	d, m := w.n, in.x.Rows
	clients := d + 1 // one per feature column plus the label holder
	cfg := w.lrConfig(seed, w.engine)
	order3 := w.kind == kindLR3
	engineXor := uint64(lrEngineXor)
	if order3 {
		engineXor = lr3EngineXor
	}

	// setup mirrors NewLRProtocol / NewLR3Protocol: quantize, start the
	// engine, share the data in one input round. The random streams
	// restart from the seed on every call, as in core.
	var pub *randx.RNG
	var clientRNGs []*randx.RNG
	setup := func() (*lrState, error) {
		pub, clientRNGs = rngFamily(seed, clients)
		var feat *quant.IntMatrix
		lab := make([]int64, m)
		r.timed("quant.matrix", int64(m*clients), func() {
			feat = quant.Matrix(in.x, w.gamma, nil, func(j int) *randx.RNG { return clientRNGs[j] })
			g := clientRNGs[d]
			for i, y := range in.y {
				lab[i] = g.StochasticRound(w.gamma * y)
			}
		})
		eng, err := r.newEngine(seed ^ engineXor)
		if err != nil {
			return nil, err
		}
		var plan *circuit.Plan
		featH := make([]bgw.Vec, d)
		var labH bgw.Vec
		r.timed("circuit.build", 1, func() {
			sb := circuit.NewBuilder(w.parties, 0)
			for j := 0; j < d; j++ {
				featH[j] = sb.InputVec(j%w.parties, feat.Col(j))
			}
			labH = sb.InputVec(d%w.parties, lab)
			plan, err = r.compile(sb)
		})
		if err != nil {
			r.closeEngine(eng)
			return nil, err
		}
		sres, err := r.execute(eng, plan, circuit.Bindings{})
		if err != nil {
			r.closeEngine(eng)
			return nil, err
		}
		st := &lrState{eng: eng, featShares: make([]bgw.Vec, d), plans: make(map[int]*gradPlan)}
		for j := range st.featShares {
			st.featShares[j] = sres.VecOf(featH[j])
		}
		st.labShares = sres.VecOf(labH)
		return st, nil
	}

	// Calibration. The order-1 trainer uses Lemma 7's closed form; the
	// order-3 trainer builds the whole protocol once to ask it for its
	// sensitivity, tears it down, and builds it again with the noise.
	var mu float64
	var err error
	if order3 {
		probe, err := setup()
		if err != nil {
			return err
		}
		r.closeEngine(probe.eng)
		// The sensitivity bound is core's own formula; a plain-engine
		// protocol computes it and holds nothing to close.
		ref, err := core.NewLR3Protocol(in.x, in.y, core.Params{Gamma: w.gamma, Seed: seed}, 0)
		if err != nil {
			return err
		}
		d2, d1 := ref.Sensitivity()
		r.timed("dp.calibrate", 1, func() {
			mu, err = dp.CalibrateSkellamMu(cfg.Eps, cfg.Delta, d1, d2, cfg.SampleRate, cfg.Rounds())
		})
	} else {
		r.timed("dp.calibrate", 1, func() { mu, err = logreg.CalibrateMu(cfg, d) })
	}
	if err != nil {
		return err
	}

	st, err := setup()
	if err != nil {
		return err
	}
	defer r.closeEngine(st.eng)

	k := float64(lr3Precision)
	k3 := k * k * k
	g := w.gamma
	scale := math.Pow(g, 3)
	if order3 {
		scale = k3 * math.Pow(g, 5)
	}
	wt := initWeights(d, seed^w.trainerSeedXor())
	step := -0.5 / (cfg.SampleRate * float64(m))
	for round := 0; round < cfg.Rounds(); round++ {
		batch := pub.BernoulliSubset(m, cfg.SampleRate)

		// Public coefficient pre-processing.
		var consts []int64
		if order3 {
			beta := math.Cbrt(g / 48)
			wq, wc := make([]int64, d), make([]int64, d)
			for j, wj := range wt {
				wq[j] = pub.StochasticRound(k3 * g * g * g * wj / 4)
				wc[j] = pub.StochasticRound(k * beta * wj)
			}
			consts = append(append(wq, wc...), pub.StochasticRound(k3*g*g*g*g/2))
		} else {
			consts = make([]int64, d, d+1)
			for j, wj := range wt {
				consts[j] = pub.StochasticRound(g * wj / 4)
			}
			consts = append(consts, pub.StochasticRound(g*g/2))
		}

		noise := make([][]int64, clients)
		r.timed("randx.skellam", int64(clients*d), func() {
			for j, cg := range clientRNGs {
				noise[j] = cg.SkellamVec(d, mu/float64(clients))
			}
		})

		pl, ok := st.plans[len(batch)]
		if !ok {
			r.timed("circuit.build", 1, func() { pl, err = r.gradientPlan(len(batch), clients, order3) })
			if err != nil {
				return err
			}
			st.plans[len(batch)] = pl
		}

		res, err := r.gradientStep(st, pl, consts, noise, batch)
		if err != nil {
			return err
		}

		r.timed("core.decode", 1, func() {
			grad := make([]float64, d)
			for t := range grad {
				grad[t] = float64(res.Opened(pl.outIdx[t])) / scale
			}
			linalg.Axpy(step, grad, wt)
			linalg.ClipNorm(wt, 1)
		})
	}
	r.res.out = wt
	return nil
}

// gradientStep mirrors mpcGradient: gather the batch's share handles
// (local, no traffic), lay the noise shares out in plan order and run
// the cached plan.
func (r *replicaRun) gradientStep(st *lrState, pl *gradPlan, consts []int64, noise [][]int64, batch []int) (*circuit.Result, error) {
	d := r.w.n
	ext := make([]bgw.Val, 0, len(batch)*(d+1))
	for _, i := range batch {
		for j := 0; j < d; j++ {
			ext = append(ext, st.eng.At(st.featShares[j], i))
		}
		ext = append(ext, st.eng.At(st.labShares, i))
	}
	inputs := make([]int64, 0, d*len(noise))
	for t := 0; t < d; t++ {
		for _, shares := range noise {
			inputs = append(inputs, shares[t])
		}
	}
	return r.execute(st.eng, pl.plan, circuit.Bindings{Consts: consts, Inputs: inputs, Ext: ext})
}

// gradientPlan mirrors LRProtocol.gradientPlan (order 1) and
// LR3Protocol.gradientPlan (order 3) for a batch of B records.
func (r *replicaRun) gradientPlan(B, clients int, order3 bool) (*gradPlan, error) {
	w := r.w
	d, P := w.n, w.parties
	b := circuit.NewBuilder(P, 0)
	wqP := make([]circuit.ConstID, d)
	for j := range wqP {
		wqP[j] = b.ConstParam()
	}
	var wcP []circuit.ConstID
	if order3 {
		wcP = make([]circuit.ConstID, d)
		for j := range wcP {
			wcP[j] = b.ConstParam()
		}
	}
	qHalfP := b.ConstParam()

	feats := make([][]bgw.Val, B)
	labs := make([]bgw.Val, B)
	for bi := 0; bi < B; bi++ {
		feats[bi] = make([]bgw.Val, d)
		for j := 0; j < d; j++ {
			feats[bi][j] = b.ExtVal()
		}
		labs[bi] = b.ExtVal()
	}

	noiseShared := make([]bgw.Val, d)
	for t := 0; t < d; t++ {
		acc := b.Zero()
		for j := 0; j < clients; j++ {
			acc = b.Add(acc, b.InputParam(j%P))
		}
		noiseShared[t] = acc
	}

	gammaInt := int64(w.gamma)
	k := int64(lr3Precision)
	labelCoef := int64(float64(k*k*k) * math.Pow(w.gamma, 3))
	us := make([]bgw.Val, B)
	for bi := 0; bi < B; bi++ {
		if !order3 {
			acc := b.Zero()
			for j := 0; j < d; j++ {
				acc = b.Add(acc, b.MulConstP(feats[bi][j], wqP[j]))
			}
			acc = b.Sub(acc, b.MulConst(labs[bi], gammaInt))
			us[bi] = b.AddConstP(acc, qHalfP)
			continue
		}
		s2, c := b.Zero(), b.Zero()
		for j := 0; j < d; j++ {
			s2 = b.Add(s2, b.MulConstP(feats[bi][j], wqP[j]))
			c = b.Add(c, b.MulConstP(feats[bi][j], wcP[j]))
		}
		lin := b.AddConstP(b.Sub(s2, b.MulConst(labs[bi], labelCoef)), qHalfP)
		us[bi] = b.Sub(lin, b.Mul(b.Mul(c, c), c))
	}

	outIdx := make([]int, d)
	xs := make([]bgw.Val, B)
	for t := 0; t < d; t++ {
		for bi := 0; bi < B; bi++ {
			xs[bi] = feats[bi][t]
		}
		outIdx[t] = b.OpenIdx(b.Add(b.InnerProduct(xs, us), noiseShared[t]))
	}
	plan, err := r.compile(b)
	if err != nil {
		return nil, err
	}
	return &gradPlan{plan: plan, outIdx: outIdx}, nil
}
