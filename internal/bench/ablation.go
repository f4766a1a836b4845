package bench

import (
	"fmt"
	"math"

	"sqm/internal/bgw"
	"sqm/internal/circuit"
	"sqm/internal/dataset"
	"sqm/internal/dp"
	"sqm/internal/linalg"
	"sqm/internal/logreg"
	"sqm/internal/quant"
	"sqm/internal/randx"
	"time"
)

// Ablations runs the design-decision studies called out in
// DESIGN.md. They are not paper figures; they quantify why SQM is built
// the way it is.
func Ablations(o Options) []*Table {
	o = o.Defaults()
	return []*Table{
		AblationCoefficientScaling(o),
		AblationFusedGates(o),
		AblationRounding(o),
		AblationSkellamVsGaussian(o),
		AblationTaylorOrder(o),
		AblationSparseGram(o),
		AblationNoiseTransport(o),
	}
}

// AblationNoiseTransport compares three ways of aggregating the clients'
// Skellam shares: through BGW inputs with every client its own party (the
// paper's Algorithm 3), through BGW inputs when fewer parties host the
// clients and each shares the sum of its clients' vectors once, and as the
// compiled plan enters them — unshared addends every party puts into the
// row it publishes, under the opening's own zero mask. The noise sum is
// linear, so the cheap transports suffice and the results agree exactly.
func AblationNoiseTransport(o Options) *Table {
	const (
		clients = 6
		hosts   = 3 // parties of the hosted shape: two clients each
		length  = 500
		mu      = 1000.0
	)
	tbl := &Table{
		ID:     "abl-transport",
		Title:  fmt.Sprintf("Noise aggregation transports: BGW inputs vs unshared addends (%d clients, %d coords)", clients, length),
		Header: []string{"transport", "messages", "bytes", "aggregate matches"},
	}
	// Identical per-client noise draws for every transport.
	draw := func() [][]int64 {
		root := randx.New(o.Seed + 99)
		out := make([][]int64, clients)
		for j := range out {
			out[j] = root.Fork().SkellamVec(length, mu/clients)
		}
		return out
	}
	want := make([]int64, length)
	for _, shares := range draw() {
		for k, v := range shares {
			want[k] += v
		}
	}

	// sumInputs has party j mod parties input vector j and adds the
	// inputs up.
	sumInputs := func(ev interface {
		InputVec(owner int, vs []int64) bgw.Vec
		AddVec(a, b bgw.Vec) bgw.Vec
	}, vecs [][]int64, parties int) bgw.Vec {
		var acc bgw.Vec
		for j, shares := range vecs {
			v := ev.InputVec(j%parties, shares)
			if acc == nil {
				acc = v
			} else {
				acc = ev.AddVec(acc, v)
			}
		}
		return acc
	}

	// BGW transport.
	eng, err := bgw.NewEngine(bgw.Config{Parties: clients, Seed: o.Seed})
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	defer eng.Close()
	acc := sumInputs(eng, draw(), clients)
	got := eng.OpenVec(acc)
	bgwMatch := equalInt64(got, want)
	st := eng.Stats()
	tbl.Rows = append(tbl.Rows, []string{"BGW inputs, one party per client", fmt.Sprint(st.Messages), fmt.Sprint(st.Bytes), bgwMatch})

	// The same clients hosted on fewer parties, each sharing the sum of
	// the vectors its clients sampled.
	heng, err := bgw.NewEngine(bgw.Config{Parties: hosts, Seed: o.Seed})
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	defer heng.Close()
	sums := make([][]int64, hosts)
	for j, shares := range draw() {
		if sums[j%hosts] == nil {
			sums[j%hosts] = make([]int64, length)
		}
		for k, v := range shares {
			sums[j%hosts][k] += v
		}
	}
	hgot := heng.OpenVec(sumInputs(heng, sums, hosts))
	hst := heng.Stats()
	tbl.Rows = append(tbl.Rows, []string{
		fmt.Sprintf("BGW inputs, %d hosting parties (one sharing per dealer)", hosts),
		fmt.Sprint(hst.Messages), fmt.Sprint(hst.Bytes), equalInt64(hgot, want),
	})

	// The same hosted clients as a compiled plan, which is how a release
	// enters them: the sum reaches nothing but its opening, so Compile
	// folds each party's vectors and Execute shares none of them. The
	// messages are the opening's.
	ueng, err := bgw.NewEngine(bgw.Config{Parties: hosts, Seed: o.Seed})
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	defer ueng.Close()
	b := circuit.NewBuilder(hosts, 0)
	out := b.OpenVecIdx(sumInputs(b, draw(), hosts))
	res, err := b.MustCompile().Execute(ueng, circuit.Bindings{})
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	ust := ueng.Stats()
	tbl.Rows = append(tbl.Rows, []string{
		fmt.Sprintf("unshared addends under the release's zero mask, %d hosting parties", hosts),
		fmt.Sprint(ust.Messages), fmt.Sprint(ust.Bytes), equalInt64(res.OpenedVec(out), want),
	})
	tbl.Notes = append(tbl.Notes,
		"BGW inputs send one share vector per dealer and unseeded peer — the dealer's t next parties draw theirs from a stream they share with it — (per client pair when every client is a party, per hosting-party pair when a party deals the sum of the clients it hosts) and open the sum only inside the release; the unshared addend sends nothing of its own — its messages are the release's opening, which is itself a pairwise-masked sum (Bonawitz et al.), so the noise total stays inside the release at the price of one masked vector per party but the decoding one")
	return tbl
}

func equalInt64(a, b []int64) string {
	if len(a) != len(b) {
		return "NO"
	}
	for i := range a {
		if a[i] != b[i] {
			return "NO"
		}
	}
	return "yes"
}

// AblationSparseGram measures the CSR Gram path against the dense one
// on a CiteSeer-like sparse shape: the covariance cost drops from
// O(m·n²) to O(Σ nnz²), which is what makes the full-size sparse
// datasets tractable.
func AblationSparseGram(o Options) *Table {
	m, n := 1000, 600
	tbl := &Table{
		ID:     "abl-sparse",
		Title:  fmt.Sprintf("Dense vs CSR Gram on CiteSeer-like data (m=%d, n=%d)", m, n),
		Header: []string{"path", "time (ms)", "max |diff|"},
	}
	x := dataset.CiteSeerLike(m, n, o.Seed).X
	s := linalg.SparseFromDense(x, 0)

	t0 := time.Now()
	dense := x.Gram()
	denseMS := time.Since(t0).Seconds() * 1000

	t1 := time.Now()
	sparse := s.Gram()
	sparseMS := time.Since(t1).Seconds() * 1000

	diff := sparse.Sub(dense).MaxAbs()
	tbl.Rows = append(tbl.Rows,
		[]string{"dense", fmt.Sprintf("%.2f", denseMS), "0"},
		[]string{"CSR", fmt.Sprintf("%.2f", sparseMS), fe(diff)},
	)
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("nnz density %.2f%%; identical results, ~%.0fx faster on this shape",
			100*float64(s.NNZ())/float64(m*n), denseMS/math.Max(sparseMS, 1e-6)))
	return tbl
}

// AblationTaylorOrder compares the order-1 and order-3 Taylor sigmoid
// trainers at equal privacy budgets (the §V-C extension): order 3
// approximates the sigmoid better but pays a γ⁵ amplification, so its
// feasible γ is smaller and the conservative degree-4 sensitivity costs
// noise — empirically order 1 is the better trade, which is the paper's
// choice.
func AblationTaylorOrder(o Options) *Table {
	mTrain, mTest, d, q := lrShape(Options{}) // always the small shape
	tbl := &Table{
		ID:     "abl-taylor",
		Title:  fmt.Sprintf("Taylor order 1 vs 3 for SQM logistic regression (m=%d, d=%d, %d runs)", mTrain, d, o.Runs),
		Header: []string{"eps", "order 1 (g=2^13)", "order 3 (g=2^8)", "non-private"},
	}
	ds, err := dataset.ACSIncomeLike("CA", mTrain, mTest, d, o.Seed)
	if err != nil {
		tbl.Notes = append(tbl.Notes, err.Error())
		return tbl
	}
	nonpriv := logreg.Accuracy(logreg.TrainNonPrivate(ds.X, ds.Labels, o.Seed), ds.TestX, ds.TestLabels)
	for _, eps := range []float64{1, 4, 8} {
		cfg := logreg.Config{Eps: eps, Delta: 1e-5, Epochs: epochsFor(eps), SampleRate: q}
		o1 := avgUtility(o, func(seed uint64) (float64, error) {
			c := cfg
			c.Seed = seed
			c.Gamma = 1 << 13
			m, err := logreg.TrainSQM(ds.X, ds.Labels, c)
			if err != nil {
				return 0, err
			}
			return logreg.Accuracy(m, ds.TestX, ds.TestLabels), nil
		})
		o3 := avgUtility(o, func(seed uint64) (float64, error) {
			c := cfg
			c.Seed = seed
			c.Gamma = 1 << 8
			m, err := logreg.TrainSQMOrder3(ds.X, ds.Labels, c)
			if err != nil {
				return 0, err
			}
			return logreg.Accuracy(m, ds.TestX, ds.TestLabels), nil
		})
		tbl.Rows = append(tbl.Rows, []string{fe(eps), f3(o1), f3(o3), f3(nonpriv)})
	}
	tbl.Notes = append(tbl.Notes, "order 3's tighter sigmoid fit does not pay for its smaller feasible gamma and degree-4 sensitivity")
	return tbl
}

// AblationCoefficientScaling compares Algorithm 3's uniform-γ^{λ+1}
// coefficient pre-processing against the naive alternative the paper
// rejects (§IV-B): evaluating and perturbing each degree class
// separately, which splits the privacy budget and adds the per-class
// worst cases. Reported: the per-coordinate noise std in unscaled units
// for the LR gradient polynomial.
func AblationCoefficientScaling(o Options) *Table {
	const (
		d     = 200
		eps   = 1.0
		delta = 1e-5
	)
	tbl := &Table{
		ID:     "abl-coef",
		Title:  "Coefficient pre-processing (Algorithm 3) vs per-degree release (LR gradient, d=200, eps=1)",
		Header: []string{"gamma", "joint noise std", "per-degree noise std", "ratio"},
	}
	for _, gamma := range []float64{256, 1024, 4096} {
		// Joint: Lemma 7 sensitivities, single release at full budget.
		d2, d1 := logreg.Sensitivities(gamma, d)
		muJoint, err := dp.CalibrateSkellamMu(eps, delta, d1, d2, 1, 1)
		if err != nil {
			tbl.Notes = append(tbl.Notes, err.Error())
			continue
		}
		joint := math.Sqrt(2*muJoint) / math.Pow(gamma, 3)

		// Naive: the degree-1 class (½·x) and degree-2 class
		// (⟨w/4,x⟩x − y·x) are computed at their own scales (γ² and γ³)
		// and perturbed separately at ε/2 each.
		g2, g3 := gamma*gamma, gamma*gamma*gamma
		d2a := 0.5*g2 + 2*gamma // ½·x scaled by γ², + rounding slack
		d1a := math.Min(d2a*d2a, math.Sqrt(d)*d2a)
		muA, err := dp.CalibrateSkellamMu(eps/2, delta/2, d1a, d2a, 1, 1)
		if err != nil {
			tbl.Notes = append(tbl.Notes, err.Error())
			continue
		}
		d2b := 1.25*g3 + math.Sqrt(9*math.Pow(gamma, 5)*d) // |⟨w/4,x⟩| + |y| ≤ 1.25
		d1b := math.Min(d2b*d2b, math.Sqrt(d)*d2b)
		muB, err := dp.CalibrateSkellamMu(eps/2, delta/2, d1b, d2b, 1, 1)
		if err != nil {
			tbl.Notes = append(tbl.Notes, err.Error())
			continue
		}
		// Total unscaled noise variance = sum of the rescaled parts.
		naive := math.Sqrt(2*muA/(g2*g2) + 2*muB/(g3*g3))
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%g", gamma), fe(joint), fe(naive), f3(naive / joint),
		})
	}
	tbl.Notes = append(tbl.Notes, "ratio > 1 means the rejected per-degree scheme needs more noise at equal (eps, delta)")
	return tbl
}

// AblationFusedGates compares the fused inner-product gate (one
// resharing per Gram entry) against per-multiplication resharing on the
// same covariance computation, counting messages and rounds.
func AblationFusedGates(o Options) *Table {
	const (
		m, n    = 40, 6
		parties = 4
	)
	tbl := &Table{
		ID:     "abl-fused",
		Title:  fmt.Sprintf("Fused inner-product gates vs per-multiplication resharing (Gram, m=%d, n=%d, P=%d)", m, n, parties),
		Header: []string{"variant", "rounds", "messages", "field ops", "result matches"},
	}
	x := dataset.KDDCupLike(m, n, o.Seed).X
	qd := quant.Matrix(x, 64, randx.New(o.Seed), nil)

	// run counts from after the input round (issued by the first Stats):
	// a Dot, a Mul and an Open are one round each.
	run := func(fused bool) (bgw.Stats, []int64) {
		eng, err := bgw.NewEngine(bgw.Config{Parties: parties, Seed: o.Seed})
		if err != nil {
			return bgw.Stats{}, nil
		}
		defer eng.Close()
		cols := make([]bgw.Vec, n)
		for j := 0; j < n; j++ {
			cols[j] = eng.InputVec(j%parties, qd.Col(j))
		}
		before := eng.Stats()
		var out []int64
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				if fused {
					out = append(out, eng.Open(eng.Dot(cols[a], cols[b])))
					continue
				}
				acc := eng.Zero()
				for i := 0; i < m; i++ {
					acc = eng.Add(acc, eng.Mul(eng.At(cols[a], i), eng.At(cols[b], i)))
				}
				out = append(out, eng.Open(acc))
			}
		}
		return eng.Stats().Sub(before), out
	}
	fs, fr := run(true)
	ns, nr := run(false)
	match := "yes"
	for i := range fr {
		if fr[i] != nr[i] {
			match = "NO"
		}
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"fused (SQM)", fmt.Sprint(fs.Rounds), fmt.Sprint(fs.Messages), fmt.Sprint(fs.FieldOps), match},
		[]string{"per-mult", fmt.Sprint(ns.Rounds), fmt.Sprint(ns.Messages), fmt.Sprint(ns.FieldOps), match},
	)
	tbl.Notes = append(tbl.Notes, fmt.Sprintf("fusion reduces messages by %.0fx and rounds by %.0fx on this shape",
		float64(ns.Messages)/float64(fs.Messages), float64(ns.Rounds)/float64(fs.Rounds)))
	return tbl
}

// AblationRounding compares unbiased stochastic rounding (Algorithm 2)
// against nearest rounding on the covariance estimate at coarse γ:
// nearest rounding leaves a systematic bias that no amount of averaging
// removes.
func AblationRounding(o Options) *Table {
	const (
		m, n   = 400, 8
		trials = 40
	)
	tbl := &Table{
		ID:     "abl-round",
		Title:  fmt.Sprintf("Stochastic vs nearest rounding: covariance bias over %d trials (m=%d, n=%d)", trials, m, n),
		Header: []string{"gamma", "stochastic |bias|", "nearest |bias|"},
	}
	x := dataset.KDDCupLike(m, n, o.Seed).X
	truth := x.Gram()
	for _, gamma := range []float64{2, 4, 8} {
		// Average the signed error of an off-diagonal entry, where the
		// rounding errors of the two columns are independent and
		// stochastic rounding is exactly unbiased. (Diagonal entries
		// additionally carry the rounding *variance*, for both modes.)
		var stoch, nearest float64
		for trial := 0; trial < trials; trial++ {
			g := randx.New(o.Seed + uint64(trial))
			qs := quant.Matrix(x, gamma, g, nil)
			stochErr := qs.Float(gamma).Gram().Sub(truth)
			stoch += stochErr.At(0, 1) / trials

			qn := quant.NewIntMatrix(m, n)
			for i, v := range x.Data {
				qn.Data[i] = quant.Nearest(v, gamma)
			}
			nearErr := qn.Float(gamma).Gram().Sub(truth)
			nearest += nearErr.At(0, 1) / trials
		}
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%g", gamma), fe(math.Abs(stoch)), fe(math.Abs(nearest))})
	}
	tbl.Notes = append(tbl.Notes,
		"stochastic rounding is unbiased up to the (small) E[e^2] diagonal term; nearest rounding's bias is deterministic and survives averaging")
	return tbl
}

// AblationSkellamVsGaussian compares the RDP cost of Skellam noise
// against continuous Gaussian noise of identical variance (σ² = 2μ):
// Skellam pays a vanishing premium as μ grows — the reason large γ
// (hence large μ) recovers centralized utility.
func AblationSkellamVsGaussian(o Options) *Table {
	const (
		delta  = 1e-5
		delta2 = 100.0
	)
	tbl := &Table{
		ID:     "abl-noise",
		Title:  "Skellam vs equal-variance Gaussian: converted eps at delta=1e-5 (Delta2=100)",
		Header: []string{"mu", "eps(Skellam)", "eps(Gaussian)", "premium"},
	}
	for _, mu := range []float64{1e4, 1e5, 1e6, 1e8} {
		sk, _ := dp.SkellamEpsilon(delta2, delta2, mu, 1, 1, delta, dp.DefaultMaxAlpha)
		ga, _ := dp.GaussianEpsilon(delta2, math.Sqrt(2*mu), 1, 1, delta, dp.DefaultMaxAlpha)
		tbl.Rows = append(tbl.Rows, []string{fe(mu), f4(sk), f4(ga), fe(sk - ga)})
	}
	tbl.Notes = append(tbl.Notes, "the premium is the Delta1/mu term of Lemma 1 and vanishes as mu grows")
	return tbl
}
