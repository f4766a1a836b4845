package bench

import (
	"fmt"
	"time"

	"sqm/internal/core"
	"sqm/internal/dataset"
	"sqm/internal/linalg"
	"sqm/internal/randx"
)

// The timing tables (II, IV, V) execute the real BGW protocol whenever
// the predicted field-operation count fits Options.RealBGWBudget, and
// otherwise extrapolate from a calibration run: modeled time =
// predicted ops × measured seconds/op + rounds × 0.1 s latency — the
// same fixed-message-cost simulation the paper uses. Extrapolated cells
// carry a trailing '*'.

// timingResult is one cell of a timing table. total and noise follow
// the paper's model (measured compute + rounds × latency); measured is
// the raw wall-clock the protocol actually ran for on this machine (the
// calibration run's wall-clock for extrapolated cells), reported
// alongside so modeled and measured time can be compared directly, and
// rounds is the wire rounds the modeled latency charges (the protocol's
// structure: the same at every scale, so never extrapolated).
type timingResult struct {
	total, noise time.Duration
	measured     time.Duration
	rounds       int64
	extrapolated bool
}

// cells renders the result as the timing tables' value columns: overall,
// noise injection, measured, rounds.
func (r timingResult) cells() []string {
	mark := ""
	if r.extrapolated {
		mark = "*"
	}
	return []string{
		fmt.Sprintf("%.2f%s", r.total.Seconds(), mark),
		fmt.Sprintf("%.2f%s", r.noise.Seconds(), mark),
		fmt.Sprintf("%.3f", r.measured.Seconds()),
		fmt.Sprint(r.rounds),
	}
}

// timingHeader is the timing tables' header after the task and the
// swept parameter.
var timingHeader = []string{"overall (s)", "noise injection (s)", "measured (s)", "rounds"}

// estimatePCAOps mirrors the bgw package's FieldOps metering for the
// covariance protocol: the input sharings, the noise — unshared, one
// λ⁻¹·x per element at each party that holds some — the Gram products —
// which only the opening reads, so no resharing is metered — and one
// multiplication per opened element.
func estimatePCAOps(m, n, parties, threshold, clients int) (total, noise int64) {
	p, t := int64(parties), int64(threshold)
	pairs := int64(n) * int64(n+1) / 2
	inputs := int64(m) * int64(n) * p * (t + 1)
	noiseOps := pairs * int64(min(clients, parties))
	dots := pairs * p * int64(m)
	open := p * pairs
	return inputs + noiseOps + dots + open, noiseOps
}

// estimateLROps mirrors the metering for data sharing plus one
// full-batch gradient round.
func estimateLROps(m, d, parties, threshold, clients int) (total, noise int64) {
	p, t := int64(parties), int64(threshold)
	setup := int64(m) * int64(d+1) * p * (t + 1)
	fold := int64(m) * int64(d+1) * p
	noiseOps := int64(min(clients, parties)) * int64(d)
	inner := int64(d) * int64(m) * p
	open := p * int64(d)
	return setup + fold + noiseOps + inner + open, noiseOps
}

func timingData(m, n int, seed uint64) *linalg.Matrix {
	return dataset.KDDCupLike(m, n, seed).X
}

// pcaTiming measures (or extrapolates) one PCA cell at the paper's
// γ = 18 with P clients contributing noise.
func pcaTiming(o Options, m, n, parties int) timingResult {
	threshold := (parties - 1) / 2
	est, estNoise := estimatePCAOps(m, n, parties, threshold, parties)
	params := core.Params{
		Gamma: 18, Mu: 1e6, NumClients: parties,
		Engine: core.EngineBGW, Parties: parties, Threshold: threshold, Seed: o.Seed,
	}
	if est <= o.RealBGWBudget {
		_, tr, err := core.Covariance(timingData(m, n, o.Seed), params)
		if err != nil {
			return timingResult{}
		}
		return timingResult{total: tr.TotalTime(), noise: tr.NoiseTime(), measured: tr.Compute, rounds: tr.Stats.Rounds}
	}
	// Calibration run: shrink n until the predicted ops fit a slice of
	// the budget, then scale the measured per-op cost up.
	calN := n
	for {
		if calOps, _ := estimatePCAOps(m, calN, parties, threshold, parties); calOps <= o.RealBGWBudget/4 || calN <= 4 {
			break
		}
		calN /= 2
	}
	_, tr, err := core.Covariance(timingData(m, calN, o.Seed), params)
	if err != nil || tr.Stats.FieldOps == 0 {
		return timingResult{}
	}
	// The noise draw runs beside the engine (core.Trace.NoiseCompute
	// overlaps Compute), so the whole wall-clock is charged to the
	// operations.
	secPerOp := tr.Compute.Seconds() / float64(tr.Stats.FieldOps)
	calNoiseOps := estNoiseOpsPCA(m, calN, parties, threshold)
	noiseSecPerOp := tr.NoiseCompute.Seconds() / float64(calNoiseOps)
	lat := tr.Stats.NetTime(tr.Lat)
	total := time.Duration(float64(est)*secPerOp*float64(time.Second)) + lat
	noise := time.Duration(float64(estNoise) * noiseSecPerOp * float64(time.Second))
	return timingResult{total: total, noise: noise, measured: tr.Compute, rounds: tr.Stats.Rounds, extrapolated: true}
}

func estNoiseOpsPCA(m, n, parties, threshold int) int64 {
	_, noise := estimatePCAOps(m, n, parties, threshold, parties)
	if noise == 0 {
		return 1
	}
	return noise
}

// lrTiming measures one LR cell: data sharing plus one full-batch
// gradient round over m records and d = n−1 features.
func lrTiming(o Options, m, n, parties int) timingResult {
	d := n - 1
	if d < 1 {
		d = 1
	}
	threshold := (parties - 1) / 2
	est, _ := estimateLROps(m, d, parties, threshold, parties)
	ds, err := dataset.ACSIncomeLike("CA", m, 1, d, o.Seed)
	if err != nil {
		return timingResult{}
	}
	// run returns the step's trace, the set-up's wall-clock and the wire
	// rounds of set-up and step together.
	run := func(feat *linalg.Matrix, labels []float64) (*core.Trace, time.Duration, int64, error) {
		start := time.Now()
		proto, err := core.NewLRProtocol(feat, labels, core.Params{
			Gamma: 18, Mu: 1e6, NumClients: parties,
			Engine: core.EngineBGW, Parties: parties, Threshold: threshold, Seed: o.Seed,
		})
		if err != nil {
			return nil, 0, 0, err
		}
		defer proto.Close()
		setup := time.Since(start)
		batch := make([]int, feat.Rows)
		for i := range batch {
			batch[i] = i
		}
		w := randx.New(o.Seed).GaussianVec(feat.Cols, 0.2)
		_, tr, err := proto.GradientSum(w, batch)
		if err != nil {
			return nil, 0, 0, err
		}
		return tr, setup, proto.SetupStats().Rounds + tr.Stats.Rounds, err
	}
	if est <= o.RealBGWBudget {
		tr, setup, rounds, err := run(ds.X, ds.Labels)
		if err != nil {
			return timingResult{}
		}
		measured := tr.Compute + setup
		return timingResult{total: measured + time.Duration(rounds)*tr.Lat, noise: tr.NoiseTime(), measured: measured, rounds: rounds}
	}
	// Extrapolate from a narrower feature set.
	calD := d
	for {
		if calOps, _ := estimateLROps(m, calD, parties, threshold, parties); calOps <= o.RealBGWBudget/4 || calD <= 4 {
			break
		}
		calD /= 2
	}
	calX := linalg.NewMatrix(m, calD)
	for i := 0; i < m; i++ {
		copy(calX.Row(i), ds.X.Row(i)[:calD])
	}
	tr, setup, rounds, err := run(calX, ds.Labels)
	if err != nil || tr.Stats.FieldOps == 0 {
		return timingResult{}
	}
	calOps, calNoise := estimateLROps(m, calD, parties, threshold, parties)
	scale := float64(est) / float64(calOps)
	_, wantNoise := estimateLROps(m, d, parties, threshold, parties)
	noiseScale := float64(wantNoise) / float64(maxI64(calNoise, 1))
	total := time.Duration(float64(tr.Compute+setup)*scale) + time.Duration(rounds)*tr.Lat
	noise := time.Duration(float64(tr.NoiseCompute) * noiseScale)
	return timingResult{total: total, noise: noise, measured: tr.Compute + setup, rounds: rounds, extrapolated: true}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Table2 reproduces the overall-vs-noise-injection cost table: m=1000,
// P=4 clients, γ=18, sweeping the attribute count n for both PCA and LR.
func Table2(o Options) *Table {
	o = o.Defaults()
	m, ns := 1000, []int{20, 100, 500, 2500}
	if !o.Full {
		m, ns = 200, []int{8, 16, 32, 64}
	}
	tbl := &Table{
		ID:     "table2",
		Title:  fmt.Sprintf("SQM time costs via BGW (m=%d records, P=4 clients, gamma=18)", m),
		Header: append([]string{"task", "n"}, timingHeader...),
		Notes:  []string{"'*' marks cells extrapolated from a calibrated per-op cost (DESIGN.md substitution 3)"},
	}
	for _, n := range ns {
		tbl.Rows = append(tbl.Rows, append([]string{"PCA", fmt.Sprint(n)}, pcaTiming(o, m, n, 4).cells()...))
	}
	for _, n := range ns {
		tbl.Rows = append(tbl.Rows, append([]string{"LR", fmt.Sprint(n)}, lrTiming(o, m, n, 4).cells()...))
	}
	return tbl
}

// Table4 sweeps the record count m at n=500, P=4 (Appendix D).
func Table4(o Options) *Table {
	o = o.Defaults()
	n, ms := 500, []int{20, 100, 500, 2500}
	if !o.Full {
		n, ms = 64, []int{10, 50, 100, 200}
	}
	tbl := &Table{
		ID:     "table4",
		Title:  fmt.Sprintf("SQM time costs via BGW (n=%d attributes, P=4 clients, gamma=18)", n),
		Header: append([]string{"task", "m"}, timingHeader...),
		Notes:  []string{"noise-injection time should be flat in m; '*' marks extrapolated cells"},
	}
	for _, m := range ms {
		tbl.Rows = append(tbl.Rows, append([]string{"PCA", fmt.Sprint(m)}, pcaTiming(o, m, n, 4).cells()...))
	}
	for _, m := range ms {
		tbl.Rows = append(tbl.Rows, append([]string{"LR", fmt.Sprint(m)}, lrTiming(o, m, n, 4).cells()...))
	}
	return tbl
}

// Table5 sweeps the client count P at m=n=500 (Appendix D).
func Table5(o Options) *Table {
	o = o.Defaults()
	m, n := 500, 500
	if !o.Full {
		m, n = 100, 48
	}
	ps := []int{4, 10, 20}
	tbl := &Table{
		ID:     "table5",
		Title:  fmt.Sprintf("SQM time costs via BGW (m=%d, n=%d, gamma=18, sweeping clients P)", m, n),
		Header: append([]string{"task", "P"}, timingHeader...),
		Notes:  []string{"both columns grow with P; '*' marks extrapolated cells"},
	}
	for _, p := range ps {
		tbl.Rows = append(tbl.Rows, append([]string{"PCA", fmt.Sprint(p)}, pcaTiming(o, m, n, p).cells()...))
	}
	for _, p := range ps {
		tbl.Rows = append(tbl.Rows, append([]string{"LR", fmt.Sprint(p)}, lrTiming(o, m, n, p).cells()...))
	}
	return tbl
}
