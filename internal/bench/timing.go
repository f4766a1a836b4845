package bench

import (
	"fmt"
	"runtime"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/core"
	"sqm/internal/dataset"
	"sqm/internal/linalg"
	"sqm/internal/randx"
)

// The timing tables (II, IV, V) run the real BGW protocol in every cell
// and add the paper's fixed message cost to the measured wall-clock:
// overall = measured + rounds × 0.1 s latency (DESIGN.md substitution 3).

// timingResult is one cell of a timing table. total follows the paper's
// model (measured + rounds × latency); noise is the noise draw's own
// wall-clock, which overlaps measured on the MPC engines; measured is the
// wall-clock the protocol ran for on this machine, reported alongside so
// modeled and measured time can be compared directly; rounds is the wire
// rounds the modeled latency charges. fieldOps and samples are the
// counts the tables' claims rest on: the parties' field operations
// (Stats.FieldOps) and the clients' Skellam draws (Trace.NoiseSamples).
type timingResult struct {
	total, noise      time.Duration
	measured          time.Duration
	rounds            int64
	fieldOps, samples int64
}

// cells renders the result as the timing tables' value columns: overall,
// noise injection, measured, rounds, field ops, noise samples. measured
// prints to 0.1 ms, so that a sub-millisecond cell does not read as an
// instant one.
func (r timingResult) cells() []string {
	return []string{
		fmt.Sprintf("%.2f", r.total.Seconds()),
		fmt.Sprintf("%.2f", r.noise.Seconds()),
		fmt.Sprintf("%.4f", r.measured.Seconds()),
		fmt.Sprint(r.rounds),
		fmt.Sprint(r.fieldOps),
		fmt.Sprint(r.samples),
	}
}

// timingHeader is the timing tables' header after the task and the
// swept parameter.
var timingHeader = []string{"overall (s)", "noise injection (s)", "measured (s)", "rounds", "field ops", "noise samples"}

func timingData(m, n int, seed uint64) *linalg.Matrix {
	return dataset.KDDCupLike(m, n, seed).X
}

// timingParams is one cell's session: the paper's γ = 18, P clients
// hosted one per party, and the largest threshold P parties allow.
func timingParams(o Options, parties int) core.Params {
	return core.Params{
		Gamma: 18, Mu: 1e6, NumClients: parties,
		Engine: core.EngineBGW, Parties: parties, Threshold: (parties - 1) / 2, Seed: o.Seed,
	}
}

// pcaTiming runs one PCA cell: the covariance release over m records
// and n attributes.
func pcaTiming(o Options, m, n, parties int) (timingResult, error) {
	_, tr, err := core.Covariance(timingData(m, n, o.Seed), timingParams(o, parties))
	if err != nil {
		return timingResult{}, err
	}
	return timingResult{total: tr.TotalTime(), noise: tr.NoiseTime(), measured: tr.Compute, rounds: tr.Stats.Rounds,
		fieldOps: tr.Stats.FieldOps, samples: tr.NoiseSamples}, nil
}

// lrTiming runs one LR cell: data sharing plus one full-batch gradient
// round over m records and d = n−1 features. measured, rounds and the
// field operations cover set-up and step together.
func lrTiming(o Options, m, n, parties int) (timingResult, error) {
	d := max(n-1, 1)
	ds, err := dataset.ACSIncomeLike("CA", m, 1, d, o.Seed)
	if err != nil {
		return timingResult{}, err
	}
	start := time.Now()
	proto, err := core.NewLRProtocol(ds.X, ds.Labels, timingParams(o, parties))
	if err != nil {
		return timingResult{}, err
	}
	defer proto.Close()
	setup := time.Since(start)
	batch := make([]int, m)
	for i := range batch {
		batch[i] = i
	}
	_, tr, err := proto.GradientSum(randx.New(o.Seed).GaussianVec(d, 0.2), batch)
	if err != nil {
		return timingResult{}, err
	}
	measured := tr.Compute + setup
	stats := proto.SetupStats().Add(tr.Stats)
	return timingResult{total: measured + time.Duration(stats.Rounds)*bgw.DefaultLatency, noise: tr.NoiseTime(), measured: measured,
		rounds: stats.Rounds, fieldOps: stats.FieldOps, samples: tr.NoiseSamples}, nil
}

// timingTable runs a PCA and an LR cell for each swept value x, whose
// shape(x) gives the cell's records, attributes and parties. A cell that
// fails reads "error" and its error goes in the notes. The notes name
// the machine, since the PCA cells and the noise column scale with its
// cores.
func timingTable(o Options, id, title, param, note string, xs []int, shape func(x int) (m, n, parties int)) *Table {
	tbl := &Table{
		ID:     id,
		Title:  title,
		Header: append([]string{"task", param}, timingHeader...),
		Notes: []string{note, fmt.Sprintf("machine: GOMAXPROCS=%d, NumCPU=%d, %s",
			runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())},
	}
	for _, task := range []struct {
		name string
		run  func(Options, int, int, int) (timingResult, error)
	}{{"PCA", pcaTiming}, {"LR", lrTiming}} {
		for _, x := range xs {
			m, n, parties := shape(x)
			r, err := task.run(o, m, n, parties)
			cells := r.cells()
			if err != nil {
				for k := range cells {
					cells[k] = "error"
				}
				tbl.Notes = append(tbl.Notes, fmt.Sprintf("%s %s=%d: %v", task.name, param, x, err))
			}
			tbl.Rows = append(tbl.Rows, append([]string{task.name, fmt.Sprint(x)}, cells...))
		}
	}
	return tbl
}

// Table2 reproduces the overall-vs-noise-injection cost table: m=1000,
// P=4 clients, γ=18, sweeping the attribute count n for both PCA and LR.
func Table2(o Options) *Table {
	o = o.Defaults()
	m, ns := 1000, []int{20, 100, 500, 2500}
	if !o.Full {
		m, ns = 200, []int{8, 16, 32, 64}
	}
	return timingTable(o, "table2",
		fmt.Sprintf("SQM time costs via BGW (m=%d records, P=4 clients, gamma=18)", m),
		"n", "overall = measured + rounds x 0.1 s (DESIGN.md substitution 3)",
		ns, func(n int) (int, int, int) { return m, n, 4 })
}

// Table4 sweeps the record count m at n=500, P=4 (Appendix D).
func Table4(o Options) *Table {
	o = o.Defaults()
	n, ms := 500, []int{20, 100, 500, 2500}
	if !o.Full {
		n, ms = 64, []int{10, 50, 100, 200}
	}
	return timingTable(o, "table4",
		fmt.Sprintf("SQM time costs via BGW (n=%d attributes, P=4 clients, gamma=18)", n),
		"m", "noise-injection time should be flat in m",
		ms, func(m int) (int, int, int) { return m, n, 4 })
}

// Table5 sweeps the client count P at m=n=500 (Appendix D).
func Table5(o Options) *Table {
	o = o.Defaults()
	m, n := 500, 500
	if !o.Full {
		m, n = 100, 48
	}
	return timingTable(o, "table5",
		fmt.Sprintf("SQM time costs via BGW (m=%d, n=%d, gamma=18, sweeping clients P)", m, n),
		"P", "both columns grow with P",
		[]int{4, 10, 20}, func(p int) (int, int, int) { return m, n, p })
}
