package dp

import (
	"fmt"
	"math"
	"sync"

	"sqm/internal/obs"
)

// Accountant tracks the cumulative Rényi-DP cost of heterogeneous
// mechanism invocations against one database — e.g. a covariance
// release followed by a logistic-regression training run — and converts
// the running total to (ε, δ) on demand. It holds the full RDP curve
// (one τ per integer order), so composition stays tight: Lemma 10
// composes order-wise and the conversion minimizes over orders at the
// end rather than summing per-release ε values.
//
// Accountant is safe for concurrent use.
type Accountant struct {
	mu       sync.Mutex
	maxAlpha int
	taus     []float64 // taus[i] is the cumulative tau at order i+2
	releases int

	// Ledger state (Observe/SetBudget): every release re-converts the
	// cumulative curve and reports the running ε(δ).
	rec         obs.Recorder
	epsGauge    *obs.Gauge
	ledgerDelta float64
	budgetEps   float64 // 0 means no budget threshold
}

// Observe attaches a telemetry recorder: after every recorded release
// the accountant emits a "dp.release" event carrying the running ε at
// the given δ and refreshes the "dp.epsilon" gauge. Pair with SetBudget
// to get a "dp.budget_exceeded" warning the moment the cumulative cost
// crosses the budget. A nil recorder (or one without metrics) disables
// the ledger.
func (a *Accountant) Observe(rec obs.Recorder, delta float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if rec == nil || rec.Metrics() == nil {
		a.rec, a.epsGauge = nil, nil
		return
	}
	a.rec = rec
	a.epsGauge = rec.Metrics().Gauge("dp.epsilon")
	a.ledgerDelta = delta
}

// SetBudget sets the ε threshold for the ledger's budget warning (0
// clears it).
func (a *Accountant) SetBudget(eps float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.budgetEps = eps
}

// NewAccountant tracks orders 2..maxAlpha (0 means DefaultMaxAlpha).
func NewAccountant(maxAlpha int) *Accountant {
	if maxAlpha < 2 {
		maxAlpha = DefaultMaxAlpha
	}
	return &Accountant{maxAlpha: maxAlpha, taus: make([]float64, maxAlpha-1)}
}

// Releases returns how many mechanism invocations were recorded.
func (a *Accountant) Releases() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.releases
}

// record adds one release's RDP curve. The curve — caller-supplied, and
// O(α²) work for a subsampled release — is evaluated before the mutex is
// taken; the ledger emission happens after it is released because the ε
// conversion re-locks.
func (a *Accountant) record(curve Curve) {
	taus := make([]float64, a.maxAlpha-1)
	for i := range taus {
		taus[i] = curve(i + 2)
	}
	a.mu.Lock()
	for i, t := range taus {
		a.taus[i] += t
	}
	a.releases++
	release := a.releases
	rec, gauge := a.rec, a.epsGauge
	delta, budget := a.ledgerDelta, a.budgetEps
	a.mu.Unlock()

	if rec == nil {
		return
	}
	eps, alpha := a.Epsilon(delta)
	gauge.Set(eps)
	attrs := []obs.Attr{
		obs.Int("release", release), obs.Float64("eps", eps),
		obs.Int("alpha", alpha), obs.Float64("delta", delta),
	}
	if budget > 0 {
		attrs = append(attrs, obs.Float64("remaining", budget-eps))
	}
	rec.Event(obs.LevelInfo, "dp.release", attrs...)
	if budget > 0 && eps > budget {
		rec.Event(obs.LevelWarn, "dp.budget_exceeded",
			obs.Float64("eps", eps), obs.Float64("budget", budget),
			obs.Float64("delta", delta))
	}
}

// AddSkellam records one Skellam-mechanism release (Lemma 1).
func (a *Accountant) AddSkellam(delta1, delta2, mu float64) {
	a.record(func(alpha int) float64 { return SkellamRDP(alpha, delta1, delta2, mu) })
}

// AddSubsampledSkellam records R rounds of the Poisson-subsampled
// Skellam mechanism (Lemma 7's server-side accounting).
func (a *Accountant) AddSubsampledSkellam(delta1, delta2, mu, q float64, rounds int) {
	base := func(l int) float64 { return SkellamRDP(l, delta1, delta2, mu) }
	a.record(amplify(q, rounds, a.maxAlpha, base, nil).at)
}

// AddGaussian records one Gaussian-mechanism release.
func (a *Accountant) AddGaussian(delta2, sigma float64) {
	a.record(func(alpha int) float64 { return GaussianRDP(float64(alpha), delta2, sigma) })
}

// AddSubsampledGaussian records R rounds of subsampled Gaussian
// (DPSGD-style).
func (a *Accountant) AddSubsampledGaussian(delta2, sigma, q float64, rounds int) {
	base := func(l int) float64 { return GaussianRDP(float64(l), delta2, sigma) }
	a.record(amplify(q, rounds, a.maxAlpha, base, nil).at)
}

// AddRDP records an arbitrary mechanism by its RDP curve.
func (a *Accountant) AddRDP(curve Curve) { a.record(curve) }

// Epsilon converts the cumulative curve to ε at the given δ.
func (a *Accountant) Epsilon(delta float64) (float64, int) {
	a.mu.Lock()
	taus := append([]float64(nil), a.taus...)
	a.mu.Unlock()
	return BestEpsilon(func(alpha int) float64 {
		if alpha < 2 || alpha > len(taus)+1 {
			return math.Inf(1)
		}
		return taus[alpha-2]
	}, delta, len(taus)+1)
}

// Delta converts the cumulative curve to δ at the given ε.
func (a *Accountant) Delta(eps float64) (float64, int) {
	a.mu.Lock()
	taus := append([]float64(nil), a.taus...)
	a.mu.Unlock()
	return BestDelta(func(alpha int) float64 {
		if alpha < 2 || alpha > len(taus)+1 {
			return math.Inf(1)
		}
		return taus[alpha-2]
	}, eps, len(taus)+1)
}

// Remaining reports how much ε of a total budget is left at δ; negative
// means the budget is exceeded.
func (a *Accountant) Remaining(budgetEps, delta float64) float64 {
	spent, _ := a.Epsilon(delta)
	return budgetEps - spent
}

// String summarizes the state.
func (a *Accountant) String() string {
	eps, alpha := a.Epsilon(1e-5)
	return fmt.Sprintf("dp.Accountant{releases: %d, eps(1e-5): %.4f @ alpha=%d}", a.Releases(), eps, alpha)
}
