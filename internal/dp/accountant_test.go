package dp

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"sqm/internal/obs"
)

func TestAccountantEmpty(t *testing.T) {
	a := NewAccountant(0)
	if a.Releases() != 0 {
		t.Fatal("fresh accountant has releases")
	}
	eps, _ := a.Epsilon(1e-5)
	// Zero RDP cost: only the delta conversion term remains, which is
	// minimized at the largest alpha and positive.
	if eps <= 0 || eps > math.Log(1e5) {
		t.Fatalf("empty eps = %v", eps)
	}
}

func TestAccountantSingleSkellamMatchesDirect(t *testing.T) {
	a := NewAccountant(64)
	a.AddSkellam(100, 100, 1e6)
	got, _ := a.Epsilon(1e-5)
	want, _ := SkellamEpsilon(100, 100, 1e6, 1, 1, 1e-5, 64)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("accountant %v vs direct %v", got, want)
	}
}

func TestAccountantComposesTighterThanEpsSum(t *testing.T) {
	// Order-wise RDP composition must beat naive ε addition.
	a := NewAccountant(128)
	for i := 0; i < 4; i++ {
		a.AddGaussian(1, 10)
	}
	composed, _ := a.Epsilon(1e-5)
	single, _ := GaussianEpsilon(1, 10, 1, 1, 1e-5, 128)
	if composed >= 4*single {
		t.Fatalf("composed %v not tighter than 4x single %v", composed, 4*single)
	}
	// And it matches the 4-round direct accountant exactly.
	direct, _ := GaussianEpsilon(1, 10, 1, 4, 1e-5, 128)
	if math.Abs(composed-direct) > 1e-12 {
		t.Fatalf("composed %v vs direct 4-round %v", composed, direct)
	}
}

func TestAccountantHeterogeneousReleases(t *testing.T) {
	// PCA covariance (Skellam) + DPSGD training (subsampled Gaussian):
	// the combined epsilon exceeds each part and is below their sum of
	// independent conversions... the latter only guaranteed for RDP
	// curves; check ordering invariants.
	a := NewAccountant(64)
	a.AddSkellam(1e4, 1e4, 1e12)
	partial, _ := a.Epsilon(1e-5)
	a.AddSubsampledGaussian(1, 3, 0.01, 500)
	total, _ := a.Epsilon(1e-5)
	if total <= partial {
		t.Fatalf("adding a release cannot lower eps: %v -> %v", partial, total)
	}
	if a.Releases() != 2 {
		t.Fatalf("releases = %d", a.Releases())
	}
}

func TestAccountantSubsampledSkellamMatchesLemma7Path(t *testing.T) {
	a := NewAccountant(64)
	a.AddSubsampledSkellam(1e6, 1e3, 1e12, 0.001, 2000)
	got, _ := a.Epsilon(1e-5)
	want, _ := SkellamEpsilon(1e6, 1e3, 1e12, 0.001, 2000, 1e-5, 64)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("accountant %v vs direct %v", got, want)
	}
}

func TestAccountantDeltaDirection(t *testing.T) {
	a := NewAccountant(64)
	a.AddGaussian(1, 5)
	eps, _ := a.Epsilon(1e-5)
	delta, _ := a.Delta(eps)
	if delta > 1e-5*1.01 {
		t.Fatalf("Delta(Epsilon(1e-5)) = %v", delta)
	}
}

func TestAccountantRemaining(t *testing.T) {
	a := NewAccountant(64)
	a.AddGaussian(1, 2)
	rem := a.Remaining(10, 1e-5)
	spent, _ := a.Epsilon(1e-5)
	if math.Abs(rem-(10-spent)) > 1e-12 {
		t.Fatalf("Remaining = %v, spent = %v", rem, spent)
	}
	a.AddGaussian(1, 0.01) // blow the budget
	if a.Remaining(1, 1e-5) >= 0 {
		t.Fatal("budget should be exceeded")
	}
}

func TestAccountantAddRDPAndString(t *testing.T) {
	a := NewAccountant(32)
	a.AddRDP(func(alpha int) float64 { return 0.01 * float64(alpha) })
	if s := a.String(); !strings.Contains(s, "releases: 1") {
		t.Fatalf("String = %q", s)
	}
}

func TestAccountantConcurrentUse(t *testing.T) {
	a := NewAccountant(32)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.AddGaussian(1, 20)
			a.Epsilon(1e-5)
		}()
	}
	wg.Wait()
	if a.Releases() != 16 {
		t.Fatalf("releases = %d", a.Releases())
	}
	// Deterministic total regardless of interleaving.
	got, _ := a.Epsilon(1e-5)
	want, _ := GaussianEpsilon(1, 20, 1, 16, 1e-5, 32)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("concurrent total %v vs direct %v", got, want)
	}
}

func TestAccountantSubsampledReleaseIsTheDirectCurve(t *testing.T) {
	// The ledger evaluates a subsampled release on the kernel the direct
	// accountants use, so one release converts to the same bits.
	for _, maxAlpha := range []int{32, 0} {
		a := NewAccountant(maxAlpha)
		a.AddSubsampledSkellam(1e6, 1e3, 1e12, 0.001, 2000)
		got, gotAlpha := a.Epsilon(1e-5)
		want, wantAlpha := SkellamEpsilon(1e6, 1e3, 1e12, 0.001, 2000, 1e-5, maxAlpha)
		if math.Float64bits(got) != math.Float64bits(want) || gotAlpha != wantAlpha {
			t.Fatalf("maxAlpha=%d Skellam: ledger %v at α=%d, direct %v at α=%d", maxAlpha, got, gotAlpha, want, wantAlpha)
		}
		g := NewAccountant(maxAlpha)
		g.AddSubsampledGaussian(1, 3, 0.01, 500)
		got, gotAlpha = g.Epsilon(1e-5)
		want, wantAlpha = GaussianEpsilon(1, 3, 0.01, 500, 1e-5, maxAlpha)
		if math.Float64bits(got) != math.Float64bits(want) || gotAlpha != wantAlpha {
			t.Fatalf("maxAlpha=%d Gaussian: ledger %v at α=%d, direct %v at α=%d", maxAlpha, got, gotAlpha, want, wantAlpha)
		}
	}
}

func TestAccountantConcurrentSubsampledUse(t *testing.T) {
	// Subsampled releases evaluate their O(α²) curve outside the mutex:
	// writers, readers and the ledger's own re-conversion interleave
	// (run under -race) and the total is the sum in any order.
	rec := newLedgerRecorder()
	a := NewAccountant(48)
	a.Observe(rec, 1e-5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				a.AddSubsampledSkellam(100, 100, 1e6, 0.01, 10)
			} else {
				a.AddSubsampledGaussian(1, 20, 0.05, 10)
			}
			a.Epsilon(1e-5)
			a.Delta(1)
		}(i)
	}
	wg.Wait()
	if a.Releases() != 8 {
		t.Fatalf("releases = %d", a.Releases())
	}
	serial := NewAccountant(48)
	for i := 0; i < 4; i++ {
		serial.AddSubsampledSkellam(100, 100, 1e6, 0.01, 10)
		serial.AddSubsampledGaussian(1, 20, 0.05, 10)
	}
	got, _ := a.Epsilon(1e-5)
	want, _ := serial.Epsilon(1e-5)
	if math.Abs(got-want) > 1e-12*want {
		t.Fatalf("concurrent total %v vs serial %v", got, want)
	}
}

// ledgerRecorder captures events in order for the ledger tests.
type ledgerRecorder struct {
	mu    sync.Mutex
	names []string
	attrs []map[string]any
}

func newLedgerRecorder() *ledgerRecorder { return &ledgerRecorder{} }

func (r *ledgerRecorder) Enabled(obs.Level) bool { return true }
func (r *ledgerRecorder) Event(_ obs.Level, name string, attrs ...obs.Attr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	r.names = append(r.names, name)
	r.attrs = append(r.attrs, m)
}

func TestAccountantLedgerEmissionOrder(t *testing.T) {
	rec := newLedgerRecorder()
	a := NewAccountant(32)
	a.Observe(rec, 1e-5)
	a.AddGaussian(1, 20)
	a.AddGaussian(1, 20)
	a.AddSkellam(100, 100, 1e6)
	if len(rec.names) != 3 {
		t.Fatalf("events = %v, want 3 dp.release", rec.names)
	}
	for i, name := range rec.names {
		if name != "dp.release" {
			t.Fatalf("event %d = %q", i, name)
		}
		if got := rec.attrs[i]["release"]; got != int64(i+1) {
			t.Fatalf("event %d release attr = %v", i, got)
		}
	}
	// The last release's eps attr is the running total.
	eps, _ := a.Epsilon(1e-5)
	if got := rec.attrs[2]["eps"]; got != eps {
		t.Fatalf("last dp.release eps = %v, want %v", got, eps)
	}
}

func TestAccountantLedgerBudgetWarning(t *testing.T) {
	rec := newLedgerRecorder()
	a := NewAccountant(32)
	a.Observe(rec, 1e-5)
	a.AddGaussian(1, 20)
	first, _ := a.Epsilon(1e-5)
	a.SetBudget(first * 3) // above the single-release cost
	for _, name := range rec.names {
		if name == "dp.budget_exceeded" {
			t.Fatal("warning fired below budget")
		}
	}
	// Compose releases until the cumulative eps crosses the budget.
	for i := 0; i < 32; i++ {
		a.AddGaussian(1, 20)
		if eps, _ := a.Epsilon(1e-5); eps > first*3 {
			break
		}
	}
	var warned bool
	for i, name := range rec.names {
		if name == "dp.budget_exceeded" {
			warned = true
			if rec.attrs[i]["budget"] != first*3 {
				t.Fatalf("warn budget attr = %v", rec.attrs[i]["budget"])
			}
		}
	}
	if !warned {
		t.Fatal("budget warning never fired")
	}
}

func TestAccountantLedgerEpsilonMonotone(t *testing.T) {
	rec := newLedgerRecorder()
	a := NewAccountant(32)
	a.Observe(rec, 1e-5)
	for i := 0; i < 8; i++ {
		a.AddSubsampledSkellam(100, 100, 1e6, 0.01, 10)
	}
	var prev float64
	for i, attrs := range rec.attrs {
		eps, ok := attrs["eps"].(float64)
		if !ok {
			t.Fatalf("event %d missing eps attr: %v", i, attrs)
		}
		if eps < prev {
			t.Fatalf("eps not monotone under composition: release %d has %v < %v", i+1, eps, prev)
		}
		prev = eps
	}
}

func TestAccountantObserveNopRecorderDisables(t *testing.T) {
	a := NewAccountant(32)
	a.Observe(obs.Nop(), 1e-5) // Enabled says no -> ledger off
	a.AddGaussian(1, 20)       // must not panic or emit
	if a.Releases() != 1 {
		t.Fatalf("releases = %d", a.Releases())
	}
	// An info-level log recorder gets the ledger; a warn-level one gets
	// only the budget warning.
	var info, warn bytes.Buffer
	for _, c := range []struct {
		buf   *bytes.Buffer
		level obs.Level
	}{{&info, obs.LevelInfo}, {&warn, obs.LevelWarn}} {
		b := NewAccountant(32)
		b.Observe(obs.NewLog(c.buf, "text", c.level), 1e-5)
		b.SetBudget(1e-9)
		b.AddGaussian(1, 20)
	}
	if !strings.Contains(info.String(), "dp.release") || !strings.Contains(info.String(), "dp.budget_exceeded") {
		t.Fatalf("info-level ledger = %q, want dp.release and dp.budget_exceeded", info.String())
	}
	if strings.Contains(warn.String(), "dp.release") || !strings.Contains(warn.String(), "dp.budget_exceeded") {
		t.Fatalf("warn-level ledger = %q, want dp.budget_exceeded only", warn.String())
	}
}
