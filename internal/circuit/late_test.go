package circuit

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sqm/internal/bgw"
)

// callLog passes every gate to the engine it wraps and writes down the
// ones that enter, multiply or open a value, in call order.
type callLog struct {
	bgw.Evaluator
	calls []string
}

func (c *callLog) InputVec(owner int, vs []int64) bgw.Vec {
	c.calls = append(c.calls, "InputVec")
	return c.Evaluator.InputVec(owner, vs)
}

func (c *callLog) InputUnshared(owner int, vs []int64) bgw.Vec {
	c.calls = append(c.calls, "InputUnshared")
	return c.Evaluator.InputUnshared(owner, vs)
}

func (c *callLog) MulBatch(items []bgw.MulItem) []bgw.Val {
	c.calls = append(c.calls, "MulBatch")
	return c.Evaluator.MulBatch(items)
}

func (c *callLog) MulBatchUnreduced(items []bgw.MulItem) []bgw.Val {
	c.calls = append(c.calls, "MulBatchUnreduced")
	return c.Evaluator.MulBatchUnreduced(items)
}

func (c *callLog) OpenVec(v bgw.Vec) []int64 {
	c.calls = append(c.calls, "OpenVec")
	return c.Evaluator.OpenVec(v)
}

// noisyRelease records a covariance-shaped release: two columns dealt by
// parties 0 and 1, a second multiplicative level over their dots, and a
// noise vector per party — a parameter for parties 0 and 2, a literal for
// party 1 — added to the first level's dots (below the top level) and
// opened, as is the second level. Returns the bindings of the noise.
func noisyRelease(b *Builder) [][]int64 {
	a := b.InputVec(0, []int64{1, 2, 3})
	c := b.InputVec(1, []int64{4, -5, 6})
	d1, d2 := b.Dot(a, c), b.Dot(a, a)
	low := b.FromScalars([]bgw.Val{d1, d2})
	noise := [][]int64{{7, -8}, {9, 10}}
	low = b.AddVec(low, b.InputVecParam(0, 2))
	low = b.AddVec(low, b.InputVec(1, []int64{-1, 1}))
	low = b.AddVec(low, b.InputVecParam(2, 2))
	b.OpenVecIdx(low)
	b.OpenIdx(b.Mul(d1, d2))
	return noise
}

// TestOpenOnlyNodesEnterAfterTheLastLevel: the noise leaves of a release
// reach nothing but the opening, so Execute enters them — and asks
// Bindings.InputVecs for their values, once — after the last
// multiplicative level and before the opening, though their gate sits a
// level below the top; the columns go first, dealt in one input round.
// The opened values are Plain's and the rounds Plan.Rounds().
func TestOpenOnlyNodesEnterAfterTheLastLevel(t *testing.T) {
	b := NewBuilder(4, 0)
	noise := noisyRelease(b)
	plan := b.MustCompile()
	if plan.Depth() != 2 || !plan.topKept() {
		t.Fatalf("plan has depth %d, top level kept %v; want a second level that reshares nothing", plan.Depth(), plan.topKept())
	}
	eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ev := &callLog{Evaluator: eng}
	asked := 0
	bind := Bindings{InputVecs: func() [][]int64 {
		asked++
		ev.calls = append(ev.calls, "Bindings.InputVecs")
		return noise
	}}
	res, err := plan.Execute(ev, bind)
	if err != nil {
		t.Fatal(err)
	}
	// Level 1 reshares d1, which level 2 multiplies by d2 (2t + 2t is
	// above P−1, t + 2t is not), and keeps d2; level 2 keeps its product.
	want := []string{"InputVec", "InputVec", "MulBatch", "MulBatchUnreduced", "MulBatchUnreduced",
		"Bindings.InputVecs", "InputUnshared", "InputUnshared", "InputUnshared", "OpenVec"}
	if !slices.Equal(ev.calls, want) {
		t.Fatalf("calls %v, want %v", ev.calls, want)
	}
	if asked != 1 {
		t.Fatalf("Bindings.InputVecs called %d times, want once", asked)
	}
	plain, err := plan.Plain(bind)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.OpenedVec(0), plain.OpenedVec(0)) || res.Opened(0) != plain.Opened(0) {
		t.Fatalf("Execute opened %v and %d, Plain %v and %d", res.OpenedVec(0), res.Opened(0), plain.OpenedVec(0), plain.Opened(0))
	}
	if got := eng.Stats().Rounds; got != int64(plan.Rounds()) || plan.Rounds() != 4 {
		t.Fatalf("rounds: engine %d, plan %d; want 4 (input, the first level, the scalar opening, the vector's)", got, plan.Rounds())
	}
}

// TestInputVecsBindingErrors: a plan with vector parameters refuses an
// execution without Bindings.InputVecs before any gate reaches the
// engine, and one whose InputVecs returns the wrong number of vectors or
// a vector of the wrong length — on Execute, runEager and Plain, with an
// error, not a panic.
func TestInputVecsBindingErrors(t *testing.T) {
	b := NewBuilder(4, 0)
	noisyRelease(b)
	plan := b.MustCompile()
	cases := map[string]struct {
		bind Bindings
		want string
	}{
		"nil":      {Bindings{}, "Bindings.InputVecs is nil"},
		"count":    {Bindings{InputVecs: func() [][]int64 { return [][]int64{{1, 2}} }}, "returned 1 vectors, plan wants 2"},
		"length":   {Bindings{InputVecs: func() [][]int64 { return [][]int64{{1, 2}, {3}} }}, "input vector 1 has 1 elements, plan wants 2"},
		"returned": {Bindings{InputVecs: func() [][]int64 { return nil }}, "returned 0 vectors"},
	}
	for name, c := range cases {
		for _, run := range []struct {
			name string
			run  func(Bindings) (*Result, error)
		}{
			{"Execute", func(bind Bindings) (*Result, error) {
				eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				ev := &callLog{Evaluator: eng}
				res, err := plan.Execute(ev, bind)
				if name == "nil" && len(ev.calls) != 0 {
					t.Errorf("Execute issued %v before refusing the bindings", ev.calls)
				}
				return res, err
			}},
			{"runEager", func(bind Bindings) (*Result, error) {
				eng, err := bgw.NewEngine(bgw.Config{Parties: 4, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				return plan.runEager(eng, bind)
			}},
			{"Plain", plan.Plain},
		} {
			res, err := run.run(c.bind)
			if err == nil || res != nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %s: result %v, err %v; want an error containing %q", run.name, name, res != nil, err, c.want)
			}
		}
	}
}

// TestRandomCircuitsReachLowTails keeps the differential suite honest
// about the late schedule: its seeds must compile plans with an open-only
// node below the top level that Execute enters late, and vector
// parameter leaves both left unshared and shared.
func TestRandomCircuitsReachLowTails(t *testing.T) {
	var low, unsharedParams, sharedParams int
	for seed := int64(0); seed < 25; seed++ {
		b := NewBuilder(4, 0)
		randomCircuit(b, rand.New(rand.NewSource(seed)))
		plan := b.MustCompile()
		for _, id := range plan.late {
			if int(plan.nodes[id].level) < plan.depth {
				low++
				break
			}
		}
		for _, n := range plan.nodes {
			switch {
			case n.kind == kInputVecParam && n.late:
				unsharedParams++
			case n.kind == kInputVecParam:
				sharedParams++
			}
		}
	}
	if low == 0 || unsharedParams == 0 || sharedParams == 0 {
		t.Fatalf("seeds compile %d plans with a late node below the top level, %d unshared and %d shared vector parameters; want each", low, unsharedParams, sharedParams)
	}
}
