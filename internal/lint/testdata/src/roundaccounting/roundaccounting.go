// Package roundfixture exercises the roundaccounting analyzer:
// hand-placed AdvanceRound calls on BGW evaluators outside
// internal/bgw and internal/circuit must be flagged — round accounting
// belongs to compiled execution plans.
package roundfixture

import "sqm/internal/bgw"

// localClock is a decoy: a package's own AdvanceRound method is not
// BGW round bookkeeping and must not be flagged.
type localClock struct{ rounds int }

// AdvanceRound ticks the decoy clock.
func (c *localClock) AdvanceRound() { c.rounds++ }

// BadEvaluator hand-advances the round counter through the interface.
func BadEvaluator(eng bgw.Evaluator) {
	eng.AdvanceRound() // want "manual AdvanceRound on bgw.Evaluator"
}

// BadEngine does the same on the concrete engine.
func BadEngine(e *bgw.Engine) {
	e.AdvanceRound() // want "manual AdvanceRound on bgw.Engine"
}

// Suppressed shows a reviewed escape hatch.
func Suppressed(eng bgw.Evaluator) {
	//lint:ignore roundaccounting fixture demonstrating a reviewed suppression
	eng.AdvanceRound()
}

// Good advances a non-BGW clock.
func Good(c *localClock) {
	c.AdvanceRound()
}
