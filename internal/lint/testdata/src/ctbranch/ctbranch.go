// Package ctbranchfixture exercises the ctbranch analyzer: control
// flow and container indexing must not depend on share-derived values
// outside the sanctioned open points. The bad flow below crosses two
// call boundaries between the share and the branch.
package ctbranchfixture

import (
	"sqm/internal/bgw"
	"sqm/internal/field"
)

// leakBit derives a branch-steering bit from raw additive shares.
func leakBit(shs []field.Elem) bool {
	return shs[0] != 0
}

// Bad branches on a value derived from share material two hops away.
func Bad(e *bgw.Engine, s *bgw.Shared, w []field.Elem, table []string) string {
	shs := e.AdditiveShares(s, w)
	if leakBit(shs) { // want "control flow conditioned on secret-derived value"
		return "one"
	}
	if shs[0] != 0 { // want "control flow conditioned on secret-derived value"
		return "direct"
	}
	idx := int(field.ToInt64(shs[0]))
	return table[idx] // want "container indexing conditioned on secret-derived value"
}

// GoodOpened branches on an opened value: Open is a sanctioned
// declassification point, so the public output may steer control flow.
func GoodOpened(e *bgw.Engine, s *bgw.Shared) string {
	if e.Open(s) > 0 {
		return "positive"
	}
	return "non-positive"
}

// GoodShape branches on public shape only.
func GoodShape(shs []field.Elem) string {
	if len(shs) == 0 {
		return "empty"
	}
	return "loaded"
}

// Suppressed shows a reviewed escape hatch.
func Suppressed(e *bgw.Engine, s *bgw.Shared, w []field.Elem) string {
	shs := e.AdditiveShares(s, w)
	//lint:ignore ctbranch fixture demonstrating a reviewed suppression
	if leakBit(shs) {
		return "one"
	}
	return "zero"
}
