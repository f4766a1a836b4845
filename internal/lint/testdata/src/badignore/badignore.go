// Package badignorefixture holds two broken suppression directives: a
// malformed one (no reason given), which the runner must report and
// must not let suppress the finding it sits above, and a well-formed
// one with nothing left to suppress, which the runner must report as
// stale.
package badignorefixture

// Bad tries to suppress a finding with a reason-less directive.
func Bad(x float64) bool {
	//lint:ignore floateq
	return x == 0 // want "floating-point == comparison"
}

// Stale compares integers: the directive above it suppresses nothing.
func Stale(x int) bool {
	//lint:ignore floateq x was a float once
	return x == 0
}
