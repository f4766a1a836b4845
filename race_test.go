//go:build race

package sqm_test

// The race detector's bookkeeping allocates: byte counts read under it
// are not the program's.
func init() { raceBuild = true }
