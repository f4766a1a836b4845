//go:build race

package circuit

// The race detector's bookkeeping allocates: byte counts read under it
// are not the program's.
func init() { raceBuild = true }
