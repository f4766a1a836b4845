// Package invariant is the designated escape hatch for internal
// invariant violations: conditions that are unreachable unless SQM
// itself (not its caller's data) is buggy — a foreign share handed to
// the wrong engine, a ragged matrix, an inverse of zero. The repo's
// panic policy, machine-checked by the sqmlint panicpolicy analyzer,
// is that every panic outside this package must carry a payload built
// by Violation, so intentional invariant panics are grep-able and
// typed, and everything else must return an error. The surfaces
// untrusted input reaches (package sqm, internal/cli, and the frame
// codec internal/protocol, which parses bytes off the network) may not
// panic at all.
package invariant

import "fmt"

// Error is the payload of every intentional invariant panic in SQM.
// Recover sites can classify it with errors.As to distinguish a broken
// internal invariant from a stray runtime panic.
type Error struct {
	msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return e.msg }

// Violation builds the panic payload for a broken internal invariant.
// It is the only sanctioned argument to panic outside this package:
//
//	panic(invariant.Violation("bgw: foreign share"))
//
// The format string should start with the reporting package's name,
// matching the repo's error message convention.
func Violation(format string, args ...any) *Error {
	if len(args) == 0 {
		return &Error{msg: format}
	}
	return &Error{msg: fmt.Sprintf(format, args...)}
}
