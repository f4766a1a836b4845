package transport

import (
	"errors"
	"io"
	"net"
	"os"
	"syscall"

	"sqm/internal/obs"
	"sqm/internal/retry"
)

// Option configures a mesh at construction time.
type Option func(*options)

type options struct {
	dial  retry.Policy
	trace *obs.TraceContext
}

// WithTracer attaches a session trace context: every frame is prefixed
// with a TraceHeaderLen-byte header carrying (trace, sender, Lamport
// stamp), and each endpoint records transport.send/transport.recv
// events into its party's flight recorder. The context must carry
// exactly one stream per mesh party. A nil context disables tracing at
// zero cost.
func WithTracer(tc *obs.TraceContext) Option {
	return func(o *options) { o.trace = tc }
}

// WithDialRetry retries the TCP mesh's pair dials under the given
// deterministic backoff policy, so a peer that is still binding its
// listener (or a transiently refused connection) does not abort the
// whole mesh setup. The zero policy means a single attempt.
func WithDialRetry(p retry.Policy) Option {
	return func(o *options) { o.dial = p }
}

func applyOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// wrapFailure normalizes a socket mesh's receive failures: deadline
// expiries become ErrTimeout, EOF-ish teardown errors become ErrClosed.
// Timeout is checked first — a net.Error with Timeout() true must never
// be misread as a dead peer.
func wrapFailure(err error) error {
	if err == nil || errors.Is(err, ErrTimeout) {
		return err
	}
	if isDeadline(err) {
		return &timeoutError{cause: err}
	}
	return wrapClosed(err)
}

// wrapClosed normalizes the EOF-ish errors a socket mesh surfaces when
// a peer tears down mid-round so that callers can test
// errors.Is(err, ErrClosed) uniformly across chan and net meshes. The
// original error stays reachable through Unwrap.
func wrapClosed(err error) error {
	if err == nil || errors.Is(err, ErrClosed) {
		return err
	}
	if isTeardown(err) {
		return &closedError{cause: err}
	}
	return err
}

// isDeadline reports whether the error is an expired I/O deadline.
func isDeadline(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// isTeardown reports whether the error is one of the shapes a closed
// TCP connection produces.
func isTeardown(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// timeoutError carries the raw deadline error while identifying as
// ErrTimeout.
type timeoutError struct{ cause error }

func (e *timeoutError) Error() string { return ErrTimeout.Error() + ": " + e.cause.Error() }

// Is matches ErrTimeout, so errors.Is(err, ErrTimeout) holds.
func (e *timeoutError) Is(target error) bool { return target == ErrTimeout }

// Unwrap exposes the underlying transport error.
func (e *timeoutError) Unwrap() error { return e.cause }

// closedError carries the raw teardown error while identifying as
// ErrClosed.
type closedError struct{ cause error }

func (e *closedError) Error() string { return ErrClosed.Error() + ": " + e.cause.Error() }

// Is matches ErrClosed, so errors.Is(err, ErrClosed) holds.
func (e *closedError) Is(target error) bool { return target == ErrClosed }

// Unwrap exposes the underlying transport error.
func (e *closedError) Unwrap() error { return e.cause }
