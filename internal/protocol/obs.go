package protocol

import (
	"context"
	"time"

	"sqm/internal/obs"
)

// SessionOption configures RunSession / RunSessionTCP.
type SessionOption func(*sessionOptions)

type sessionOptions struct {
	rec      obs.Recorder
	timeout  time.Duration
	ctx      context.Context
	trace    *obs.TraceContext
	traceDir string
}

// WithRecorder attaches an observability recorder to the session run:
// the coordinator emits lifecycle events (session.start, session.hello,
// session.params, session.round, session.result, session.done or
// session.abort) and times every phase into the recorder's metric
// registry. A nil recorder disables telemetry at zero cost.
func WithRecorder(rec obs.Recorder) SessionOption {
	return func(o *sessionOptions) { o.rec = rec }
}

// WithTrace attaches a distributed-tracing context to the session: the
// coordinator's lifecycle events are stamped with (trace, party,
// lclock) and captured by the context's flight recorder, alongside
// whatever the evaluate callback's engine records on the same context.
// Tracing works without a recorder — the flight recorder captures
// everything regardless of log level.
func WithTrace(tc *obs.TraceContext) SessionOption {
	return func(o *sessionOptions) { o.trace = tc }
}

// WithTraceDir makes the session dump every flight-recorder stream as
// JSONL into dir when it ends — normally or with an error, so a crashed
// session still leaves its black box behind. Without WithTrace, a
// coordinator-only context is derived from the session params
// (SessionTraceID).
func WithTraceDir(dir string) SessionOption {
	return func(o *sessionOptions) { o.traceDir = dir }
}

// SessionTraceID derives the deterministic trace id of a session from
// its public parameters, so every participant (and a replay) computes
// the same id without coordination.
func SessionTraceID(p Params) obs.TraceID {
	return obs.DeriveTraceID(p.Seed, uint64(p.NumClients), uint64(p.Rounds), uint64(p.OutDim))
}

func applySessionOptions(opts []SessionOption) sessionOptions {
	var o sessionOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// sessionObs carries the coordinator's telemetry handles; a nil
// *sessionObs makes every method a no-op.
type sessionObs struct {
	rec       obs.Recorder
	roundHist *obs.Histogram
	phaseHist map[string]*obs.Histogram
}

func newSessionObs(rec obs.Recorder) *sessionObs {
	if rec == nil || rec.Metrics() == nil {
		return nil
	}
	m := rec.Metrics()
	return &sessionObs{
		rec:       rec,
		roundHist: m.Histogram("session.round.seconds"),
		phaseHist: map[string]*obs.Histogram{
			"hello":  m.Histogram("session.hello.seconds"),
			"params": m.Histogram("session.params.seconds"),
		},
	}
}

func (o *sessionObs) event(level obs.Level, name string, attrs ...obs.Attr) {
	if o == nil {
		return
	}
	o.rec.Event(level, name, attrs...)
}
