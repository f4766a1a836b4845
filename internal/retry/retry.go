// Package retry implements deterministic retry with exponential backoff
// and seeded jitter for the TCP mesh's pair dials, which race the peer's
// listener. Determinism matters here as much as in the samplers — the
// backoff schedule is derived from an explicit seed through
// internal/randx, so a fault-injection run replays identically and
// flaky-looking behaviour can always be reproduced.
package retry

import (
	"errors"
	"fmt"
	"time"

	"sqm/internal/obs"
	"sqm/internal/randx"
)

// ErrBudgetExhausted reports that every attempt of a Do call failed.
// The last per-attempt error stays reachable through errors.Is/As.
var ErrBudgetExhausted = errors.New("retry: attempt budget exhausted")

// Policy is a deterministic exponential-backoff retry schedule. The
// zero value performs exactly one attempt with no waiting, so code can
// thread a Policy unconditionally and let callers opt in to retries.
type Policy struct {
	// Attempts is the total attempt budget, including the first; values
	// below 1 mean 1 (no retries).
	Attempts int
	// Base is the backoff before the first retry; doubled per retry.
	// 0 means 10ms.
	Base time.Duration
	// Max caps a single backoff. 0 means 1s.
	Max time.Duration
	// Jitter is the fraction of each backoff that is randomized, in
	// [0, 1]: the wait is d*(1-Jitter) + u*d*Jitter with u uniform from
	// the seeded stream. 0 disables jitter.
	Jitter float64
	// Seed keys the jitter stream; the same seed replays the same
	// schedule.
	Seed uint64
	// Recorder receives one warn-level <name>.retry event per failed
	// attempt that is retried (attempt, backoff, err); a give-up is the
	// returned ErrBudgetExhausted. Nil disables telemetry at zero cost.
	Recorder obs.Recorder
	// Name prefixes the telemetry; "" means "retry".
	Name string
	// Sleep replaces time.Sleep in tests; nil means time.Sleep.
	Sleep func(time.Duration)
}

// attempts returns the effective budget.
func (p Policy) attempts() int {
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

// Backoff returns the wait before retry number retry (0-based, i.e.
// after attempt retry has failed), drawing jitter from rng. A nil rng
// disables jitter regardless of the policy.
func (p Policy) Backoff(retry int, rng *randx.RNG) time.Duration {
	base := p.Base
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := p.Max
	if max <= 0 {
		max = time.Second
	}
	d := base
	for i := 0; i < retry && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if p.Jitter > 0 && rng != nil {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		f := float64(d) * (1 - j + rng.Float64()*j)
		d = time.Duration(f)
	}
	return d
}

// Do runs op until it succeeds or the attempt budget is exhausted. op receives the 0-based attempt number.
// On exhaustion the returned error matches both ErrBudgetExhausted and
// the final attempt's error. The jitter stream is built at the first
// backoff, so an op that succeeds at once costs no allocation for it.
func (p Policy) Do(op func(attempt int) error) error {
	var rng *randx.RNG
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	name := p.Name
	if name == "" {
		name = "retry"
	}
	budget := p.attempts()
	var err error
	for attempt := 0; attempt < budget; attempt++ {
		if err = op(attempt); err == nil {
			return nil
		}
		if attempt == budget-1 {
			break
		}
		if rng == nil {
			rng = randx.New(p.Seed ^ 0xbac0ff)
		}
		backoff := p.Backoff(attempt, rng)
		if p.Recorder != nil && p.Recorder.Enabled(obs.LevelWarn) {
			p.Recorder.Event(obs.LevelWarn, name+".retry",
				obs.Int("attempt", attempt+1), obs.Duration("backoff", backoff),
				obs.String("err", err.Error()))
		}
		sleep(backoff)
	}
	return fmt.Errorf("%w after %d attempt(s): %w", ErrBudgetExhausted, budget, err)
}
