package retry

import (
	"errors"
	"testing"
	"time"

	"sqm/internal/obs"
	"sqm/internal/randx"
)

func TestZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	var p Policy
	err := p.Do(func(attempt int) error {
		calls++
		if attempt != 0 {
			t.Fatalf("attempt = %d, want 0", attempt)
		}
		return errors.New("boom")
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
}

func TestDoSucceedsMidBudget(t *testing.T) {
	var slept []time.Duration
	p := Policy{Attempts: 5, Base: time.Millisecond, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	calls := 0
	err := p.Do(func(int) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
}

func TestBackoffScheduleDeterministic(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	// No jitter: pure doubling capped at Max.
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := p.Backoff(i, nil); got != w*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	// With jitter: same seed, same schedule; bounded by [d*(1-j), d].
	p.Jitter = 0.5
	a := make([]time.Duration, 6)
	for i := range a {
		a[i] = p.Backoff(i, randx.New(99))
	}
	b := make([]time.Duration, 6)
	for i := range b {
		b[i] = p.Backoff(i, randx.New(99))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jittered schedule not reproducible at %d: %v vs %v", i, a[i], b[i])
		}
		base := want[i] * time.Millisecond
		if a[i] < base/2 || a[i] > base {
			t.Fatalf("jittered Backoff(%d) = %v outside [%v, %v]", i, a[i], base/2, base)
		}
	}
}

func TestDoJitterSeededAndReproducible(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		var slept []time.Duration
		p := Policy{Attempts: 4, Base: 10 * time.Millisecond, Jitter: 1, Seed: seed,
			Sleep: func(d time.Duration) { slept = append(slept, d) }}
		p.Do(func(int) error { return errors.New("x") })
		return slept
	}
	a, b := run(42), run(42)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("slept %d/%d times, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestExhaustionWrapsLastError(t *testing.T) {
	last := errors.New("still down")
	p := Policy{Attempts: 3, Sleep: func(time.Duration) {}}
	err := p.Do(func(int) error { return last })
	if !errors.Is(err, ErrBudgetExhausted) || !errors.Is(err, last) {
		t.Fatalf("err = %v, want both ErrBudgetExhausted and the last attempt error", err)
	}
}

// TestCounters: what a policy did is counted from its events — one
// <name>.retry per retried attempt, numbered from 1 — and a give-up is
// the returned ErrBudgetExhausted, not a counter.
func TestCounters(t *testing.T) {
	rec := obs.NewFlightRecorder(16)
	p := Policy{Attempts: 3, Recorder: rec, Name: "dial", Sleep: func(time.Duration) {}}
	if err := p.Do(func(int) error { return errors.New("x") }); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// Success on the first attempt retries nothing.
	p2 := Policy{Attempts: 3, Recorder: rec, Name: "ok"}
	if err := p2.Do(func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("recorded %d events, want 2 dial.retry: %v", len(evs), evs)
	}
	for i, ev := range evs {
		if ev.Name != "dial.retry" || ev.Attrs["attempt"] != int64(i+1) {
			t.Fatalf("event %d = %s %v, want dial.retry attempt=%d", i, ev.Name, ev.Attrs, i+1)
		}
	}
}
