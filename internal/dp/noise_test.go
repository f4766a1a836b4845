package dp

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"sqm/internal/invariant"
	"sqm/internal/randx"
)

// TestNoiseIsRedactedAndOpensOnlyToABooking: a release's noise prints
// redacted under every verb — as a value, behind a pointer, as a
// struct's field and in a slice — and where fmt prints it by reflection,
// under %p or in an unexported field, as an address; each of its readers
// panics with an
// invariant.Violation on the zero Booking, and the Booking a nil
// accountant mints opens the holders' sums of their clients' draws while
// the accountant records nothing.
func TestNoiseIsRedactedAndOpensOnlyToABooking(t *testing.T) {
	const dims, mu = 8, 1e6
	n := NewNoise(2, dims)
	s := randx.NewSkellamSampler(mu)
	n.Draw(0, &s, randx.New(1))
	n.Draw(1, &s, randx.New(2))
	n.Draw(1, &s, randx.New(3))

	held := struct{ N Noise }{n}
	for _, verb := range []string{"%v", "%+v", "%#v", "%d", "%s", "%x"} {
		for _, arg := range []any{n, &n, held, []Noise{n, n}} {
			got := fmt.Sprintf(verb, arg)
			if !strings.Contains(got, "redacted") || strings.ContainsAny(got, "0123456789") {
				t.Errorf("Sprintf(%q) of a %T = %q, want it redacted", verb, arg, got)
			}
		}
	}

	// By reflection the vectors are a closure, printed as an address: strip
	// the addresses and the closure's type, and no digit is left.
	hidden := struct{ n Noise }{n}
	addr := regexp.MustCompile(`0x[0-9a-f]+`)
	for _, got := range []string{fmt.Sprintf("%p", n), fmt.Sprintf("%v", hidden), fmt.Sprintf("%+v", hidden), fmt.Sprintf("%s", hidden), fmt.Sprintf("%q", hidden)} {
		if strings.ContainsAny(strings.ReplaceAll(addr.ReplaceAllString(got, ""), "int64", ""), "0123456789") {
			t.Errorf("fmt printed the noise by reflection as %q, want only addresses", got)
		}
	}

	var zero Booking
	for _, r := range []struct {
		name string
		read func()
	}{
		{"Vectors", func() { n.Vectors(zero) }},
		{"AddTo", func() { n.AddTo(make([]int64, dims), zero) }},
		{"AddSkellamOnto", func() { AddSkellamOnto(zero, make([]int64, dims), mu, []*randx.RNG{randx.New(4)}) }},
	} {
		func() {
			defer func() {
				if _, ok := recover().(*invariant.Error); !ok {
					t.Errorf("%s on the zero Booking did not panic with an invariant.Violation", r.name)
				}
			}()
			r.read()
		}()
	}

	want := [][]int64{randx.New(1).SkellamVec(dims, mu), randx.New(2).SkellamVec(dims, mu)}
	for k, z := range randx.New(3).SkellamVec(dims, mu) {
		want[1][k] += z
	}
	var none *Accountant
	for _, b := range []Booking{none.AddSkellam(1, 1, mu), none.AddSubsampledSkellam(1, 1, mu, 0.1, 10)} {
		got := n.Vectors(b)
		if len(got) != len(want) || !slices.Equal(got[0], want[0]) || !slices.Equal(got[1], want[1]) {
			t.Fatalf("a nil accountant's booking opened %v, the clients' draws sum to %v", got, want)
		}
		sum := make([]int64, dims)
		AddSkellamOnto(b, sum, mu, []*randx.RNG{randx.New(1), randx.New(2), randx.New(3)})
		n.AddTo(sum, b)
		for k, v := range sum {
			if v != 2*(want[0][k]+want[1][k]) {
				t.Fatalf("entry %d: AddSkellamOnto then AddTo gave %d, want twice the holders' sum %d", k, v, want[0][k]+want[1][k])
			}
		}
	}
	a := NewAccountant(0)
	a.AddSkellam(1, 1, mu)
	a.AddSubsampledSkellam(1, 1, mu, 0.1, 10)
	if a.Releases() != 2 {
		t.Fatalf("an accountant that minted two bookings holds %d releases", a.Releases())
	}
}
