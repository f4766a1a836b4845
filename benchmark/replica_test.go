package main

import (
	"testing"

	"sqm"
)

// TestReplicaFidelity is the test that says when to resync replica.go:
// for each of the three replica circuits at two shapes, the replica's
// rounds/frames/messages/bytes/FieldOps must equal core's own counters
// for the same seed, and its released output must be bit-identical to
// the plain engine's.
func TestReplicaFidelity(t *testing.T) {
	cases := []workload{
		{name: "cov/bgw", kind: kindCov, engine: sqm.EngineBGW, parties: 4, m: 40, n: 9, gamma: 18},
		{name: "cov/actor-net", kind: kindCov, engine: sqm.EngineActorBGWNet, parties: 5, m: 25, n: 6, gamma: 12},
		{name: "lr/actor", kind: kindLR, engine: sqm.EngineActorBGW, parties: 4, m: 100, n: 5, gamma: 18, epochs: 1, sampleRate: 0.25},
		{name: "lr/bgw", kind: kindLR, engine: sqm.EngineBGW, parties: 3, m: 60, n: 7, gamma: 16, epochs: 1, sampleRate: 0.5},
		{name: "lr3/actor-net", kind: kindLR3, engine: sqm.EngineActorBGWNet, parties: 4, m: 100, n: 5, gamma: 8, epochs: 1, sampleRate: 0.25},
		{name: "lr3/actor", kind: kindLR3, engine: sqm.EngineActorBGW, parties: 5, m: 60, n: 4, gamma: 6, epochs: 1, sampleRate: 0.5},
	}
	for _, w := range cases {
		t.Run(w.name, func(t *testing.T) {
			const seed = 3
			in, err := w.generate(seed)
			if err == nil {
				err = w.calibrate(in)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.coreStats(in, seed)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := w.oracle(in, seed)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder(w.parties)
			got, err := w.replicaSession(rec, in, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got.stats != want {
				t.Errorf("replica counters %+v, core's %+v", got.stats, want)
			}
			if !sameBits(got.out, oracle) {
				t.Errorf("replica output differs from the plain engine's")
			}
			if len(rec.stack) != 0 {
				t.Errorf("replica left %d spans open", len(rec.stack))
			}
		})
	}
}

// TestSelfTimeRule pins the parallel-party rule: a parent's self time
// subtracts its own-goroutine children in full and its party children by
// their mean, and party children never cover more than the parent has
// left.
func TestSelfTimeRule(t *testing.T) {
	rec := newRecorder(4)
	rec.spans = []span{
		{ID: 1, Name: "bgw.mul", Party: -1, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "transport.send", Party: 0, Start: 0, End: 400},
		{ID: 3, Parent: 1, Name: "transport.send", Party: 1, Start: 0, End: 400},
		{ID: 4, Parent: 1, Name: "transport.recv_wait", Party: 2, Start: 0, End: 800},
		{ID: 5, Parent: 1, Name: "inner", Party: -1, Start: 100, End: 300},
		// Parties that were already waiting while the caller enqueued:
		// their wait outlasts the phase it is charged to.
		{ID: 6, Name: "bgw.input", Party: -1, Start: 1000, End: 1100},
		{ID: 7, Parent: 6, Name: "transport.recv_wait", Party: 0, Start: 1000, End: 3000},
	}
	self, covered := rec.selfTimes()
	if want := int64(1000 - 200 - (400+400+800)/4); self[0] != want {
		t.Errorf("parent self time %d, want %d", self[0], want)
	}
	if want := int64((400 + 400 + 800) / 4); covered[0] != want {
		t.Errorf("parent party-covered time %d, want %d", covered[0], want)
	}
	if self[4] != 200 {
		t.Errorf("leaf self time %d, want 200", self[4])
	}
	if self[5] != 0 || covered[5] != 100 {
		t.Errorf("outlasted parent: self %d covered %d, want 0 and 100", self[5], covered[5])
	}
	var sum int64
	for i := range self {
		sum += self[i] + covered[i]
	}
	if sum != 1000+100 {
		t.Errorf("self + covered sums to %d, want the two roots' 1100", sum)
	}
}
