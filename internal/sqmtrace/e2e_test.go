package sqmtrace

import (
	"testing"

	"sqm/internal/core"
	"sqm/internal/linalg"
	"sqm/internal/logreg"
	"sqm/internal/obs"
	"sqm/internal/randx"
)

// TestE2ETimelineFromTCPLogregSession is the acceptance test for the
// tracing stack: train a 3-party logistic-regression model over the TCP
// mesh with a shared trace context, dump every party's flight recorder,
// and rebuild the timeline. Every cross-party send/recv pair must match
// by (trace, lclock), the per-party round counters must appear in causal
// order, and the two surfaces must agree: the bytes the timeline sums per
// link are the bytes of the trainer's record (set-up and two steps).
func TestE2ETimelineFromTCPLogregSession(t *testing.T) {
	const rows, cols, parties = 18, 3, 3
	feat := linalg.NewMatrix(rows, cols)
	rng := randx.New(41)
	labels := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			feat.Set(i, j, rng.Float64()-0.5)
		}
		labels[i] = float64(i % 2)
	}

	tc := obs.NewTraceContext(obs.DeriveTraceID(17, parties), parties)
	model, err := logreg.TrainSQM(feat, labels, logreg.Config{
		Eps:        1,
		Delta:      1e-5,
		Gamma:      32,
		Epochs:     1,
		SampleRate: 0.5,
		Engine:     core.EngineActorBGWNet,
		Parties:    parties,
		Seed:       17,
		Recorder:   tc.Coordinator().Wrap(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	counted := model.Trace.Stats.Bytes

	dir := t.TempDir()
	files, err := tc.DumpAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != parties+1 { // coordinator + one stream per party
		t.Fatalf("dumped %d files, want %d: %v", len(files), parties+1, files)
	}

	events, read, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl := Build(events, read)

	if tl.Trace != tc.ID().String() {
		t.Fatalf("timeline trace = %q, want %q", tl.Trace, tc.ID())
	}
	if tl.Match.Matched == 0 {
		t.Fatal("no cross-party send/recv pairs matched")
	}
	if len(tl.Match.UnmatchedRecvs) != 0 {
		t.Fatalf("%d receives with no matching send: %v",
			len(tl.Match.UnmatchedRecvs), tl.Match.UnmatchedRecvs)
	}
	if len(tl.Match.UnmatchedSends) != 0 {
		t.Fatalf("%d sends never received: %v",
			len(tl.Match.UnmatchedSends), tl.Match.UnmatchedSends)
	}
	if !tl.CausalOrderOK {
		t.Fatal("round counters regress in merged causal order")
	}
	// Every mesh party contributed events to the merged timeline.
	seen := map[int]bool{}
	for _, ev := range tl.Events {
		seen[ev.Party] = true
	}
	for p := 0; p < parties; p++ {
		if !seen[p] {
			t.Fatalf("party %d missing from merged timeline (parties seen: %v)", p, seen)
		}
	}
	var linked int64
	for _, ls := range tl.Match.Links {
		linked += ls.Bytes
	}
	if linked == 0 || linked != counted {
		t.Fatalf("links carry %d bytes, the trainer's record %d (set-up + two steps)", linked, counted)
	}
	spans := map[string]SpanStat{}
	for _, st := range tl.Spans {
		spans[st.Name] = st
	}
	for _, name := range []string{"circuit.level", "circuit.open"} {
		if st, ok := spans[name]; !ok || st.Count == 0 || st.Total <= 0 {
			t.Fatalf("timeline spans %v lack %s", tl.Spans, name)
		}
	}
}
