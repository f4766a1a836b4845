package sqmtrace

import (
	"testing"
)

func ev(party int, lclock int64, name string, attrs map[string]any) Event {
	if attrs == nil {
		attrs = map[string]any{}
	}
	return Event{Party: party, LClock: lclock, Name: name, Attrs: attrs}
}

func TestMergeSortsByLamportThenParty(t *testing.T) {
	in := []Event{
		ev(1, 5, "b", nil),
		ev(0, 2, "a", nil),
		ev(0, 5, "c", nil),
		ev(-1, 1, "start", nil),
	}
	out := Merge(in)
	want := []string{"start", "a", "c", "b"}
	for i, w := range want {
		if out[i].Name != w {
			t.Fatalf("merged[%d] = %s, want %s", i, out[i].Name, w)
		}
	}
}

func TestMatchSendRecvPairsAndOrphans(t *testing.T) {
	events := []Event{
		ev(0, 3, "transport.send", map[string]any{"peer": float64(1), "bytes": float64(40), "msgs": float64(5)}),
		ev(1, 4, "transport.recv", map[string]any{"peer": float64(0), "remote_lclock": float64(3)}),
		// A dropped frame: sent but never received.
		ev(0, 7, "transport.send", map[string]any{"peer": float64(2), "bytes": float64(8), "msgs": float64(1)}),
		// A receive whose sender dump was lost.
		ev(2, 9, "transport.recv", map[string]any{"peer": float64(1), "remote_lclock": float64(8)}),
	}
	r := MatchSendRecv(events)
	if r.Matched != 1 {
		t.Fatalf("matched = %d, want 1", r.Matched)
	}
	if len(r.UnmatchedSends) != 1 || r.UnmatchedSends[0].LClock != 7 {
		t.Fatalf("unmatched sends = %v", r.UnmatchedSends)
	}
	if len(r.UnmatchedRecvs) != 1 || r.UnmatchedRecvs[0].LClock != 9 {
		t.Fatalf("unmatched recvs = %v", r.UnmatchedRecvs)
	}
	// Only matched sends count toward a link's traffic.
	if len(r.Links) != 1 || r.Links[0].Link != "0->1" || r.Links[0].Bytes != 40 || r.Links[0].Messages != 5 {
		t.Fatalf("links = %+v", r.Links)
	}
}

func TestSpansSummarizeSeconds(t *testing.T) {
	events := []Event{
		ev(0, 1, "circuit.level", map[string]any{"seconds": 0.25}),
		ev(1, 2, "circuit.level", map[string]any{"seconds": 0.75}),
		ev(-1, 3, "circuit.input", map[string]any{"seconds": 0.5, "rounds": float64(1)}),
		ev(0, 4, "transport.send", map[string]any{"peer": float64(1)}),
	}
	got := Spans(events)
	want := []SpanStat{
		{Name: "circuit.input", Count: 1, Total: 0.5, Mean: 0.5, Max: 0.5},
		{Name: "circuit.level", Count: 2, Total: 1, Mean: 0.5, Max: 0.75},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("spans = %+v, want %+v", got, want)
	}
}

func TestCheckRoundOrder(t *testing.T) {
	good := []Event{
		ev(-1, 1, "circuit.level", map[string]any{"level": float64(1)}),
		ev(-1, 2, "circuit.level", map[string]any{"level": float64(3)}),
		ev(0, 4, "circuit.level", map[string]any{"level": float64(1)}),
		// A new plan restarts its levels at 1: not a violation.
		ev(-1, 5, "circuit.level", map[string]any{"level": float64(1)}),
		// Other events carry no level and are not read.
		ev(-1, 6, "circuit.open", map[string]any{"rounds": float64(1)}),
	}
	if _, ok := CheckRoundOrder(good); !ok {
		t.Fatal("consistent levels rejected")
	}
	bad := append(good, ev(-1, 7, "circuit.level", map[string]any{"level": float64(2)}),
		ev(-1, 8, "circuit.level", map[string]any{"level": float64(4)}),
		ev(-1, 9, "circuit.level", map[string]any{"level": float64(3)}))
	if evt, ok := CheckRoundOrder(bad); ok || evt.LClock != 9 {
		t.Fatalf("regressing level not flagged: %v %v", evt, ok)
	}
}

func TestBudgetEvents(t *testing.T) {
	events := []Event{
		ev(-1, 2, "dp.release", map[string]any{"eps": 0.7, "remaining": 1.8}),
		ev(-1, 9, "dp.budget_exceeded", map[string]any{"eps": 3.1}),
	}
	out := BudgetEvents(events)
	if len(out) != 2 || out[0].Eps != 0.7 || out[0].Remaining != 1.8 {
		t.Fatalf("budget events = %+v", out)
	}
	if !out[1].Exceeded {
		t.Fatal("dp.budget_exceeded not flagged")
	}
}
