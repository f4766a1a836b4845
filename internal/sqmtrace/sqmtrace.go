// Package sqmtrace reconstructs one causally ordered timeline from the
// per-party flight-recorder dumps a traced session leaves behind
// (obs.TraceContext.DumpAll). Every event carries the Lamport stamp its
// party assigned; merging all streams sorted by (lclock, party, seq) is
// a valid causal order because e happens-before f implies
// lclock(e) < lclock(f). Cross-party edges are recovered by pairing
// each transport.recv's remote_lclock with the transport.send that
// carried the same stamp over the same directed link. The events are
// the run's only telemetry, so the timeline is also where its numbers
// are summed: bytes and messages per link, count and seconds per span.
package sqmtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// PartyUnknown marks an event whose dump carried no party attribute.
const PartyUnknown = -2

// Event is one flight-recorder event, enriched with the parsed trace
// stamp. Party -1 is the coordinator stream (obs.CoordParty).
type Event struct {
	Party  int            `json:"party"`
	Seq    uint64         `json:"seq"`
	WallNS int64          `json:"wall_ns"`
	Level  int8           `json:"level"`
	Name   string         `json:"name"`
	Trace  string         `json:"trace,omitempty"`
	LClock int64          `json:"lclock"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	File   string         `json:"-"`
}

// attrInt extracts an integer attribute (JSON numbers decode as
// float64).
func attrInt(attrs map[string]any, key string) (int64, bool) {
	switch v := attrs[key].(type) {
	case float64:
		return int64(v), true
	case int64:
		return v, true
	}
	return 0, false
}

// ReadFile parses one JSONL dump. Lines that fail to parse abort with
// an error naming the line — a truncated dump should be loud, not
// silently short.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var raw struct {
			Seq    uint64         `json:"seq"`
			WallNS int64          `json:"wall_ns"`
			Level  int8           `json:"level"`
			Name   string         `json:"name"`
			Attrs  map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &raw); err != nil {
			return nil, fmt.Errorf("sqmtrace: %s:%d: %w", path, lineNo, err)
		}
		ev := Event{
			Party: PartyUnknown, Seq: raw.Seq, WallNS: raw.WallNS,
			Level: raw.Level, Name: raw.Name, Attrs: raw.Attrs, File: path,
		}
		if p, ok := attrInt(raw.Attrs, "party"); ok {
			ev.Party = int(p)
		}
		if lc, ok := attrInt(raw.Attrs, "lclock"); ok {
			ev.LClock = lc
		}
		if tr, ok := raw.Attrs["trace"].(string); ok {
			ev.Trace = tr
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sqmtrace: %s: %w", path, err)
	}
	return events, nil
}

// ReadFiles parses every dump and concatenates the events.
func ReadFiles(paths []string) ([]Event, error) {
	var all []Event
	for _, p := range paths {
		evs, err := ReadFile(p)
		if err != nil {
			return nil, err
		}
		all = append(all, evs...)
	}
	return all, nil
}

// ReadDir parses every trace-*.jsonl dump in dir.
func ReadDir(dir string) ([]Event, []string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "trace-*.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("sqmtrace: no trace-*.jsonl dumps in %s", dir)
	}
	sort.Strings(paths)
	evs, err := ReadFiles(paths)
	return evs, paths, err
}

// Merge sorts the combined streams into causal order: primarily by
// Lamport stamp, with (party, seq) breaking ties between concurrent
// events deterministically.
func Merge(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.LClock != b.LClock {
			return a.LClock < b.LClock
		}
		if a.Party != b.Party {
			return a.Party < b.Party
		}
		return a.Seq < b.Seq
	})
	return out
}

// LinkStat summarizes the matched traffic of one directed link: frames,
// the payload bytes and logical messages their sends carried, and the
// send→recv wall-clock (same-host dumps).
type LinkStat struct {
	From, To int     `json:"-"`
	Link     string  `json:"link"`
	Matched  int     `json:"matched"`
	Bytes    int64   `json:"bytes"`
	Messages int64   `json:"messages"`
	MeanMS   float64 `json:"mean_ms"`
	MaxMS    float64 `json:"max_ms"`
}

// MatchReport is the result of pairing sends with receives.
type MatchReport struct {
	Matched        int        `json:"matched"`
	UnmatchedSends []Event    `json:"unmatched_sends,omitempty"`
	UnmatchedRecvs []Event    `json:"unmatched_recvs,omitempty"`
	Links          []LinkStat `json:"links,omitempty"`
	// Straggler names the matched link with the highest mean latency —
	// the first place to look when a round is slow.
	Straggler string `json:"straggler,omitempty"`
}

type sendKey struct {
	from, to int
	lclock   int64
}

// MatchSendRecv pairs every transport.recv with the transport.send
// whose Lamport stamp it echoes in remote_lclock, per directed link. An
// unmatched send is a frame that was dropped, cut, or still in flight
// at dump time; an unmatched recv indicates a lost or truncated sender
// dump.
func MatchSendRecv(events []Event) MatchReport {
	sends := make(map[sendKey]Event)
	var r MatchReport
	type linkAgg struct {
		n            int
		bytes, msgs  int64
		sumNS, maxNS int64
	}
	links := make(map[[2]int]*linkAgg)
	for _, ev := range events {
		if ev.Name != "transport.send" {
			continue
		}
		to, ok := attrInt(ev.Attrs, "peer")
		if !ok {
			continue
		}
		sends[sendKey{from: ev.Party, to: int(to), lclock: ev.LClock}] = ev
	}
	for _, ev := range events {
		if ev.Name != "transport.recv" {
			continue
		}
		from, ok1 := attrInt(ev.Attrs, "peer")
		remote, ok2 := attrInt(ev.Attrs, "remote_lclock")
		if !ok1 || !ok2 {
			continue
		}
		key := sendKey{from: int(from), to: ev.Party, lclock: remote}
		send, ok := sends[key]
		if !ok {
			r.UnmatchedRecvs = append(r.UnmatchedRecvs, ev)
			continue
		}
		delete(sends, key)
		r.Matched++
		lk := [2]int{int(from), ev.Party}
		agg := links[lk]
		if agg == nil {
			agg = &linkAgg{}
			links[lk] = agg
		}
		agg.n++
		b, _ := attrInt(send.Attrs, "bytes")
		m, _ := attrInt(send.Attrs, "msgs")
		agg.bytes += b
		agg.msgs += m
		if d := ev.WallNS - send.WallNS; d > 0 {
			agg.sumNS += d
			if d > agg.maxNS {
				agg.maxNS = d
			}
		}
	}
	for _, ev := range sends {
		r.UnmatchedSends = append(r.UnmatchedSends, ev)
	}
	sort.Slice(r.UnmatchedSends, func(i, j int) bool {
		return r.UnmatchedSends[i].LClock < r.UnmatchedSends[j].LClock
	})
	var worst float64
	for lk, agg := range links {
		ls := LinkStat{
			From: lk[0], To: lk[1],
			Link:     fmt.Sprintf("%d->%d", lk[0], lk[1]),
			Matched:  agg.n,
			Bytes:    agg.bytes,
			Messages: agg.msgs,
			MeanMS:   float64(agg.sumNS) / float64(agg.n) / 1e6,
			MaxMS:    float64(agg.maxNS) / 1e6,
		}
		r.Links = append(r.Links, ls)
		if ls.MeanMS > worst {
			worst = ls.MeanMS
			r.Straggler = ls.Link
		}
	}
	sort.Slice(r.Links, func(i, j int) bool { return r.Links[i].Link < r.Links[j].Link })
	return r
}

// SpanStat summarizes every event of one name that carries a "seconds"
// attribute: the TracedSpans (circuit.exec|input|level|open, core.noise).
// The circuit.input, circuit.level and circuit.open spans are the record
// of the rounds: each carries the rounds, frames and bytes it spent.
type SpanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Mean  float64 `json:"mean_s"`
	Max   float64 `json:"max_s"`
}

// Spans groups the timed events by name, sorted by name.
func Spans(events []Event) []SpanStat {
	byName := make(map[string]*SpanStat)
	for _, ev := range events {
		secs, ok := ev.Attrs["seconds"].(float64)
		if !ok {
			continue
		}
		st := byName[ev.Name]
		if st == nil {
			st = &SpanStat{Name: ev.Name}
			byName[ev.Name] = st
		}
		st.Count++
		st.Total += secs
		st.Max = max(st.Max, secs)
	}
	out := make([]SpanStat, 0, len(byName))
	for _, st := range byName {
		st.Mean = st.Total / float64(st.Count)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CheckRoundOrder verifies that, within the merged causal order, every
// stream's circuit.level spans carry nondecreasing "level" attributes —
// the acceptance check that the Lamport merge reconstructed a consistent
// history. A drop back to level 1 is not a violation: each plan numbers
// its levels from 1, so a run of several plans in sequence legitimately
// restarts the counter. Returns the first violating event, if any.
func CheckRoundOrder(merged []Event) (Event, bool) {
	last := make(map[int]int64) // party -> last circuit.level
	for _, ev := range merged {
		if ev.Name != "circuit.level" {
			continue
		}
		level, ok := attrInt(ev.Attrs, "level")
		if !ok {
			continue
		}
		if prev, seen := last[ev.Party]; seen && level < prev && level > 1 {
			return ev, false
		}
		last[ev.Party] = level
	}
	return Event{}, true
}

// BudgetEvent is one privacy-ledger entry surfaced on the timeline.
type BudgetEvent struct {
	Name      string  `json:"name"`
	LClock    int64   `json:"lclock"`
	Eps       float64 `json:"eps"`
	Remaining float64 `json:"remaining,omitempty"`
	Exceeded  bool    `json:"exceeded,omitempty"`
}

// BudgetEvents extracts the dp.Accountant's release and budget events.
func BudgetEvents(merged []Event) []BudgetEvent {
	var out []BudgetEvent
	for _, ev := range merged {
		if ev.Name != "dp.release" && ev.Name != "dp.budget_exceeded" {
			continue
		}
		be := BudgetEvent{Name: ev.Name, LClock: ev.LClock, Exceeded: ev.Name == "dp.budget_exceeded"}
		if e, ok := ev.Attrs["eps"].(float64); ok {
			be.Eps = e
		}
		if rem, ok := ev.Attrs["remaining"].(float64); ok {
			be.Remaining = rem
		}
		out = append(out, be)
	}
	return out
}

// Timeline is the full reconstruction: the merged event stream plus the
// derived reports.
type Timeline struct {
	Trace         string        `json:"trace"`
	Files         []string      `json:"files,omitempty"`
	Parties       []int         `json:"parties"`
	Events        []Event       `json:"events"`
	Match         MatchReport   `json:"match"`
	Spans         []SpanStat    `json:"spans,omitempty"`
	Budget        []BudgetEvent `json:"budget,omitempty"`
	CausalOrderOK bool          `json:"causal_order_ok"`
}

// Build merges the raw events and derives every report.
func Build(events []Event, files []string) *Timeline {
	merged := Merge(events)
	tl := &Timeline{Files: files, Events: merged, Match: MatchSendRecv(merged)}
	tl.Spans = Spans(merged)
	tl.Budget = BudgetEvents(merged)
	_, tl.CausalOrderOK = CheckRoundOrder(merged)
	seen := make(map[int]bool)
	for _, ev := range merged {
		if tl.Trace == "" && ev.Trace != "" {
			tl.Trace = ev.Trace
		}
		if ev.Party != PartyUnknown && !seen[ev.Party] {
			seen[ev.Party] = true
			tl.Parties = append(tl.Parties, ev.Party)
		}
	}
	sort.Ints(tl.Parties)
	return tl
}

// WriteJSON renders the timeline as one indented JSON document.
func (tl *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl)
}

// WriteText renders a human-readable summary followed by the merged
// event listing.
func (tl *Timeline) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace %s: %d events across %d streams\n", tl.Trace, len(tl.Events), len(tl.Parties))
	fmt.Fprintf(bw, "send/recv: %d matched, %d unmatched sends, %d unmatched recvs\n",
		tl.Match.Matched, len(tl.Match.UnmatchedSends), len(tl.Match.UnmatchedRecvs))
	for _, ls := range tl.Match.Links {
		fmt.Fprintf(bw, "  link %-8s %5d frames %10d bytes %7d msgs  mean %.3fms  max %.3fms\n",
			ls.Link, ls.Matched, ls.Bytes, ls.Messages, ls.MeanMS, ls.MaxMS)
	}
	if tl.Match.Straggler != "" {
		fmt.Fprintf(bw, "  straggler: %s\n", tl.Match.Straggler)
	}
	if len(tl.Spans) > 0 {
		fmt.Fprintf(bw, "spans:\n")
	}
	for _, st := range tl.Spans {
		fmt.Fprintf(bw, "  %-16s %5d  total %.3fms  mean %.3fms  max %.3fms\n",
			st.Name, st.Count, st.Total*1e3, st.Mean*1e3, st.Max*1e3)
	}
	if !tl.CausalOrderOK {
		fmt.Fprintf(bw, "WARNING: circuit levels regress within the merged order\n")
	}
	for _, be := range tl.Budget {
		mark := ""
		if be.Exceeded {
			mark = "  ** BUDGET EXCEEDED **"
		}
		fmt.Fprintf(bw, "budget @%d %s eps=%.4f%s\n", be.LClock, be.Name, be.Eps, mark)
	}
	fmt.Fprintln(bw)
	for _, ev := range tl.Events {
		party := "coord"
		if ev.Party >= 0 {
			party = fmt.Sprintf("party%d", ev.Party)
		} else if ev.Party == PartyUnknown {
			party = "?"
		}
		fmt.Fprintf(bw, "%8d %-7s %s", ev.LClock, party, ev.Name)
		keys := make([]string, 0, len(ev.Attrs))
		for k := range ev.Attrs {
			if k == "trace" || k == "party" || k == "lclock" {
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(bw, " %s=%v", k, ev.Attrs[k])
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
