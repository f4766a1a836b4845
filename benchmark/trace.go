package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own files, around the calls into each layer, and
// stay in memory until the run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a session root
	Session int    `json:"session"`
	Name    string `json:"name"`
	// Party is -1 for work on the session's own goroutine. Spans with
	// Party >= 0 sum what one party goroutine did inside the parent; the
	// parties run in parallel, so the parent's self time subtracts their
	// mean, not their sum.
	Party int   `json:"party"`
	Start int64 `json:"start_ns"` // since the recorder's epoch
	End   int64 `json:"end_ns"`
	// Calls is the number of operations a coalesced span stands for
	// (local gates, quantized cells, noise samples); 1 otherwise.
	Calls int64 `json:"calls"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects the spans of one traced run. Only the session
// goroutine touches it; party-side time reaches it through
// timedMesh.harvest after a barrier.
type recorder struct {
	epoch   time.Time
	spans   []span
	stack   []int // ids of the open spans, innermost last
	session int
	parties int
}

func newRecorder(parties int) *recorder {
	return &recorder{epoch: time.Now(), parties: parties}
}

func (r *recorder) parent() int {
	if len(r.stack) == 0 {
		return 0
	}
	return r.stack[len(r.stack)-1]
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: r.parent(), Session: r.session, Name: name, Party: -1,
		Start: time.Since(r.epoch).Nanoseconds(), Calls: 1,
	})
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	r.spans[id-1].End = time.Since(r.epoch).Nanoseconds()
	r.stack = r.stack[:len(r.stack)-1]
}

// setCalls records how many operations span id stands for.
func (r *recorder) setCalls(id int, calls int64) { r.spans[id-1].Calls = calls }

// add records an already-measured interval as a closed child of parent.
func (r *recorder) add(parent int, name string, party int, start time.Time, dur time.Duration, calls int64) int {
	id := len(r.spans) + 1
	s := start.Sub(r.epoch).Nanoseconds()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Session: r.session, Name: name, Party: party,
		Start: s, End: s + dur.Nanoseconds(), Calls: calls,
	})
	return id
}

// selfTimes returns every span's self time: its duration minus the part
// of that interval its children cover. Children recorded on party
// goroutines run in parallel, so together they cover their mean over the
// parties, and never more than what the parent has left: on the actor
// engines the parties also wait while the caller is still enqueueing
// the next phase, and that overlap belongs to no phase. covered is the
// part of each span charged to its party children; Σ self + Σ covered
// over all spans equals Σ root spans when the spans nest as they should
// (trace.layer_sum_ratio).
func (r *recorder) selfTimes() (self, covered []int64) {
	self = make([]int64, len(r.spans))
	covered = make([]int64, len(r.spans))
	for i, s := range r.spans {
		if s.Party < 0 {
			self[i] = s.dur()
		}
	}
	for _, s := range r.spans {
		switch {
		case s.Parent == 0:
		case s.Party >= 0:
			covered[s.Parent-1] += s.dur()
		default:
			self[s.Parent-1] -= s.dur()
		}
	}
	for i := range self {
		covered[i] /= int64(r.parties)
		if covered[i] > self[i] {
			covered[i] = self[i]
		}
		if covered[i] < 0 {
			covered[i] = 0
		}
		self[i] -= covered[i]
	}
	return self, covered
}

// writeSpans dumps the raw spans as JSONL.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
