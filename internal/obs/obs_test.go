package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNopIsDisabledAndNilSafe(t *testing.T) {
	r := Nop()
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn} {
		if r.Enabled(lv) {
			t.Fatalf("nop recorder enabled at %v", lv)
		}
	}
	r.Event(LevelWarn, "ignored", Int("k", 1))
	if r.Metrics() != nil {
		t.Fatal("nop recorder must have a nil registry")
	}
	// Every handle from a nil registry is a usable no-op.
	var m *Metrics
	m.Counter("c").Add(5)
	m.Gauge("g").Set(2.5)
	m.Histogram("h").Observe(0.1)
	m.Histogram("h").ObserveSince(time.Now())
	if got := m.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	if got := m.Gauge("g").Value(); got != 0 {
		t.Fatalf("nil gauge value = %g", got)
	}
	if s := m.Histogram("h").Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram count = %d", s.Count)
	}
	if snap := m.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v", snap)
	}
}

// TestNopPathAllocationFree pins the contract the hot resharing path
// relies on: disabled telemetry performs zero allocations.
func TestNopPathAllocationFree(t *testing.T) {
	var m *Metrics
	c := m.Counter("transport.messages")
	h := m.Histogram("transport.latency")
	rec := Nop()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.ObserveSince(time.Time{})
		sp := StartTracedSpan(rec, "bgw.round", 0)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", allocs)
	}
}

func TestOr(t *testing.T) {
	if Or(nil) == nil || Or(nil).Enabled(LevelWarn) {
		t.Fatal("Or(nil) must be the disabled recorder")
	}
	r := NewLog(&bytes.Buffer{}, "text", LevelInfo)
	if Or(r) != Recorder(r) {
		t.Fatal("Or must pass a non-nil recorder through")
	}
}

func TestLogRecorderEventsAndLevels(t *testing.T) {
	var buf bytes.Buffer
	r := NewLog(&buf, "json", LevelInfo)
	if r.Enabled(LevelDebug) {
		t.Fatal("debug must be disabled at info level")
	}
	r.Event(LevelDebug, "dropped")
	r.Event(LevelInfo, "session.start",
		Int("clients", 3), Float64("gamma", 2048), String("engine", "actor-net"),
		Duration("lat", 100*time.Millisecond), Bool("tcp", true))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1: %q", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("event is not JSON: %v", err)
	}
	if ev["msg"] != "session.start" || ev["clients"] != float64(3) || ev["tcp"] != true {
		t.Fatalf("unexpected event: %v", ev)
	}
	if ev["engine"] != "actor-net" {
		t.Fatalf("string attr lost: %v", ev)
	}
}

func TestAttrValues(t *testing.T) {
	cases := []struct {
		attr Attr
		want any
	}{
		{Int("a", 7), int64(7)},
		{Int64("b", -2), int64(-2)},
		{Float64("c", 1.5), 1.5},
		{String("d", "x"), "x"},
		{Duration("e", time.Second), time.Second},
		{Bool("f", true), true},
		{Bool("g", false), false},
	}
	for _, c := range cases {
		if got := c.attr.Value(); got != c.want {
			t.Fatalf("%s: Value() = %v (%T), want %v", c.attr.Key, got, got, c.want)
		}
	}
	if s := Int("k", 3).String(); s != "k=3" {
		t.Fatalf("Attr.String() = %q", s)
	}
}

func TestMetricsRegistryGetOrCreate(t *testing.T) {
	m := NewMetrics()
	if m.Counter("x") != m.Counter("x") {
		t.Fatal("counter handles must be stable per name")
	}
	if m.Gauge("x") != m.Gauge("x") {
		t.Fatal("gauge handles must be stable per name")
	}
	if m.Histogram("x") != m.Histogram("x") {
		t.Fatal("histogram handles must be stable per name")
	}
	m.Counter("x").Add(2)
	m.Counter("x").Add(3)
	if got := m.Counter("x").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	m.Gauge("x").SetInt(41)
	m.Gauge("x").Set(42.5)
	if got := m.Gauge("x").Value(); got != 42.5 {
		t.Fatalf("gauge = %g, want 42.5", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000) // 1ms .. 100ms
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 0.001 || s.Max != 0.1 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	if s.Mean < 0.05 || s.Mean > 0.051 {
		t.Fatalf("mean = %g", s.Mean)
	}
	// Bucketed quantiles are upper bounds: p50 must cover the true
	// median and stay below the true p95.
	if s.P50 < 0.050 || s.P50 > 0.066 {
		t.Fatalf("p50 = %g out of bucket range", s.P50)
	}
	if s.P99 < s.P95 || s.P95 < s.P50 {
		t.Fatalf("quantiles not monotone: %g %g %g", s.P50, s.P95, s.P99)
	}
	if s.P99 > s.Max {
		t.Fatalf("p99 %g exceeds max %g", s.P99, s.Max)
	}
}

func TestSnapshotSortedAndTyped(t *testing.T) {
	m := NewMetrics()
	m.Counter("b.count").Add(1)
	m.Counter("a.count").Add(2)
	m.Gauge("z.gauge").Set(3)
	m.Histogram("h.lat").Observe(0.5)
	snap := m.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d points", len(snap))
	}
	if snap[0].Name != "a.count" || snap[1].Name != "b.count" {
		t.Fatalf("counters not sorted: %v", snap)
	}
	if snap[2].Type != "gauge" || snap[3].Type != "histogram" || snap[3].Histogram == nil {
		t.Fatalf("types wrong: %v", snap)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a.count", "z.gauge", "h.lat", "count=1"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("dump missing %q:\n%s", want, buf.String())
		}
	}
}

func TestSpanRecordsDurationAndEvent(t *testing.T) {
	var buf bytes.Buffer
	r := NewLog(&buf, "json", LevelDebug)
	sp := StartTracedSpan(r, "proto.round", 0, Int("round", 2))
	time.Sleep(2 * time.Millisecond)
	sp.End(Int("msgs", 9))
	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("span event not JSON: %v", err)
	}
	if ev["msg"] != "proto.round" || ev["round"] != float64(2) || ev["msgs"] != float64(9) {
		t.Fatalf("span event wrong: %v", ev)
	}
	if secs, ok := ev["seconds"].(float64); !ok || secs < 0.001 {
		t.Fatalf("span duration missing or too small: %v", ev["seconds"])
	}
	s := r.Metrics().Histogram("proto.round.seconds").Snapshot()
	if s.Count != 1 || s.Max < 0.001 {
		t.Fatalf("span histogram not observed: %+v", s)
	}
	// Spans against a disabled recorder are inert.
	sp2 := StartTracedSpan(NewLog(&bytes.Buffer{}, "text", LevelInfo), "x", 0)
	sp2.End()
}

func TestMetricsConcurrency(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Counter("c").Add(1)
				m.Gauge("g").SetInt(int64(j))
				m.Histogram("h").Observe(float64(j) * 1e-6)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := m.Histogram("h").Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestDebugMux(t *testing.T) {
	m := NewMetrics()
	m.Counter("transport.messages").Add(12)
	mux := NewDebugMux(m)

	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if rw.Code != 200 {
		t.Fatalf("/metrics status %d", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body := rw.Body.String()
	if !strings.Contains(body, "# TYPE transport_messages counter") ||
		!strings.Contains(body, "transport_messages 12") {
		t.Fatalf("unexpected /metrics body: %s", body)
	}

	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics.json", nil))
	if rw.Code != 200 {
		t.Fatalf("/metrics.json status %d", rw.Code)
	}
	var points []MetricPoint
	if err := json.Unmarshal(rw.Body.Bytes(), &points); err != nil {
		t.Fatalf("/metrics.json not JSON: %v", err)
	}
	if len(points) != 1 || points[0].Name != "transport.messages" || points[0].Value != 12 {
		t.Fatalf("unexpected /metrics.json body: %v", points)
	}

	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rw.Code != 200 || !strings.Contains(rw.Body.String(), "goroutine") {
		t.Fatalf("pprof index missing: %d", rw.Code)
	}
}
