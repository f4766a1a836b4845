package main

import (
	"fmt"
	"os"
	"time"

	"sqm"
	"sqm/internal/bgw"
	"sqm/internal/transport"
)

// The traced run attributes time to layers. It alternates an untraced
// facade session (for the tracing overhead and the tail diagnostic) with
// an instrumented replica of the same session, after a short warm-up of
// both, until the time is spent; leaf probes run first.
const tracedWarmups = 2

var perLayerSpec = []metricSpec{
	{"dp.calibrate_s", "s"},
	{"quant.busy_s", "s"},
	{"quant.cells", "count"},
	{"quant.cell_ns", "ns"},
	{"randx.busy_s", "s"},
	{"randx.samples", "count"},
	{"randx.skellam_ns", "ns"},
	{"field.ops", "count"},
	{"field.dotacc_melem_s", "Melem/s"},
	{"field.mulvec_melem_s", "Melem/s"},
	{"field.addvec_melem_s", "Melem/s"},
	{"shamir.share_ns", "ns"},
	{"shamir.reconstruct_ns", "ns"},
	{"bgw.new_s", "s"},
	{"bgw.close_s", "s"},
	{"bgw.input_s", "s"},
	{"bgw.mul_s", "s"},
	{"bgw.open_s", "s"},
	{"bgw.local_s", "s"},
	{"bgw.input_calls", "count"},
	{"bgw.mul_calls", "count"},
	{"bgw.open_calls", "count"},
	{"bgw.local_calls", "count"},
	{"bgw.mul_gates", "count"},
	{"bgw.gates_per_s", "1/s"},
	{"circuit.build_s", "s"},
	{"circuit.builds", "count"},
	{"circuit.nodes", "count"},
	{"circuit.depth", "count"},
	{"circuit.exec_self_s", "s"},
	{"transport.dial_s", "s"},
	{"transport.send_s", "s"},
	{"transport.recv_wait_s", "s"},
	{"transport.frames", "count"},
	{"transport.messages", "count"},
	{"transport.bytes", "bytes"},
	{"transport.bytes_per_frame", "bytes"},
	{"transport.pool_hit_ratio", "ratio"},
	{"transport.chan_frame_ns", "ns"},
	{"transport.tcp_frame_ns", "ns"},
	{"protocol.frame_encode_ns", "ns"},
	{"protocol.frame_decode_ns", "ns"},
	{"core.session_s", "s"},
	{"core.decode_s", "s"},
	{"core.self_s", "s"},
	{"core.session_hi_s", "s"},
	{"core.session_hi_pct", "%"},
	{"core.replica_drift", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.layer_sum_ratio", "ratio"},
}

// hasMesh reports whether the workload's engine moves real frames.
func (w workload) hasMesh() bool { return w.engine != sqm.EngineBGW }

// runTraced measures the per-layer metrics.
func runTraced(w workload, seed uint64, seconds float64, spansPath string) (*outcome, error) {
	start := time.Now()
	o := &outcome{workload: w, metrics: make(map[string]float64)}
	for _, m := range perLayerSpec {
		o.metrics[m.name] = 0 // every name is reported, zero where the layer is absent
	}

	in, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	if w.kind == kindCov {
		// Covariance calibrates once, in set-up; the LR trainers
		// calibrate inside every session (see replicaRun.logreg).
		t0 := time.Now()
		if err := w.calibrate(in); err != nil {
			return nil, err
		}
		o.metrics["dp.calibrate_s"] = time.Since(t0).Seconds()
	}

	// Warm both paths and take core's counters for the drift check.
	want, err := w.coreStats(in, seed)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(w.parties)
	for i := 0; i < tracedWarmups; i++ {
		if _, err := w.replicaSession(rec, in, seed); err != nil {
			return nil, err
		}
	}
	warmSpans, warmSessions := len(rec.spans), rec.session

	m := o.metrics
	if err := w.probes(want, m); err != nil {
		return nil, err
	}

	hits0, misses0 := transport.PoolStats()
	var walls, replicaWalls []float64
	var sum replicaResult
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		s := seed + uint64(i)
		o.attempted++
		t0 := time.Now()
		out, _, err := w.session(in, s, w.engine)
		wall := time.Since(t0).Seconds()
		if err == nil && i == 0 {
			// Every replica is checked against its facade session; the
			// facade itself against the plain engine once (the untraced
			// run checks every session).
			var oracle []float64
			if oracle, err = w.oracle(in, s); err == nil && !sameBits(out, oracle) {
				err = fmt.Errorf("output differs from the plain engine")
			}
		}
		var res *replicaResult
		var replicaWall float64
		if err == nil {
			t0 = time.Now()
			res, err = w.replicaSession(rec, in, s)
			replicaWall = time.Since(t0).Seconds()
			if err == nil && !sameBits(res.out, out) {
				err = fmt.Errorf("replica output differs from the facade session")
			}
		}
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "%s: session %d (seed %d): %v\n", w.name, i, s, err)
			continue
		}
		walls = append(walls, wall)
		replicaWalls = append(replicaWalls, replicaWall)
		if i == 0 && res.stats != want {
			m["core.replica_drift"] = 1
			fmt.Fprintf(os.Stderr, "%s: replica counters %+v, core's %+v\n", w.name, res.stats, want)
		}
		sum.stats = addStats(sum.stats, res.stats)
		sum.mulGates += res.mulGates
		sum.builds += res.builds
		sum.nodes += res.nodes
		if res.depth > sum.depth {
			sum.depth = res.depth
		}
	}
	o.timedSeconds = time.Since(start).Seconds()
	if len(replicaWalls) == 0 {
		return o, fmt.Errorf("%s: no replica session succeeded", w.name)
	}
	hits1, misses1 := transport.PoolStats()

	layerMetrics(m, rec, warmSpans, float64(rec.session-warmSessions), w.parties)
	n := float64(len(replicaWalls))
	m["field.ops"] = float64(sum.stats.FieldOps) / n
	m["bgw.mul_gates"] = float64(sum.mulGates) / n
	if m["bgw.mul_s"] > 0 {
		m["bgw.gates_per_s"] = m["bgw.mul_gates"] / m["bgw.mul_s"]
	}
	m["circuit.builds"] = float64(sum.builds) / n
	m["circuit.nodes"] = float64(sum.nodes) / n
	m["circuit.depth"] = float64(sum.depth)
	if w.hasMesh() {
		m["transport.frames"] = float64(sum.stats.Frames) / n
		m["transport.messages"] = float64(sum.stats.Messages) / n
		m["transport.bytes"] = float64(sum.stats.Bytes) / n
		m["transport.bytes_per_frame"] = float64(sum.stats.Bytes) / float64(sum.stats.Frames)
		if gets := float64(hits1 - hits0 + misses1 - misses0); gets > 0 {
			m["transport.pool_hit_ratio"] = float64(hits1-hits0) / gets
		}
	}
	o.walls = walls
	m["core.session_hi_s"], m["core.session_hi_pct"] = highPercentile(walls)
	o.sessionHi, o.sessionHiPct = m["core.session_hi_s"], m["core.session_hi_pct"]
	m["trace.overhead_ratio"] = median(replicaWalls) / median(walls)

	if spansPath != "" {
		if err := rec.writeSpans(spansPath); err != nil {
			return o, err
		}
	}
	return o, nil
}

// layerMetrics folds the spans recorded after the warm-up into
// per-session layer times and counts.
func layerMetrics(m map[string]float64, rec *recorder, from int, sessions float64, parties int) {
	self, covered := rec.selfTimes()
	selfS := make(map[string]float64)  // Σ self time, seconds
	partyS := make(map[string]float64) // Σ party-side time, seconds, mean over parties
	calls := make(map[string]float64)
	var rootS, accountedS float64
	for i := from; i < len(rec.spans); i++ {
		s := rec.spans[i]
		if s.Party >= 0 {
			partyS[s.Name] += float64(s.dur()) / 1e9 / float64(parties)
			continue
		}
		selfS[s.Name] += float64(self[i]) / 1e9
		calls[s.Name] += float64(s.Calls)
		accountedS += float64(self[i]+covered[i]) / 1e9
		if s.Parent == 0 {
			rootS += float64(s.dur()) / 1e9
		}
	}
	per := func(x float64) float64 { return x / sessions }
	if selfS["dp.calibrate"] > 0 { // LR: inside the session; covariance keeps its set-up figure
		m["dp.calibrate_s"] = per(selfS["dp.calibrate"])
	}
	m["quant.busy_s"] = per(selfS["quant.matrix"])
	m["quant.cells"] = per(calls["quant.matrix"])
	m["quant.cell_ns"] = selfS["quant.matrix"] * 1e9 / calls["quant.matrix"]
	m["randx.busy_s"] = per(selfS["randx.skellam"])
	m["randx.samples"] = per(calls["randx.skellam"])
	m["randx.skellam_ns"] = selfS["randx.skellam"] * 1e9 / calls["randx.skellam"]
	m["bgw.new_s"] = per(selfS["bgw.new"])
	m["bgw.close_s"] = per(selfS["bgw.close"])
	for _, class := range classSpan {
		m[class+"_s"] = per(selfS[class])
		m[class+"_calls"] = per(calls[class])
	}
	m["circuit.build_s"] = per(selfS["circuit.build"])
	m["circuit.exec_self_s"] = per(selfS["circuit.exec"])
	m["transport.dial_s"] = per(selfS["transport.dial"])
	m["transport.send_s"] = per(partyS["transport.send"])
	m["transport.recv_wait_s"] = per(partyS["transport.recv_wait"])
	m["core.session_s"] = per(rootS)
	m["core.decode_s"] = per(selfS["core.decode"])
	m["core.self_s"] = per(selfS["core.session"])
	m["trace.layer_sum_ratio"] = accountedS / rootS
}

// probes times the leaf functions at this workload's sizes; core's
// counters give the mean frame size.
func (w workload) probes(stats bgw.Stats, m map[string]float64) error {
	probeField(w.kernelLen(), m)
	probeShamir(w.parties, m)
	if !w.hasMesh() || stats.Frames == 0 {
		return nil
	}
	frameBytes := int(stats.Bytes / stats.Frames)
	if err := probeTransport(w.parties, frameBytes, m); err != nil {
		return err
	}
	if w.engine == sqm.EngineActorBGWNet {
		return probeProtocol(frameBytes, m)
	}
	return nil
}
