package main

import (
	"fmt"
	"runtime"
	"time"
)

// A run builds its system at least minSetups times and goes on, up to
// maxSetups, while that has taken less than setupBudget; setup_s is the
// median build time and the phases run against the last system built. The
// cheap set-ups (6 ms in-process) are the ones a neighbour's burst distorts
// most, and a median of 31 costs them a fifth of a second.
const (
	minSetups   = 7
	maxSetups   = 31
	setupBudget = 750 * time.Millisecond
)

// result is one run of one workload.
type result struct {
	metrics           map[string]float64
	attempted, failed int64
	problems          []string
	notes             []string // sample counts, trace file, validity
}

// system is what the phases need of a system under test.
type system interface {
	paced(dur time.Duration, tr *tracer) pacedResult
	sat(dur time.Duration, tr *tracer) satResult
	// check runs the output checks that need the system quiescent.
	check() []string
	close()
}

func setup(w workload, seed uint64) (system, error) {
	switch w.kind {
	case kindTCP:
		return setupTCP(w, seed)
	case kindEngine:
		return setupEngine(w, seed)
	default:
		return setupSim(w, seed), nil
	}
}

// setupTimed builds the system repeatedly and returns the last one with the
// median build time.
func setupTimed(w workload, seed uint64) (system, float64, error) {
	var sys system
	var times []float64
	begin := time.Now()
	for len(times) < minSetups || (len(times) < maxSetups && time.Since(begin) < setupBudget) {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		if sys, err = setup(w, seed); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return sys, median(times), nil
}

// split divides a run's seconds into n phases of whole windows where it can.
func split(seconds, n int) time.Duration {
	if per := seconds / n; per >= 1 {
		return time.Duration(per) * time.Second
	}
	return time.Duration(seconds) * time.Second / time.Duration(n)
}

func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func (r *result) absorb(attempted, failed int64, problems []string) {
	r.attempted += attempted
	r.failed += failed
	r.problems = append(r.problems, problems...)
}

// runUntraced measures the end-to-end metrics: set-up, the paced phase, the
// live heap at that fixed point of the op stream, then the sat phase.
func runUntraced(w workload, seed uint64, seconds int) (*result, error) {
	r := &result{metrics: make(map[string]float64)}
	sys, setupS, err := setupTimed(w, seed)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	r.metrics["setup_s"] = setupS
	dur := split(seconds, 2)

	p := sys.paced(dur, nil)
	r.absorb(p.attempted, p.failed, append(p.problems, sys.check()...))
	r.metrics["paced_p50_us"] = p.p50
	r.notes = append(r.notes, fmt.Sprintf("paced: %d samples at %.0f ops/s, p90 %.1f us, p99 %.1f us, late p99 %.1f us, backlog %d",
		p.samples, w.pacedRate, p.p90, p.p99, p.lateP99, p.backlog))
	// The paced phase issues a fixed number of ops, so the heap is read at
	// the same point of the op stream on every commit; after the sat phase
	// it would grow with the throughput.
	r.metrics["live_heap_mb"] = liveHeapMB()

	s := sys.sat(dur, nil)
	r.absorb(s.attempted, s.failed, append(s.problems, sys.check()...))
	r.metrics["sat_ops_per_s"] = s.opsPerSecond()
	r.metrics["downlink_bytes_per_op"] = s.downlinkBytesPerOp()
	r.notes = append(r.notes, fmt.Sprintf("sat: %d ops in %v, %d windows", s.attempted, dur, len(s.rates)))
	return r, nil
}

// runTraced produces the per-layer rows: a traced paced phase, an untraced
// and a traced sat phase whose difference is the tracing overhead, and the
// recorded op stream replayed through each layer in isolation.
func runTraced(w workload, seed uint64, seconds int, outDir string) (*result, error) {
	r := &result{metrics: make(map[string]float64)}
	for _, d := range perLayer {
		r.metrics[d.name] = 0
	}
	sys, err := setup(w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	tr := newTracer(w.spanEvery)
	dur := split(seconds, 3)

	p := sys.paced(dur, tr)
	r.absorb(p.attempted, p.failed, append(p.problems, sys.check()...))
	m := r.metrics
	m["loadgen.late_p90_us"] = p.lateP90
	m["loadgen.late_p99_us"] = p.lateP99
	m["loadgen.paced_p90_us"] = p.p90
	m["loadgen.paced_p99_us"] = p.p99
	m["loadgen.paced_max_us"] = p.max
	m["loadgen.paced_backlog_ops"] = float64(p.backlog)
	if why := invalidPaced(w, p); why != "" {
		m["loadgen.paced_invalid"] = 1
		r.notes = append(r.notes, "paced phase invalid: "+why)
	}

	plain := sys.sat(dur, nil)
	r.absorb(plain.attempted, plain.failed, append(plain.problems, sys.check()...))
	var before serverCounters
	tcp, isTCP := sys.(*tcpSystem)
	if isTCP {
		before = tcp.counters()
	}
	traced := sys.sat(dur, tr)
	r.absorb(traced.attempted, traced.failed, append(traced.problems, sys.check()...))
	rate := plain.opsPerSecond()
	if rate > 0 {
		m["loadgen.trace_overhead_frac"] = 1 - traced.opsPerSecond()/rate
	}
	spans := tr.stats()
	m["loadgen.gen_ns_per_op"] = spans[spanGen].meanNs

	if w.kind == kindSim {
		simLayers(sys.(*simSystem), m)
	} else {
		layers, problems := isolatedLayers(w.stream, seed, replayOps)
		r.problems = append(r.problems, problems...)
		for k, v := range layers {
			m[k] = v
		}
		if !w.cluster && w.kind == kindEngine && rate > 0 {
			m["core.sharded.parallel_speedup"] = rate * m["core.sharded.ns_per_op"] / 1e9
		}
	}
	if isTCP {
		remoteLayers(tcp.counters(), before, traced, spans, tr, rate, m)
	}
	if r.attempted > 0 {
		m["loadgen.failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	path, err := tr.write(outDir, w.name, seed)
	if err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("spans: 1 op in %d sampled, written to %s", tr.every, path))
	r.notes = append(r.notes, fmt.Sprintf("sat: untraced %.0f ops/s, traced %.0f ops/s", rate, traced.opsPerSecond()))
	return r, nil
}

// invalidPaced says why a paced phase does not measure the system: one op in
// ten was issued late by more than a fifth of the median latency reported
// (TCP, where the pacer and the server share the cores), or more than one op
// in a hundred was still outstanding when the phase's time was up.
func invalidPaced(w workload, p pacedResult) string {
	if w.kind == kindTCP && p.lateP90 > 0.2*p.p50 {
		return fmt.Sprintf("generator late p90 %.1f us exceeds 20%% of paced p50 %.1f us", p.lateP90, p.p50)
	}
	if p.backlog*100 > p.samples {
		return fmt.Sprintf("backlog of %d ops at the end of %d", p.backlog, p.samples)
	}
	return ""
}

// remoteLayers fills the transport's rows from the traced sat phase: the
// client's spans, the server's always-on counters read through Metrics(),
// and what is left of the per-op wall time once every isolated layer on the
// path is subtracted.
func remoteLayers(after, before serverCounters, traced satResult, spans [numSpanNames]spanStats, tr *tracer, rate float64, m map[string]float64) {
	ops := float64(traced.attempted - traced.failed)
	if ops <= 0 {
		return
	}
	m["remote.frames_in_per_op"] = float64(after.framesIn-before.framesIn) / ops
	m["remote.frames_out_per_op"] = float64(after.framesOut-before.framesOut) / ops
	m["remote.bytes_out_per_op"] = float64(after.bytesOut-before.bytesOut) / ops
	m["remote.decode_errors"] = float64(after.decodeErrors)
	if n := after.dispatchCount - before.dispatchCount; n > 0 {
		m["remote.dispatch_ns_per_op"] = (after.dispatchSeconds - before.dispatchSeconds) * 1e9 / float64(n)
	}
	if n := spans[spanOp].count; n > 0 {
		// An op's share of the writes: its own frame and every
		// fenceEvery-th op's Ping and flush.
		m["remote.client_write_ns_per_op"] = spans[spanWrite].meanNs * float64(spans[spanWrite].count) / float64(n)
	}
	var waits []float32
	for _, l := range tr.lanes {
		for _, s := range l.spans {
			if s.name == spanPongWait {
				waits = append(waits, float32(s.end-s.start)/1e3)
			}
		}
	}
	m["remote.pong_wait_p50_us"] = percentile(waits, 0.5)
	if rate > 0 {
		attributed := m["remote.frame_read_ns"] + m["wire.up_decode_ns"] + m["core.sharded.ns_per_op"] +
			m["core.server.downlinks_per_op"]*m["wire.down_encode_ns"] +
			m["remote.frames_out_per_op"]*m["remote.frame_write_ns"]
		m["remote.unattributed_ns_per_op"] = 1e9/rate - attributed
	}
}

// simLayers fills the object-side rows from the Metrics the engine returned
// over every step since set-up.
func simLayers(s *simSystem, m map[string]float64) {
	steps := float64(s.last.Steps - s.base.Steps)
	if steps <= 0 {
		return
	}
	objSteps := steps * simObjects
	evals := float64(s.last.Evals - s.base.Evals)
	skipped := float64(s.last.Skipped - s.base.Skipped)
	m["core.client.eval_ns_per_objstep"] = float64(s.last.ClientNanos-s.base.ClientNanos) / objSteps
	m["core.client.evals_per_objstep"] = evals / objSteps
	if evals+skipped > 0 {
		m["core.client.safe_skip_frac"] = skipped / (evals + skipped)
	}
	m["core.client.avg_lqt"] = s.last.AvgLQTSize
	m["sim.server_ns_per_step"] = float64(s.last.ServerNanos-s.base.ServerNanos) / steps
	m["sim.uplinks_per_objstep"] = float64(s.upMsgs) / objSteps
	m["sim.downlink_msgs_per_objstep"] = float64(s.downMsgs) / objSteps
	m["sim.step_p50_ms"] = percentile(s.stepMs, 0.5)
	m["sim.step_p90_ms"] = percentile(s.stepMs, 0.9)
	coverLayer(s, m)
}
