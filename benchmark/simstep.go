package main

import (
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/sim"
)

// simWarmup steps run during set-up so that LQTs and safe periods are in
// their steady state when the phases start.
const simWarmup = 5

// verifySlack is the idle time a paced step must leave before the next one
// is due for the benchmark to spend part of it on VerifyExact (≈1 ms).
const verifySlack = 4 * time.Millisecond

// simSystem is the paper's simulated system: Table 1's population stepped by
// sim.Engine, the only workload that runs the object side of the protocol.
type simSystem struct {
	w workload
	e *sim.Engine

	// base and last are the Metrics of the last warm-up step and of the
	// latest step; their cumulative fields differ by what the phases did.
	// The engine resets its message meter on every Run, so messages and
	// bytes are summed here.
	base, last                  sim.Metrics
	upMsgs, downMsgs, downBytes int64
	inexact                     int64 // steps after which VerifyExact failed
	problems                    []string
	stepMs                      []float32 // every sat-phase step
}

func setupSim(w workload, seed uint64) *simSystem {
	cfg := sim.DefaultConfig()
	cfg.Seed = int64(seed)
	// Table 1 with a dead-reckoning threshold of 0, as in the repo's own
	// full-scale exactness test: with the default 0.01 a result may lag the
	// ground truth by an object for a step (seeds 2, 5, 6 and 8 showed it),
	// and the workload must be one on which VerifyExact always holds.
	cfg.Core = core.Options{}
	// Run() is the engine's only call that returns its Metrics; with no
	// warm-up and one step it is "Step, then report".
	cfg.Warmup, cfg.Steps = 0, 1
	s := &simSystem{w: w, e: sim.NewEngine(cfg)}
	for i := 0; i < simWarmup; i++ {
		s.base = s.e.Run()
	}
	s.last = s.base
	return s
}

// step advances the simulation by one step: 10,000 object-steps.
func (s *simSystem) step(ln *lane) time.Duration {
	sp := ln.begin(spanStep)
	t0 := time.Now()
	m := s.e.Run()
	d := time.Since(t0)
	ln.end(sp)
	s.upMsgs += m.UplinkMsgs
	s.downMsgs += m.DownlinkMsgs
	s.downBytes += m.DownlinkBytes
	s.last = m
	return d
}

// verify compares every query result with ground truth.
func (s *simSystem) verify() {
	if err := s.e.VerifyExact(); err != nil {
		s.inexact++
		if len(s.problems) < 5 {
			s.problems = append(s.problems, "VerifyExact: "+err.Error())
		}
	}
}

// sat steps back-to-back for dur and verifies the results at the end. Every
// step is timed, so the steps themselves are the phase's windows.
func (s *simSystem) sat(dur time.Duration, tr *tracer) satResult {
	var r satResult
	ln := tr.lane()
	var steps int64
	bytes0, inexact0 := s.downBytes, s.inexact
	start := time.Now()
	for {
		d := s.step(ln)
		el := time.Since(start)
		steps++
		s.stepMs = append(s.stepMs, micros(d)/1e3)
		r.rates = append(r.rates, simObjects/d.Seconds())
		if el >= dur {
			break
		}
	}
	s.verify()
	r.attempted = steps * simObjects
	r.failed = (s.inexact - inexact0) * simObjects
	r.downBytes = s.downBytes - bytes0
	return r
}

// check hands over the problems found since the last call.
func (s *simSystem) check() []string {
	p := s.problems
	s.problems = nil
	return p
}

func (s *simSystem) close() {}

// paced steps on a fixed schedule — a real-time simulation's tick — and
// times each step from its due time. Steps that leave enough idle time are
// verified in it.
func (s *simSystem) paced(dur time.Duration, tr *tracer) pacedResult {
	log := newPacedLog(dur)
	ln := tr.lane()
	rate := s.w.pacedRate / simObjects // steps per second
	period := time.Duration(1e9 / rate)
	inexact0 := s.inexact
	var r pacedResult
	start := time.Now()
	late := runPaced(start, rate, dur, func(int) {}, func(i int, due time.Duration) {
		s.step(ln)
		done := time.Since(start)
		log.record(due, done)
		r.attempted += simObjects
		if due+period-done > verifySlack {
			s.verify()
		}
	})
	s.verify()
	r.failed = (s.inexact - inexact0) * simObjects
	r.pacedSummary = log.summary(late)
	return r
}
