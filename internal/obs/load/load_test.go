package load

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"mobieyes/internal/obs"
)

// shortCfg is a run small enough for -race CI but long enough to produce
// several intervals and a few thousand ops.
func shortCfg(backend string) Config {
	return Config{
		Backend:  backend,
		Rate:     2000,
		Duration: 400 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Interval: 100 * time.Millisecond,
		Objects:  200,
		Queries:  10,
		Workers:  4,
		Seed:     7,
	}
}

// TestRunSmokeAllBackends drives every backend with a short open-loop run
// and checks the report is well-formed: nonzero completed throughput,
// monotone quantiles, a time series, and a clean JSON round trip.
func TestRunSmokeAllBackends(t *testing.T) {
	for _, backend := range []string{"serial", "sharded", "cluster", "tcp"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(shortCfg(backend))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Backend != backend {
				t.Fatalf("backend = %q, want %q", rep.Backend, backend)
			}
			if rep.Sustained <= 0 {
				t.Fatalf("sustained throughput = %v, want > 0", rep.Sustained)
			}
			if rep.Summary.Count == 0 {
				t.Fatal("no measured ops")
			}
			if len(rep.Intervals) == 0 {
				t.Fatal("no interval samples")
			}
			s := rep.Summary
			if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999) {
				t.Fatalf("non-monotone quantiles: %+v", s)
			}
			if s.Max < s.P50 {
				t.Fatalf("max %v below p50 %v", s.Max, s.P50)
			}
			if rep.Delivered == 0 {
				t.Fatal("backend delivered no downlinks")
			}
			var buf bytes.Buffer
			if err := (&File{Runs: []*Report{rep}}).WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var f File
			if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
				t.Fatalf("report does not round-trip: %v", err)
			}
			if len(f.Runs) != 1 || f.Runs[0].Summary.Count != rep.Summary.Count {
				t.Fatal("report JSON round trip lost data")
			}
		})
	}
}

// TestRunOpenLoopIsScheduleBound checks the open-loop property: the number
// of issued ops is bound by the arrival schedule (rate × wall time), not by
// backend speed — a fast backend must not issue more than scheduled.
func TestRunOpenLoopIsSchedule(t *testing.T) {
	cfg := shortCfg("serial")
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Rate * (cfg.Warmup + cfg.Duration).Seconds()
	last := rep.Intervals[len(rep.Intervals)-1]
	// Workers over-claim at most one schedule slot each at shutdown.
	if float64(last.Issued) > want+float64(cfg.Workers)+1 {
		t.Fatalf("issued %d ops, schedule allows ~%.0f", last.Issued, want)
	}
	if float64(last.Done) < want*0.5 {
		t.Fatalf("completed %d of ~%.0f scheduled ops", last.Done, want)
	}
}

// TestRunTracedStageDecomposition checks the tentpole invariant end to end:
// on a traced run, the per-stage spans telescope — the total time attributed
// to dispatch+table+fanout+deliver equals the total end-to-end time (the
// decomposition is exact per trace, so it is exact in aggregate too).
func TestRunTracedStageDecomposition(t *testing.T) {
	cfg := shortCfg("serial")
	cfg.Trace = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages == nil {
		t.Fatal("traced run produced no stage decomposition")
	}
	st := rep.Stages
	if st.Traces == 0 {
		t.Fatal("no traces folded in")
	}
	if st.E2E.Count == 0 {
		t.Fatal("no end-to-end observations")
	}
	var stageSum float64
	for _, s := range st.Stages {
		stageSum += s.Mean * float64(s.Count)
	}
	e2eSum := st.E2E.Mean * float64(st.E2E.Count)
	if e2eSum <= 0 {
		t.Fatalf("e2e sum = %v", e2eSum)
	}
	if rel := math.Abs(stageSum-e2eSum) / e2eSum; rel > 0.01 {
		t.Fatalf("stage sums diverge from e2e: Σstages=%v e2e=%v rel=%v",
			stageSum, e2eSum, rel)
	}
	// The sum of stage p50s is only an approximation of the e2e p50 (medians
	// do not add), but for this unimodal workload it must land in the same
	// ballpark — the consistency check the ISSUE asks for.
	var p50Sum float64
	for _, s := range st.Stages {
		if s.Count > 0 {
			p50Sum += s.P50
		}
	}
	if p50Sum > 4*st.E2E.P99 {
		t.Fatalf("Σ stage p50s %v wildly above e2e p99 %v", p50Sum, st.E2E.P99)
	}
}

// TestRunQueueDepthGaugesQuiesce checks satellite 3: the router's in-flight
// gauge reads zero once a run has quiesced, over either node rendering —
// nothing leaks a depth increment.
func TestRunQueueDepthGaugesQuiesce(t *testing.T) {
	for _, backend := range []string{"sharded", "cluster"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			reg := obs.NewRegistry()
			cfg := shortCfg(backend)
			cfg.Registry = reg
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			last := rep.Intervals[len(rep.Intervals)-1]
			if last.Depth != 0 {
				t.Fatalf("backend depth %d after quiesce, want 0", last.Depth)
			}
			found := false
			for name, v := range reg.Snapshot() {
				if !strings.HasPrefix(name, "mobieyes_cluster_inflight_ops") {
					continue
				}
				found = true
				if g, ok := v.(float64); !ok || g != 0 {
					t.Errorf("%s = %v at quiescence, want 0", name, v)
				}
			}
			if !found {
				t.Fatal("no queue-depth gauges registered")
			}
		})
	}
}

// TestRunRejectsUnknownBackend pins the config validation error path.
func TestRunRejectsUnknownBackend(t *testing.T) {
	if _, err := Run(Config{Backend: "warp"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestWorkloadDeterminism: the op stream is a pure function of
// (seed, object, sequence) — two workloads replay identical messages.
func TestWorkloadDeterminism(t *testing.T) {
	a := NewWorkload(100, 5, 42)
	b := NewWorkload(100, 5, 42)
	for i := uint64(0); i < 1000; i++ {
		if ma, mb := a.Op(i), b.Op(i); ma != mb {
			t.Fatalf("op %d diverged: %#v vs %#v", i, ma, mb)
		}
	}
	c := NewWorkload(100, 5, 43)
	same := 0
	for i := uint64(0); i < 100; i++ {
		if a.Op(1000+i) == c.Op(i) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical streams")
	}
}
