package sim

import (
	"strings"
	"sync"
	"testing"

	"mobieyes/internal/obs"
)

// TestInstrumentedSerialDeterminism: attaching a registry must not change
// the serial engine's behavior in any observable way — same results and the
// same deterministic operation count at every step.
func TestInstrumentedSerialDeterminism(t *testing.T) {
	plainCfg := smallConfig()
	instrCfg := smallConfig()
	instrCfg.Metrics = obs.NewRegistry()

	plain := NewEngine(plainCfg)
	instr := NewEngine(instrCfg)
	for step := 0; step < 10; step++ {
		plain.Step()
		instr.Step()
		if a, b := plain.Server().Ops(), instr.Server().Ops(); a != b {
			t.Fatalf("step %d: ops diverged, %d vs %d", step, a, b)
		}
		for _, qid := range plain.Server().QueryIDs() {
			ra, rb := plain.Server().Result(qid), instr.Server().Result(qid)
			if len(ra) != len(rb) {
				t.Fatalf("step %d query %d: results diverged", step, qid)
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("step %d query %d: results diverged", step, qid)
				}
			}
		}
	}

	snap := instrCfg.Metrics.Snapshot()
	if got := snap[metricSteps]; got != int64(10) {
		t.Errorf("steps counter = %v, want 10", got)
	}
	if h, ok := snap[metricStepSecs].(map[string]any); !ok || h["count"] != int64(10) {
		t.Errorf("step latency histogram = %v, want count 10", snap[metricStepSecs])
	}
	if h, ok := snap[metricDrainBatch].(map[string]any); !ok || h["count"].(int64) == 0 {
		t.Errorf("drain batch histogram = %v, want observations", snap[metricDrainBatch])
	}
	if got := snap["mobieyes_server_ops_total"]; got != plain.Server().Ops() {
		t.Errorf("registry ops = %v, server ops = %d", got, plain.Server().Ops())
	}
	// Every drained uplink is timed exactly once, under its kind.
	var timed int64
	for key, v := range snap {
		if strings.HasPrefix(key, metricUplinkSecs+"{") {
			timed += v.(map[string]any)["count"].(int64)
		}
	}
	drained, _ := snap[metricDrainBatch].(map[string]any)
	if timed == 0 || float64(timed) != drained["sum"] {
		t.Errorf("uplinks timed = %d, drained = %v", timed, drained["sum"])
	}
}

// TestScrapeWhileSerialEngineRuns keeps a live /metrics-style scrape loop
// running while the engine steps — the cmd/experiments -metrics-addr
// wiring. Under -race this pins that serial instrumentation is
// scrape-safe: the table gauges are atomics the engine goroutine refreshes,
// never scrape-time reads of the server's own tables.
func TestScrapeWhileSerialEngineRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Metrics = obs.NewRegistry()
	e := NewEngine(cfg)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var b strings.Builder
		for {
			select {
			case <-done:
				return
			default:
			}
			b.Reset()
			if err := cfg.Metrics.WritePrometheus(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			cfg.Metrics.Snapshot()
		}
	}()
	for step := 0; step < 10; step++ {
		e.Step()
	}
	close(done)
	wg.Wait()

	// With the engine idle, the gauges reflect the server's real table sizes.
	snap := cfg.Metrics.Snapshot()
	if got := snap["mobieyes_server_sqt_size"]; got != float64(e.Server().NumQueries()) {
		t.Errorf("sqt_size gauge = %v, server has %d queries", got, e.Server().NumQueries())
	}
	for _, key := range []string{
		"mobieyes_server_fot_size", "mobieyes_server_rqi_entries", "mobieyes_server_pending_installs",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("snapshot missing serial table gauge %s", key)
		}
	}
}
