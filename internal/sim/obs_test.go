package sim

import (
	"strings"
	"sync"
	"testing"

	"mobieyes/internal/core"
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
}

// TestScrapeWhileSerialEngineRuns keeps a live /metrics-style scrape loop
// running while the serial (unsharded) engine steps — the cmd/experiments
// -metrics-addr wiring with -shards 0. Under -race this pins that serial
// instrumentation is scrape-safe: the table gauges are atomics the engine
// goroutine refreshes, never scrape-time reads of the server's own tables.
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

// TestInstrumentedShardedEquivalence re-runs the serial-vs-router
// equivalence acceptance check with both engines instrumented, and checks
// the router's registry carries per-node series.
func TestInstrumentedShardedEquivalence(t *testing.T) {
	serialCfg := smallConfig()
	serialCfg.Core = core.Options{}
	serialCfg.Metrics = obs.NewRegistry()
	shardedCfg := smallConfig()
	shardedCfg.Core = core.Options{}
	shardedCfg.ServerShards = 4
	shardedCfg.Metrics = obs.NewRegistry()

	serial := NewEngine(serialCfg)
	sharded := NewEngine(shardedCfg)
	for step := 0; step < 10; step++ {
		serial.Step()
		sharded.Step()
		if err := sharded.VerifyExact(); err != nil {
			t.Fatalf("sharded step %d: %v", step, err)
		}
		for _, qid := range serial.Server().QueryIDs() {
			ra, rb := serial.Server().Result(qid), sharded.Server().Result(qid)
			if len(ra) != len(rb) {
				t.Fatalf("step %d query %d: %v vs %v", step, qid, ra, rb)
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("step %d query %d: %v vs %v", step, qid, ra, rb)
				}
			}
		}
	}

	var text strings.Builder
	shardedCfg.Metrics.WritePrometheus(&text)
	expo := text.String()
	for _, want := range []string{
		`mobieyes_server_ops_total{node="0"}`,
		`mobieyes_server_ops_total{node="router"}`,
		`mobieyes_server_fot_size{node="3"}`,
		"mobieyes_server_migrations_total",
		"mobieyes_sim_steps_total 10",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("sharded exposition missing %s", want)
		}
	}

	// The per-node breakdown accessors agree with the registry's totals.
	cs := sharded.Server().(*core.ClusterServer)
	var uplinks int64
	for _, v := range cs.UplinksByNode() {
		uplinks += v
	}
	if uplinks == 0 {
		t.Error("no per-node uplinks recorded")
	}
}
