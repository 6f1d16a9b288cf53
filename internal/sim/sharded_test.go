package sim

import (
	"testing"

	"mobieyes/internal/core"
)

// TestShardedEngineEquivalentResults is the acceptance check for
// ServerShards: a fixed-seed workload driven through a serial engine and an
// engine over the 4-node router (concurrent uplink drain) produces the same
// installed queries with identical Result and ResultSize at every step,
// both stay exact against brute-force ground truth (EQP, Δ = 0), and the
// router ends with cross-node handoffs behind it and its invariants intact.
func TestShardedEngineEquivalentResults(t *testing.T) {
	serialCfg := smallConfig()
	serialCfg.Core = core.Options{}
	shardedCfg := smallConfig()
	shardedCfg.Core = core.Options{}
	shardedCfg.ServerShards = 4

	serial := NewEngine(serialCfg)
	sharded := NewEngine(shardedCfg)
	for step := 0; step < 12; step++ {
		serial.Step()
		sharded.Step()
		if err := serial.VerifyExact(); err != nil {
			t.Fatalf("serial step %d: %v", step, err)
		}
		if err := sharded.VerifyExact(); err != nil {
			t.Fatalf("sharded step %d: %v", step, err)
		}

		a, b := serial.Server().QueryIDs(), sharded.Server().QueryIDs()
		if len(a) != len(b) {
			t.Fatalf("step %d: %d vs %d queries", step, len(a), len(b))
		}
		for i, qid := range a {
			if b[i] != qid {
				t.Fatalf("step %d: query ID mismatch %d vs %d", step, qid, b[i])
			}
			ra, rb := serial.Server().Result(qid), sharded.Server().Result(qid)
			if len(ra) != len(rb) {
				t.Fatalf("step %d query %d: ResultSize %d vs %d", step, qid, len(ra), len(rb))
			}
			for j := range ra {
				if ra[j] != rb[j] {
					t.Fatalf("step %d query %d: result %v vs %v", step, qid, ra, rb)
				}
			}
			if serial.Server().ResultSize(qid) != sharded.Server().ResultSize(qid) {
				t.Fatalf("step %d query %d: ResultSize disagrees with Result", step, qid)
			}
		}
	}
	cs, ok := sharded.Server().(*core.ClusterServer)
	if !ok {
		t.Fatal("ServerShards=4 engine did not build the router")
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("router invariants: %v", err)
	}
	if cs.NumNodes() != 4 || cs.Migrations() == 0 {
		t.Errorf("%d nodes, %d handoffs — the concurrent drain never crossed a span boundary", cs.NumNodes(), cs.Migrations())
	}
}

// TestShardedEngineExactnessAllOptions: the concurrent drain stays exact
// under the optimized protocol variants too.
func TestShardedEngineExactnessAllOptions(t *testing.T) {
	for _, opts := range []core.Options{
		{SafePeriod: true},
		{Grouping: true},
		{SafePeriod: true, Grouping: true, Predictive: true},
	} {
		cfg := smallConfig()
		cfg.Core = opts
		cfg.ServerShards = 4
		cfg.Parallelism = 4 // concurrent client phases + concurrent drain
		e := NewEngine(cfg)
		for step := 0; step < 8; step++ {
			e.Step()
			if err := e.VerifyExact(); err != nil {
				t.Fatalf("opts %+v, step %d: %v", opts, step, err)
			}
		}
	}
}

// TestShardedEngineRunMetrics: the metrics pipeline (meter, ops counter,
// energy model) works over the router backend.
func TestShardedEngineRunMetrics(t *testing.T) {
	cfg := smallConfig()
	cfg.ServerShards = 2
	m := NewEngine(cfg).Run()
	if m.UplinkMsgs == 0 || m.DownlinkMsgs == 0 {
		t.Errorf("no traffic in a dynamic sharded run: %+v", m)
	}
	if m.ServerOps == 0 {
		t.Error("sharded server ops not counted")
	}
}
