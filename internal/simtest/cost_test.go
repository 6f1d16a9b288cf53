package simtest

import (
	"math/rand"
	"testing"

	"mobieyes/internal/core"
)

// TestLedgerOracleEQP runs seeded random schedules — steps, installs,
// removals, churn — under the ledger oracle: the serial and 4-node router
// engines must charge identical global cost ledgers after every operation,
// and the router's node+router ledgers must always sum to its global
// uplink count.
func TestLedgerOracleEQP(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := Generate(rng, GenConfig{Ops: 30, NumSpecs: 6, AllowExpiry: true, AllowChurn: true})
		err := RunScenario(Scenario{
			Name:       "ledger-eqp",
			Seed:       seed,
			NumObjects: 30,
			NumSpecs:   6,
			Costs:      true,
			Ops:        ops,
		})
		if err != nil {
			t.Errorf("seed %d: %v\nschedule:\n%s", seed, err, FormatSchedule(ops))
		}
	}
}

// TestLedgerOracleVariants runs the ledger oracle across protocol
// variants: attribution must stay implementation-independent under lazy
// propagation, dead reckoning, safe periods, and grouping too.
func TestLedgerOracleVariants(t *testing.T) {
	for _, opts := range []core.Options{
		{Mode: core.LazyPropagation},
		{DeadReckoningThreshold: 0.3},
		{SafePeriod: true, Grouping: true},
		{Predictive: true},
	} {
		rng := rand.New(rand.NewSource(7))
		ops := Generate(rng, GenConfig{Ops: 24, NumSpecs: 5, AllowChurn: true})
		err := RunScenario(Scenario{
			Name:       "ledger-variant",
			Seed:       7,
			NumObjects: 25,
			NumSpecs:   5,
			Opts:       opts,
			Costs:      true,
			Ops:        ops,
		})
		if err != nil {
			t.Errorf("opts %+v: %v", opts, err)
		}
	}
}

// TestLedgerOracleCatchesDrop proves the ledger oracle has teeth: an
// engine that silently loses broadcasts cannot produce the same ledger, so
// the scenario must fail even before (or independently of) the result
// oracle.
func TestLedgerOracleCatchesDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := Generate(rng, GenConfig{Ops: 24, NumSpecs: 5})
	err := RunScenario(Scenario{
		Name:             "ledger-drop",
		Seed:             3,
		NumObjects:       25,
		NumSpecs:         5,
		DropNthBroadcast: 5,
		Costs:            true,
		Ops:              ops,
	})
	if err == nil {
		t.Fatal("dropped broadcasts went undetected with the ledger oracle on")
	}
}
