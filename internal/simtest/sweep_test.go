package simtest

import (
	"fmt"
	"math/rand"
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/workload"
)

// variants are the protocol configurations the sweeps rotate through.
// The zero Options value (eager, Δ=0, no skipping) is the exact variant
// the ground-truth oracle applies to.
var variants = []core.Options{
	{},
	{Grouping: true},
	{Mode: core.LazyPropagation},
	{DeadReckoningThreshold: 0.5},
	{Mode: core.LazyPropagation, DeadReckoningThreshold: 0.5, Grouping: true},
	{SafePeriod: true},
	{Predictive: true, Grouping: true},
}

var mobilities = []workload.MobilityModel{
	workload.RandomWalk, workload.RandomWaypoint, workload.GaussMarkov,
}

// localScenario builds a fault-free serial-vs-router scenario for a seed.
func localScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Seed:       seed,
		NumObjects: 36 + rng.Intn(20),
		NumSpecs:   12,
		Opts:       variants[int(seed)%len(variants)],
		Mobility:   mobilities[int(seed)%len(mobilities)],
		Nodes:      2 + rng.Intn(6),
	}
	sc.Ops = Generate(rng, GenConfig{
		Ops:         16 + rng.Intn(10),
		NumSpecs:    sc.NumSpecs,
		AllowExpiry: true,
		AllowChurn:  true,
	})
	return sc
}

// TestLockstepSweep drives the serial and router engines through seeded
// random schedules — installs, removals, expiries, churn and mobility —
// asserting the full oracle hierarchy after every operation.
func TestLockstepSweep(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sc := localScenario(seed)
		t.Run(fmt.Sprintf("seed=%d/%s", seed, sc.Opts.Mode), func(t *testing.T) {
			t.Parallel()
			if err := RunScenario(sc); err != nil {
				t.Fatalf("oracle violation: %v\nrepro:\n%s", err, ReproCase(sc))
			}
		})
	}
}

// remoteScenario builds a fault-free three-engine scenario: serial,
// router, and the remote server over in-memory pipes. No expiry ops (the
// remote expiry sweep runs on the wall clock, not simulation time).
func remoteScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Seed:       seed,
		NumObjects: 24 + rng.Intn(12),
		NumSpecs:   10,
		Opts:       variants[int(seed)%len(variants)],
		Mobility:   mobilities[int(seed)%len(mobilities)],
		Nodes:      2 + rng.Intn(4),
		Remote:     true,
	}
	sc.Ops = Generate(rng, GenConfig{
		Ops:        12 + rng.Intn(8),
		NumSpecs:   sc.NumSpecs,
		AllowChurn: true,
	})
	return sc
}

// TestRemoteLockstepSweep adds the network server as the third engine:
// same schedules, same oracles, with quiescence established by the
// Ping/Pong barrier instead of synchronous delivery.
func TestRemoteLockstepSweep(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(101); seed < int64(101+seeds); seed++ {
		sc := remoteScenario(seed)
		t.Run(fmt.Sprintf("seed=%d/%s", sc.Seed, sc.Opts.Mode), func(t *testing.T) {
			t.Parallel()
			if err := RunScenario(sc); err != nil {
				t.Fatalf("oracle violation: %v\nrepro:\n%s", err, ReproCase(sc))
			}
		})
	}
}

// TestScheduleRoundTrip checks the replayable text form.
func TestScheduleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := Generate(rng, GenConfig{Ops: 40, NumSpecs: 9, AllowExpiry: true, AllowChurn: true})
	parsed, err := ParseSchedule(FormatSchedule(ops))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(parsed) != len(ops) {
		t.Fatalf("round trip changed length: %d != %d", len(parsed), len(ops))
	}
	for i := range ops {
		if parsed[i] != ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, parsed[i], ops[i])
		}
	}
	if _, err := ParseSchedule("step\nbogus 3\n"); err == nil {
		t.Fatal("expected error for unknown op")
	}
}
