package simtest

import (
	"fmt"
	"math/rand"
	"testing"
)

// faultVariants keeps the fault sweep on representative configurations;
// every variant still runs in the fault-free sweeps.
var faultVariants = []int{0, 2, 3, 4}

// faultScenario builds a three-engine scenario whose middle section runs
// under transport faults: frames dropped, duplicated and reordered, plus
// two connection kills. The window and its convergence margin contain only
// step ops (GenConfig.StepOnly).
func faultScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Seed:       seed,
		NumObjects: 22 + rng.Intn(10),
		NumSpecs:   10,
		Opts:       variants[faultVariants[int(seed)%len(faultVariants)]],
		Mobility:   mobilities[int(seed)%len(mobilities)],
		Nodes:      2 + rng.Intn(4),
		Remote:     true,
	}
	start, end := 6, 13
	sc.Ops = Generate(rng, GenConfig{
		Ops:          20 + rng.Intn(6),
		NumSpecs:     sc.NumSpecs,
		StepOnlyFrom: start,
		StepOnlyTo:   end + 2,
	})
	sc.Faults = &FaultPlan{
		Start: start,
		End:   end,
		Drop:  0.15,
		Dup:   0.10,
		Hold:  0.10,
		Kills: []Kill{
			{AtOp: start + 1, Obj: 1 + rng.Intn(sc.NumObjects)},
			{AtOp: start + 4, Obj: 1 + rng.Intn(sc.NumObjects)},
		},
		Seed: seed*77 + 1,
	}
	return sc
}

// TestFaultInjectionSweep runs the weakened-oracle scenarios: during the
// fault window only liveness (no deadlock — the barrier would time out)
// and server invariants are asserted; after the window closes and the
// clients resync, the strict differential and ground-truth oracles resume,
// which IS the reconvergence guarantee.
func TestFaultInjectionSweep(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(501); seed < int64(501+seeds); seed++ {
		sc := faultScenario(seed)
		t.Run(fmt.Sprintf("seed=%d/%s", sc.Seed, sc.Opts.Mode), func(t *testing.T) {
			t.Parallel()
			if err := RunScenario(sc); err != nil {
				t.Fatalf("oracle violation: %v\nrepro:\n%s", err, ReproCase(sc))
			}
		})
	}
}

// TestFaultWindowDropsEverything is the heavy-loss edge: every non-control
// frame in the window is dropped. The system must neither deadlock nor
// corrupt server state, and must still reconverge after resync.
func TestFaultWindowDropsEverything(t *testing.T) {
	sc := faultScenario(601)
	sc.Faults.Drop = 1.0
	sc.Faults.Dup = 0
	sc.Faults.Hold = 0
	if err := RunScenario(sc); err != nil {
		t.Fatalf("oracle violation: %v\nrepro:\n%s", err, ReproCase(sc))
	}
}
