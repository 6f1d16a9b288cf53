package simtest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/workload"
)

// clusterScenario builds a differential scenario — the serial server and
// the router over worker nodes in lockstep under the full oracle
// hierarchy, cost ledgers included. Every third seed additionally injects
// node-level faults into the router: a mid-schedule rebalance and a node
// kill. Both are drained through charge-free admin handoffs, so the strict
// oracles (byte-identical snapshots and ledgers) must keep holding across
// them — there is no weakened window for cluster events.
func clusterScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	numObjects := 30 + rng.Intn(16)
	rng.Intn(4) // unused draw, kept so each seed runs the schedule it always has
	sc := Scenario{
		Seed:       seed,
		NumObjects: numObjects,
		NumSpecs:   10,
		Opts:       variants[int(seed)%len(variants)],
		Mobility:   mobilities[int(seed)%len(mobilities)],
		Nodes:      2 + rng.Intn(3),
		Costs:      true,
	}
	sc.Ops = Generate(rng, GenConfig{
		Ops:         14 + rng.Intn(8),
		NumSpecs:    sc.NumSpecs,
		AllowExpiry: true,
		AllowChurn:  true,
	})
	if seed%3 == 0 {
		n := len(sc.Ops)
		sc.ClusterEvents = []ClusterEvent{
			{AtOp: n / 3, Kind: ClusterRebalance},
			{AtOp: 2 * n / 3, Node: int(seed) % sc.Nodes, Kind: ClusterKill},
		}
	}
	return sc
}

// TestClusterLockstepSweep is the router's differential acceptance sweep:
// serial vs router through seeded random schedules, asserting after every
// operation that query sets, per-query results, ground truth (for exact
// variants), cost ledgers and durable snapshots are identical — including
// the seeds that kill a node and rebalance cell ranges mid-schedule. Every
// seed runs twice, same schedule and node count: over the router
// core.NewClusterServer builds ("nodes") and over the one
// core.NewShardedServer builds ("shards"), so both constructors sit under
// the same oracle.
func TestClusterLockstepSweep(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		nodes := clusterScenario(seed)
		shards := nodes
		shards.sharded = true
		for _, tc := range []struct {
			rendering string
			sc        Scenario
		}{{"nodes", nodes}, {"shards", shards}} {
			sc := tc.sc
			t.Run(fmt.Sprintf("seed=%d/%s/%s=%d", seed, sc.Opts.Mode, tc.rendering, sc.Nodes), func(t *testing.T) {
				t.Parallel()
				if err := RunScenario(sc); err != nil {
					t.Fatalf("oracle violation: %v\nrepro:\n%s", err, ReproCase(sc))
				}
			})
		}
	}
}

// TestClusterColumnExercisesHandoffs pins that the sweep's schedules are
// not vacuous: a router engine run through a representative schedule must
// perform cross-node focal handoffs and spread focals over several nodes —
// otherwise the differential oracle never tests the transfer path.
func TestClusterColumnExercisesHandoffs(t *testing.T) {
	sc := Scenario{Seed: 2, NumObjects: 40, NumSpecs: 10}
	wl := workload.New(sc.workloadConfig())
	g := grid.New(wl.Config().UoD, alphaMiles)
	ls := newLocalSystem("router", g, core.Options{}, wl.Objects, 3, 0, false)
	tstep := model.FromSeconds(wl.Config().StepSeconds)
	var now model.Time
	for _, o := range wl.Objects {
		if err := ls.join(o, now); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range wl.Queries {
		if _, err := ls.install(spec, wl.Objects[int(spec.Focal)-1].MaxVel, now); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 30; step++ {
		now += tstep
		wl.Step()
		if err := ls.step(now); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	cs := ls.srv.(*core.ClusterServer)
	if cs.Migrations() == 0 {
		t.Error("schedule produced no cross-node handoffs — the sweep is weak")
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// TestClusterOracleCatchesDrop is the router column's teeth check: an
// engine whose router silently skips broadcasts must be caught by the
// differential oracle within a handful of seeds.
func TestClusterOracleCatchesDrop(t *testing.T) {
	caught := 0
	const seeds = 8
	for seed := int64(801); seed < 801+seeds; seed++ {
		sc := clusterScenario(seed)
		sc.ClusterEvents = nil // keep the failure shrinkable
		sc.DropNthBroadcast = 3
		if err := RunScenario(sc); err != nil {
			t.Logf("seed %d caught: %v", seed, err)
			caught++
		}
	}
	if caught < seeds/2 {
		t.Fatalf("cluster broadcast-skip bug caught in only %d/%d seeds; the oracle is too weak", caught, seeds)
	}
}

// TestClusterShrinkProducesRepro minimizes a failing journaled-router
// scenario with delta debugging and replays the printed repro.
func TestClusterShrinkProducesRepro(t *testing.T) {
	var failing Scenario
	found := false
	for seed := int64(801); seed < 821 && !found; seed++ {
		sc := clusterScenario(seed)
		sc.ClusterEvents = nil
		sc.DropNthBroadcast = 3
		if RunScenario(sc) != nil {
			failing, found = sc, true
		}
	}
	if !found {
		t.Fatal("no failing seed found for the planted cluster bug")
	}

	shrunk, err := Shrink(failing, 200)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if len(shrunk.Ops) > len(failing.Ops) {
		t.Fatalf("shrink grew the schedule: %d -> %d ops", len(failing.Ops), len(shrunk.Ops))
	}
	repro := ReproCase(shrunk)
	t.Logf("shrunk %d ops to %d:\n%s", len(failing.Ops), len(shrunk.Ops), repro)
	if RunScenario(shrunk) == nil {
		t.Fatal("shrunk scenario no longer fails")
	}
	body := repro[strings.Index(repro, "\n")+1:]
	ops, err := ParseSchedule(body)
	if err != nil {
		t.Fatalf("parse repro: %v", err)
	}
	replay := shrunk
	replay.Ops = ops
	if RunScenario(replay) == nil {
		t.Fatal("replayed repro case no longer fails")
	}
}

// TestShrinkRemapsClusterEvents pins the event-remapping contract ddmin
// relies on: removing ops [start,end) shifts later events down by the
// chunk length, events inside the chunk land on the removal point, and
// every event is clamped into the surviving schedule so it still fires.
// (TestCrashTeethShrinks exercises the full Shrink over an event-bearing
// failing scenario.)
func TestShrinkRemapsClusterEvents(t *testing.T) {
	evs := []ClusterEvent{
		{AtOp: 2, Node: 0, Kind: ClusterCrash},
		{AtOp: 5, Kind: ClusterRebalance},
		{AtOp: 9, Node: 1, Kind: ClusterCrash},
	}
	got := remapEvents(evs, 4, 7, 7) // 10 ops minus chunk [4,7) = 7 left
	want := []int{2, 4, 6}
	for i, ev := range got {
		if ev.AtOp != want[i] {
			t.Errorf("event %d remapped to op %d, want %d", i, ev.AtOp, want[i])
		}
		if ev.Kind != evs[i].Kind || ev.Node != evs[i].Node {
			t.Errorf("event %d lost its identity: %+v", i, ev)
		}
	}
	// Clamping: an event addressing a now-out-of-range op fires at the end
	// of the surviving schedule instead of never.
	tail := remapEvents([]ClusterEvent{{AtOp: 9, Kind: ClusterCrash}}, 0, 0, 3)
	if tail[0].AtOp != 2 {
		t.Errorf("out-of-range event clamped to %d, want 2", tail[0].AtOp)
	}
	// A fault plan still refuses to shrink.
	sc := clusterFaultScenario(901)
	if _, err := Shrink(sc, 10); err == nil {
		t.Fatal("expected an error shrinking a fault-plan scenario")
	}
}

// clusterFaultScenario puts the journaled router behind the remote
// transport and injects frame faults: the remote engine runs the router
// over journaled worker nodes while the relay drops, duplicates and
// reorders object frames, and severs two connections. Cross-node focal
// handoffs therefore happen while the uplink stream is degraded; after the
// window heals, the strict oracles must resume within ConvergeSteps — which
// IS the exactness-resumes guarantee for handoff under faults.
func clusterFaultScenario(seed int64) Scenario {
	sc := faultScenario(seed)
	rng := rand.New(rand.NewSource(seed * 31))
	sc.Nodes = 2 + rng.Intn(3)
	sc.Costs = false // the remote engine is unledgered; keep columns uniform
	return sc
}

// TestClusterHandoffUnderFrameFaults is the satellite sweep: focal handoff
// across worker nodes under injected frame drop/dup/reorder plus connection
// kills, with convergence-after-heal asserted by the strict oracle resuming
// at End+ConvergeSteps.
func TestClusterHandoffUnderFrameFaults(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(901); seed < int64(901+seeds); seed++ {
		sc := clusterFaultScenario(seed)
		t.Run(fmt.Sprintf("seed=%d/%s/nodes=%d", sc.Seed, sc.Opts.Mode, sc.Nodes), func(t *testing.T) {
			t.Parallel()
			if err := RunScenario(sc); err != nil {
				t.Fatalf("oracle violation: %v\nrepro:\n%s", err, ReproCase(sc))
			}
		})
	}
}
