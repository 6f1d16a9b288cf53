package simtest

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mobieyes/internal/core"
)

// crashScenario builds one crash-schedule differential run: the serial
// server and the journaled router in lockstep with the runner checkpointing
// the router after every op, plus a seeded ungraceful-kill pattern
// chosen by seed — a plain crash landing right after a step (the
// in-flight-uplink case), an armed mid-handoff crash, a double kill of two
// distinct nodes, or a crash at a rebalance edge. The strict oracles —
// byte-identical snapshots, ledger identity, ground truth for exact
// variants — must hold after every op, including the one the crash
// precedes: recovery replaying the zero-loss watermark IS the
// exactness-resumes guarantee.
func crashScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed * 7919))
	numObjects := 30 + rng.Intn(16)
	rng.Intn(3) // unused draw, kept so each seed runs the schedule it always has
	sc := Scenario{
		Name:       fmt.Sprintf("crash-%d", seed),
		Seed:       seed,
		NumObjects: numObjects,
		NumSpecs:   10,
		Opts:       variants[int(seed)%len(variants)],
		Mobility:   mobilities[int(seed)%len(mobilities)],
		// 3–4 nodes, so a double kill still leaves survivors to replay into.
		Nodes: 3 + rng.Intn(2),
		Costs: true,
	}
	sc.Ops = Generate(rng, GenConfig{
		Ops:         16 + rng.Intn(8),
		NumSpecs:    sc.NumSpecs,
		AllowExpiry: true,
		AllowChurn:  true,
	})
	n := len(sc.Ops)
	victim := rng.Intn(sc.Nodes)
	switch seed % 4 {
	case 0:
		// Ungraceful kill with in-flight traffic: the crash fires at the op
		// boundary right after a mobility step, when the step's uplink wave
		// has just mutated the victim's tables.
		sc.ClusterEvents = []ClusterEvent{
			{AtOp: afterStep(sc.Ops, n/2), Node: victim, Kind: ClusterCrash},
		}
	case 1:
		// Kill mid-handoff: arm early; the victim dies between the
		// destructive extract and the inject of its next outbound handoff.
		sc.ClusterEvents = []ClusterEvent{
			{AtOp: n / 4, Node: victim, Kind: ClusterCrashOnHandoff},
		}
	case 2:
		// Double kill: two distinct victims, the second while the cluster is
		// already running on the survivors of the first.
		sc.ClusterEvents = []ClusterEvent{
			{AtOp: n / 3, Node: victim, Kind: ClusterCrash},
			{AtOp: 2 * n / 3, Node: (victim + 1) % sc.Nodes, Kind: ClusterCrash},
		}
	default:
		// Kill during rebalance: spans recompute and misplaced focals
		// migrate, then the victim dies on the fresh epoch before the op
		// runs.
		sc.ClusterEvents = []ClusterEvent{
			{AtOp: n / 2, Kind: ClusterRebalance},
			{AtOp: n / 2, Node: victim, Kind: ClusterCrash},
		}
	}
	return sc
}

// afterStep returns the first op index >= from whose predecessor is an
// OpStep, so an event scheduled there fires right behind a mobility step's
// uplink wave. Generate always ends schedules with steps, so one exists.
func afterStep(ops []Op, from int) int {
	if from < 1 {
		from = 1
	}
	for i := from; i < len(ops); i++ {
		if ops[i-1].Kind == OpStep {
			return i
		}
	}
	return from
}

// saveCrashRepro shrinks a failing crash scenario and, when the
// CRASH_REPRO_OUT environment variable names a file, writes the first
// repro there (first failure wins) — the artifact CI uploads. It returns
// the repro text for the failure message.
func saveCrashRepro(t *testing.T, sc Scenario) string {
	t.Helper()
	shrunk, err := Shrink(sc, 150)
	if err != nil {
		shrunk = sc // unshrinkable or raced to passing; keep the original
	}
	repro := ReproCase(shrunk)
	if path := os.Getenv("CRASH_REPRO_OUT"); path != "" {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			_, _ = f.WriteString(repro)
			_ = f.Close()
		}
	}
	return repro
}

// TestCrashScheduleSweep is the crash-recovery acceptance sweep: 16 seeded
// crash schedules covering plain kills behind uplink waves, armed
// mid-handoff kills, double kills and kills at rebalance edges, each run
// under the full strict oracle hierarchy with per-op
// checkpoints. Any violation is shrunk to a minimal replayable repro.
func TestCrashScheduleSweep(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sc := crashScenario(seed)
		t.Run(fmt.Sprintf("seed=%d/%s/nodes=%d/%s", seed, sc.Opts.Mode, sc.Nodes, sc.ClusterEvents[0].Kind), func(t *testing.T) {
			t.Parallel()
			if err := RunScenario(sc); err != nil {
				t.Fatalf("oracle violation: %v\nrepro:\n%s", err, saveCrashRepro(t, sc))
			}
		})
	}
}

// TestCrashMidHandoffFires pins that the armed mid-handoff seeds are not
// vacuous: across the sweep's arming seeds, at least one schedule must
// actually trip the armed crash (the victim performs an outbound handoff
// after arming, dying between extract and inject) while the strict oracle
// keeps holding. A tripped crash leaves the victim dead; an untripped one
// leaves every node live.
func TestCrashMidHandoffFires(t *testing.T) {
	fired := 0
	for seed := int64(1); seed <= 64; seed += 4 { // seed%4==1: armed seeds
		sc := crashScenario(seed)
		if sc.ClusterEvents[0].Kind != ClusterCrashOnHandoff {
			t.Fatalf("seed %d: expected an armed scenario, got %q", seed, sc.ClusterEvents[0].Kind)
		}
		sc.inspectCluster = func(cs *core.ClusterServer) {
			for _, sp := range cs.Spans() {
				if !sp.Live {
					fired++
					return
				}
			}
		}
		if err := RunScenario(sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if fired == 0 {
		t.Fatal("no armed seed tripped its mid-handoff crash — the sweep never exercises the extract/inject gap")
	}
	t.Logf("%d armed seeds tripped the mid-handoff crash", fired)
}

// TestCrashTeethSuppressedReplay is the deliberate-bug teeth test: with
// journal replay suppressed, an ungraceful crash silently loses the dead
// node's focal state, and the convergence oracle MUST catch the
// divergence in a healthy majority of seeds. The caught failures then
// shrink — through the event remapping — to a minimal repro that still
// fails and replays from its printed form.
func TestCrashTeethSuppressedReplay(t *testing.T) {
	var failing Scenario
	caught, tried := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		sc := crashScenario(seed)
		if sc.ClusterEvents[0].Kind == ClusterCrashOnHandoff {
			continue // an armed crash may never fire; keep the teeth sharp
		}
		sc.ClusterSuppressReplay = true
		tried++
		if RunScenario(sc) != nil {
			if caught == 0 {
				failing = sc
			}
			caught++
		}
	}
	if caught*2 < tried {
		t.Fatalf("suppressed replay caught in only %d/%d seeds; the convergence oracle is too weak", caught, tried)
	}

	shrunk, err := Shrink(failing, 200)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if len(shrunk.Ops) > len(failing.Ops) {
		t.Fatalf("shrink grew the schedule: %d -> %d ops", len(failing.Ops), len(shrunk.Ops))
	}
	for _, ev := range shrunk.ClusterEvents {
		if ev.AtOp < 0 || ev.AtOp >= len(shrunk.Ops) {
			t.Fatalf("shrunk event out of range: %+v over %d ops", ev, len(shrunk.Ops))
		}
	}
	repro := ReproCase(shrunk)
	t.Logf("shrunk %d ops to %d:\n%s", len(failing.Ops), len(shrunk.Ops), repro)
	if RunScenario(shrunk) == nil {
		t.Fatal("shrunk scenario no longer fails")
	}
	// The printed repro replays: parse the schedule back and fail again.
	body := repro[strings.LastIndex(repro, "#"):]
	body = body[strings.Index(body, "\n")+1:]
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
