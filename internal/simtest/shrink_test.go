package simtest

import (
	"strings"
	"testing"
)

// buggyScenario plants the deliberate equivalence bug: the router engine
// silently skips every 3rd broadcast, so part of some monitoring-region
// update never reaches the clients.
func buggyScenario(seed int64) Scenario {
	sc := localScenario(seed)
	sc.DropNthBroadcast = 3
	return sc
}

// TestOracleCatchesBroadcastSkipBug is the harness's own acceptance test:
// an engine that skips monitoring-region broadcasts must be caught by the
// differential oracle within the sweep.
func TestOracleCatchesBroadcastSkipBug(t *testing.T) {
	caught := 0
	const seeds = 8
	for seed := int64(701); seed < 701+seeds; seed++ {
		if err := RunScenario(buggyScenario(seed)); err != nil {
			t.Logf("seed %d caught: %v", seed, err)
			caught++
		}
	}
	if caught < seeds/2 {
		t.Fatalf("broadcast-skip bug caught in only %d/%d seeds; the oracle is too weak", caught, seeds)
	}
}

// TestShrinkMinimizesFailingSchedule shrinks a failing buggy scenario to a
// short schedule, verifies the shrunk schedule still fails, and replays it
// through the printed text form.
func TestShrinkMinimizesFailingSchedule(t *testing.T) {
	var failing Scenario
	found := false
	for seed := int64(701); seed < 721 && !found; seed++ {
		sc := buggyScenario(seed)
		if RunScenario(sc) != nil {
			failing, found = sc, true
		}
	}
	if !found {
		t.Fatal("no failing seed found for the planted bug")
	}

	shrunk, err := Shrink(failing, 300)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if len(shrunk.Ops) > len(failing.Ops) {
		t.Fatalf("shrink grew the schedule: %d -> %d ops", len(failing.Ops), len(shrunk.Ops))
	}
	repro := ReproCase(shrunk)
	t.Logf("shrunk %d ops to %d:\n%s", len(failing.Ops), len(shrunk.Ops), repro)

	// 1-minimality spot check: the shrunk schedule must still fail…
	if RunScenario(shrunk) == nil {
		t.Fatal("shrunk scenario no longer fails")
	}
	// …and must fail when replayed through the printed text form.
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

	// Dropping any single remaining op should make the failure disappear
	// for at least one op — otherwise the shrinker left obvious slack.
	// (Full 1-minimality is probabilistic; we only sanity-check that the
	// schedule is tight enough that most ops are load-bearing.)
	loadBearing := 0
	for i := range shrunk.Ops {
		cand := shrunk
		cand.Ops = append(append([]Op{}, shrunk.Ops[:i]...), shrunk.Ops[i+1:]...)
		if len(cand.Ops) == 0 || RunScenario(cand) == nil {
			loadBearing++
		}
	}
	if loadBearing == 0 && len(shrunk.Ops) > 3 {
		t.Fatalf("every op of the %d-op shrunk schedule is droppable; shrinker did no work", len(shrunk.Ops))
	}
}

// TestShrinkRejectsNonFailing documents the contract: shrinking a passing
// scenario is an error, not a silent no-op.
func TestShrinkRejectsNonFailing(t *testing.T) {
	if _, err := Shrink(localScenario(1), 50); err == nil {
		t.Fatal("expected an error shrinking a passing scenario")
	}
	sc := buggyScenario(701)
	sc.Faults = &FaultPlan{Start: 1, End: 2}
	if _, err := Shrink(sc, 50); err == nil {
		t.Fatal("expected an error shrinking a fault-plan scenario")
	}
}
