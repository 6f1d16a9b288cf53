package simtest

import "fmt"

// Shrink minimizes a failing scenario's schedule with delta debugging:
// ever-smaller chunks of ops are removed while the scenario keeps failing,
// until no single remaining op can be dropped (1-minimality) or maxRuns
// replays are spent. The result replays deterministically because replay
// state depends only on the seeds and the surviving ops — the workload's
// random process is consumed exclusively by OpStep.
//
// Cluster events address schedule positions by index, so each candidate
// removal remaps them: an event past the removed chunk shifts down with
// the ops behind it, an event inside the chunk fires at the removal point,
// and every event is clamped into the surviving schedule so it still
// fires. The candidate is kept only if it still fails, so remapping never
// manufactures a spurious repro. Fault plans window by index too but
// additionally couple to transport reconnection state; scenarios carrying
// one stay unshrunk.
func Shrink(sc Scenario, maxRuns int) (Scenario, error) {
	if sc.Faults != nil {
		return sc, fmt.Errorf("simtest: cannot shrink a scenario with a fault plan")
	}
	fails := func(ops []Op, evs []ClusterEvent) bool {
		t := sc
		t.Ops = ops
		t.ClusterEvents = evs
		return RunScenario(t) != nil
	}
	runs := 1
	if !fails(sc.Ops, sc.ClusterEvents) {
		return sc, fmt.Errorf("simtest: scenario does not fail; nothing to shrink")
	}
	ops, evs := sc.Ops, sc.ClusterEvents
	for chunk := len(ops) / 2; chunk > 0; chunk /= 2 {
		for start := 0; start < len(ops) && runs < maxRuns; {
			end := start + chunk
			if end > len(ops) {
				end = len(ops)
			}
			candidate := make([]Op, 0, len(ops)-(end-start))
			candidate = append(candidate, ops[:start]...)
			candidate = append(candidate, ops[end:]...)
			remapped := remapEvents(evs, start, end, len(candidate))
			runs++
			if len(candidate) > 0 && fails(candidate, remapped) {
				ops, evs = candidate, remapped // keep shrinking from here
			} else {
				start += chunk
			}
		}
	}
	sc.Ops, sc.ClusterEvents = ops, evs
	return sc, nil
}

// remapEvents adjusts cluster-event op indices for the removal of ops
// [start, end): events past the chunk shift down by its length, events
// inside it land on the op now at start, and everything is clamped into
// [0, n) so no event silently stops firing.
func remapEvents(evs []ClusterEvent, start, end, n int) []ClusterEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]ClusterEvent, len(evs))
	for i, ev := range evs {
		switch {
		case ev.AtOp >= end:
			ev.AtOp -= end - start
		case ev.AtOp >= start:
			ev.AtOp = start
		}
		if ev.AtOp >= n {
			ev.AtOp = n - 1
		}
		if ev.AtOp < 0 {
			ev.AtOp = 0
		}
		out[i] = ev
	}
	return out
}

// ReproCase renders a shrunk failing scenario as the replayable text a
// test prints on failure: the scenario parameters and cluster events as
// comments and the schedule in FormatSchedule form, ready for
// ParseSchedule + RunScenario.
func ReproCase(sc Scenario) string {
	head := fmt.Sprintf(
		"# simtest repro: seed=%d objects=%d specs=%d opts=%+v mobility=%v nodes=%d remote=%v dropNth=%d suppressReplay=%v\n",
		sc.Seed, sc.NumObjects, sc.NumSpecs, sc.Opts, sc.Mobility, sc.Nodes, sc.Remote,
		sc.DropNthBroadcast, sc.ClusterSuppressReplay)
	for _, ev := range sc.ClusterEvents {
		head += fmt.Sprintf("# cluster-event at=%d node=%d kind=%s\n", ev.AtOp, ev.Node, ev.Kind)
	}
	return head + FormatSchedule(sc.Ops)
}
