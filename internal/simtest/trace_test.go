package simtest

import (
	"strings"
	"testing"
)

// TestTracedFailureDumpsCausalTimeline is the tracing acceptance test: a
// planted broadcast-skip bug under a traced run must fail the oracle AND
// the returned error must carry the causal event timeline of the divergent
// query — including the recorded drop of the vanished broadcast.
func TestTracedFailureDumpsCausalTimeline(t *testing.T) {
	var dump string
	for seed := int64(701); seed < 721; seed++ {
		sc := buggyScenario(seed)
		sc.Trace = true
		if err := RunScenario(sc); err != nil {
			dump = err.Error()
			break
		}
	}
	if dump == "" {
		t.Fatal("planted bug never caught across 20 seeds")
	}
	t.Logf("failure with timeline:\n%s", dump)
	for _, want := range []string{
		"causal timeline",  // the dump header with the pinned oid/qid
		"--- serial:",      // one section per engine
		"--- router:",      //
		"ingress",          // the chain starts at an uplink ingress
		"(injected fault)", // the router engine recorded the dropped broadcast
		"drop",             // ...as a KindDrop event
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("failure dump missing %q", want)
		}
	}
}

// TestTracedScenariosStillPass: tracing must not perturb a correct run —
// the same seeds that pass untraced pass traced, locally and with the
// remote engine over pipes.
func TestTracedScenariosStillPass(t *testing.T) {
	sc := localScenario(42)
	sc.Trace = true
	if err := RunScenario(sc); err != nil {
		t.Fatalf("traced local scenario failed: %v", err)
	}
	rsc := remoteScenario(42)
	rsc.Trace = true
	if err := RunScenario(rsc); err != nil {
		t.Fatalf("traced remote scenario failed: %v", err)
	}
}

// TestTracedFaultInjection runs one fault-injection scenario with tracing
// enabled: trace IDs ride the faulty transport (dropped, duplicated and
// reordered frames) without disturbing recovery, and the run stays
// race-clean under -race.
func TestTracedFaultInjection(t *testing.T) {
	sc := faultScenario(501)
	sc.Trace = true
	if err := RunScenario(sc); err != nil {
		t.Fatalf("traced fault scenario failed: %v", err)
	}
}
