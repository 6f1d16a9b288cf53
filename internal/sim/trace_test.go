package sim

import (
	"testing"

	"mobieyes/internal/obs/trace"
)

// TestTracedEngineDeterminism: attaching a flight recorder must not change
// the engine's behavior — tracing is measurement only, like Metrics.
func TestTracedEngineDeterminism(t *testing.T) {
	plainCfg := smallConfig()
	tracedCfg := smallConfig()
	tracedCfg.Trace = trace.NewRecorder(1024)

	plain := NewEngine(plainCfg)
	traced := NewEngine(tracedCfg)
	for step := 0; step < 8; step++ {
		plain.Step()
		traced.Step()
		for _, qid := range plain.Server().QueryIDs() {
			ra, rb := plain.Server().Result(qid), traced.Server().Result(qid)
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
	if tracedCfg.Trace.Recorded() == 0 {
		t.Fatal("traced engine recorded no events")
	}
}

// TestTracedEngineCausalChains: the engine's simulated transport carries
// trace IDs across the downlink→client→uplink round trip, so install
// completions form one causal chain (ingress + SQT insert + broadcast under
// a single trace ID).
func TestTracedEngineCausalChains(t *testing.T) {
	cfg := smallConfig()
	cfg.Trace = trace.NewRecorder(1 << 15)
	e := NewEngine(cfg)
	e.Step()

	type chain struct{ ingress, table, bcast bool }
	chains := make(map[trace.ID]*chain)
	for _, ev := range cfg.Trace.Events(trace.Filter{}) {
		if ev.Trace == 0 {
			t.Fatalf("untraced event: %v", ev)
		}
		c := chains[ev.Trace]
		if c == nil {
			c = &chain{}
			chains[ev.Trace] = c
		}
		switch ev.Kind {
		case trace.KindIngress:
			c.ingress = true
		case trace.KindTable:
			if ev.Note == "SQT insert" {
				c.table = true
			}
		case trace.KindBroadcast:
			c.bcast = true
		}
	}
	var linked bool
	for _, c := range chains {
		if c.ingress && c.table && c.bcast {
			linked = true
		}
	}
	if !linked {
		t.Fatal("no causal chain links an uplink ingress to an SQT insert and its broadcast")
	}
}
