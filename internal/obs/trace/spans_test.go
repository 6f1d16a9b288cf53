package trace

import (
	"testing"
	"time"
)

// ev builds one event at the given nanosecond offset.
func ev(tid ID, k Kind, nanos int64) Event {
	return Event{Trace: tid, Kind: k, Nanos: nanos, Seq: uint64(nanos)}
}

// TestDecomposeFullChain pins the telescoping decomposition on a hand-built
// chain: ingress → table → broadcast → deliver, with the stage spans
// covering the end-to-end duration exactly.
func TestDecomposeFullChain(t *testing.T) {
	evs := []Event{
		ev(7, KindIngress, 1000),
		ev(7, KindTable, 1400),
		ev(7, KindTable, 1600),
		ev(7, KindBroadcast, 2100),
		ev(7, KindDeliver, 3000),
	}
	sp, ok := Decompose(evs)
	if !ok {
		t.Fatal("Decompose rejected a chain with ingress")
	}
	want := map[Stage]time.Duration{
		StageDispatch: 400, // ingress → first table
		StageTable:    200, // first table → last table
		StageFanout:   500, // last table → last fan-out
		StageDeliver:  900, // last fan-out → last deliver
	}
	for s, d := range want {
		if !sp.Present[s] {
			t.Fatalf("stage %v absent", s)
		}
		if sp.Stage[s] != d {
			t.Errorf("stage %v = %v, want %v", s, sp.Stage[s], d)
		}
	}
	if sp.E2E != 2000 {
		t.Errorf("E2E = %v, want 2000ns", sp.E2E)
	}
	var sum time.Duration
	for s := Stage(0); s < NumStages; s++ {
		if sp.Present[s] {
			sum += sp.Stage[s]
		}
	}
	if sum != sp.E2E {
		t.Errorf("telescoping identity broken: Σ stages %v != E2E %v", sum, sp.E2E)
	}
}

// TestDecomposeMissingStages: chains that skip stages (a stale-dropped
// velocity report never touches a table; a table update may cause no
// fan-out) degrade gracefully — absent stages are not Present, the
// identity over present stages still holds.
func TestDecomposeMissingStages(t *testing.T) {
	cases := []struct {
		name    string
		evs     []Event
		present []Stage
		e2e     time.Duration
	}{
		{
			name:    "ingress only",
			evs:     []Event{ev(1, KindIngress, 100)},
			present: nil,
			e2e:     0,
		},
		{
			name: "no fanout",
			evs: []Event{
				ev(2, KindIngress, 100),
				ev(2, KindTable, 300),
			},
			present: []Stage{StageDispatch, StageTable},
			e2e:     200,
		},
		{
			name: "deliver without table",
			evs: []Event{
				ev(3, KindIngress, 100),
				ev(3, KindUnicast, 400),
				ev(3, KindDeliver, 900),
			},
			present: []Stage{StageFanout, StageDeliver},
			e2e:     800,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp, ok := Decompose(c.evs)
			if !ok {
				t.Fatal("rejected")
			}
			wantPresent := make(map[Stage]bool)
			for _, s := range c.present {
				wantPresent[s] = true
			}
			var sum time.Duration
			for s := Stage(0); s < NumStages; s++ {
				if sp.Present[s] != wantPresent[s] {
					t.Errorf("stage %v present = %v, want %v", s, sp.Present[s], wantPresent[s])
				}
				if sp.Present[s] {
					sum += sp.Stage[s]
				}
			}
			if sp.E2E != c.e2e {
				t.Errorf("E2E = %v, want %v", sp.E2E, c.e2e)
			}
			if sum != sp.E2E {
				t.Errorf("Σ present stages %v != E2E %v", sum, sp.E2E)
			}
		})
	}
}

// TestDecomposeNoIngress: a chain whose ingress was overwritten by ring
// wraparound is rejected (ok=false), never a panic or a garbage span.
func TestDecomposeNoIngress(t *testing.T) {
	if _, ok := Decompose([]Event{ev(4, KindTable, 100), ev(4, KindDeliver, 300)}); ok {
		t.Fatal("accepted a chain without ingress")
	}
	if _, ok := Decompose(nil); ok {
		t.Fatal("accepted an empty chain")
	}
}

// TestDecomposeNonMonotoneClock: events recorded with out-of-order
// timestamps (cross-core clock skew, reordered slices) clamp to zero-length
// spans instead of going negative.
func TestDecomposeNonMonotoneClock(t *testing.T) {
	evs := []Event{
		ev(5, KindIngress, 1000),
		ev(5, KindTable, 900),     // before ingress
		ev(5, KindBroadcast, 800), // even earlier
		ev(5, KindDeliver, 950),
	}
	sp, ok := Decompose(evs)
	if !ok {
		t.Fatal("rejected")
	}
	for s := Stage(0); s < NumStages; s++ {
		if sp.Stage[s] < 0 {
			t.Fatalf("stage %v negative: %v", s, sp.Stage[s])
		}
	}
	if sp.E2E < 0 {
		t.Fatalf("E2E negative: %v", sp.E2E)
	}
}

// TestDecomposeOrderIndependent: Decompose keys on timestamps, not slice
// order, so a ring scan that interleaves traces arbitrarily still works.
func TestDecomposeOrderIndependent(t *testing.T) {
	ordered := []Event{
		ev(6, KindIngress, 1000),
		ev(6, KindTable, 1500),
		ev(6, KindBroadcast, 2000),
		ev(6, KindDeliver, 2500),
	}
	shuffled := []Event{ordered[2], ordered[0], ordered[3], ordered[1]}
	a, _ := Decompose(ordered)
	b, _ := Decompose(shuffled)
	if a != b {
		t.Fatalf("order-dependent decomposition:\n%+v\n%+v", a, b)
	}
}

// TestStageString pins the stage names used in metric labels and the LAT
// table — renaming them breaks dashboards.
func TestStageString(t *testing.T) {
	want := []string{"dispatch", "table", "fanout", "deliver"}
	for s := Stage(0); s < NumStages; s++ {
		if s.String() != want[s] {
			t.Errorf("stage %d = %q, want %q", s, s.String(), want[s])
		}
	}
}
