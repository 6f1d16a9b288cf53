//go:build !race

package trace

import "testing"

// TestEventDoesNotAllocate holds recording at zero allocations: the event
// is copied into a preallocated ring slot. (The race detector changes
// escape decisions, so this file is left out under -race.)
func TestEventDoesNotAllocate(t *testing.T) {
	r := NewRecorder(64)
	ev := Event{Trace: 1, Kind: KindIngress, Actor: "server", OID: 7, QID: 3, Note: "VelocityReport"}
	if got := testing.AllocsPerRun(1000, func() {
		r.Event(1, KindIngress, "server", 7, 3, "VelocityReport")
		r.Record(ev)
	}); got != 0 {
		t.Fatalf("Event + Record: %v allocations per run, want 0", got)
	}
}
