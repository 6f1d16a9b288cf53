//go:build !race

package cost

import (
	"testing"

	"mobieyes/internal/msg"
)

// TestChargesDoNotAllocate holds every per-op charge at zero allocations
// once an ID's tally exists. (The race detector changes escape decisions,
// so this file is left out under -race.)
func TestChargesDoNotAllocate(t *testing.T) {
	a := New()
	a.Configure(16, 4, 2)
	a.ObjectUp(9, 30)
	a.QueryUp(3, 30)
	if got := testing.AllocsPerRun(1000, func() {
		a.Traffic().ChargeUplink(msg.KindVelocityReport, 30)
		a.NodeUplink(1, msg.KindVelocityReport, 30)
		a.CellUp(3, 30)
		a.ObjectUp(9, 30)
		a.ObjectDown(9, 40, 1)
		a.QueryUp(3, 30)
		a.QueryDown(3, 40, 2)
		a.Compute(UnitTableOp, 1)
	}); got != 0 {
		t.Fatalf("charges: %v allocations per run, want 0", got)
	}
}
