package cost

import (
	"testing"

	"mobieyes/internal/msg"
)

// The disabled path is the one every protocol action pays when accounting
// is off: a single nil check, required to stay ≤ ~5 ns/op (see ISSUE 5 /
// BENCH_PR5.json).

func BenchmarkCostComputeDisabled(b *testing.B) {
	var a *Accountant
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Compute(UnitContainment, 1)
	}
}

// BenchmarkCostUplinkEnabled is one transport-ledger charge: two atomic
// adds, 0 allocs/op (TestChargesDoNotAllocate holds every charge there).
func BenchmarkCostUplinkEnabled(b *testing.B) {
	l := New().Traffic()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.ChargeUplink(msg.KindVelocityReport, 30)
	}
}

func BenchmarkCostDownlinkEnabled(b *testing.B) {
	l := New().Traffic()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.ChargeDownlink(msg.KindVelocityChange, 50, 3)
	}
}

func BenchmarkCostNodeUplinkEnabled(b *testing.B) {
	a := New()
	a.Configure(0, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.NodeUplink(i&7, msg.KindVelocityReport, 30)
	}
}

func BenchmarkCostCellUpEnabled(b *testing.B) {
	a := New()
	a.Configure(1024, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.CellUp(int32(i&1023), 30)
	}
}

// Per-ID scope on the hit path (tally already exists): one atomic chunk
// load, no lock, no map probe, 0 allocs/op.
func BenchmarkCostQueryUpEnabled(b *testing.B) {
	a := New()
	a.QueryUp(1, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.QueryUp(1, 30)
	}
}

func BenchmarkCostSnapshot(b *testing.B) {
	a := populated()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Snapshot()
	}
}
