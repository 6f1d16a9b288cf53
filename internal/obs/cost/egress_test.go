package cost

import (
	"strings"
	"testing"

	"mobieyes/internal/obs"
)

// TestEgressBoundary pins the observability-egress charging rule: every
// byte reported at the gateway/history encode boundary lands in the egress
// meters — and nowhere in the transport ledgers, so the cross-backend
// ledger-identity oracle is unaffected by subscriptions.
func TestEgressBoundary(t *testing.T) {
	a := New()
	before := a.global.Snap()

	a.GatewayEgress(120)
	a.GatewayEgress(80)
	a.HistoryAppend(41)
	a.HistoryAppend(33)
	a.HistoryAppend(33)

	s := a.Snapshot()
	if s.Egress == nil {
		t.Fatal("no egress section in snapshot")
	}
	want := EgressReport{GatewayWrites: 2, GatewayBytes: 200, HistoryAppends: 3, HistoryBytes: 107}
	if *s.Egress != want {
		t.Fatalf("egress = %+v, want %+v", *s.Egress, want)
	}
	if after := a.global.Snap(); after != before {
		t.Fatalf("egress charges leaked into the global transport ledger:\n%+v ->\n%+v", before, after)
	}

	// Text report carries the egress line; JSON carries the section.
	var b strings.Builder
	s.WriteText(&b)
	if !strings.Contains(b.String(), "gateway 2 writes / 200 B") ||
		!strings.Contains(b.String(), "history 3 appends / 107 B") {
		t.Fatalf("text report missing egress line:\n%s", b.String())
	}

	// The Prometheus series exist with per-sink labels.
	reg := obs.NewRegistry()
	a.Instrument(reg)
	var prom strings.Builder
	reg.WritePrometheus(&prom)
	for _, want := range []string{
		`mobieyes_cost_egress_bytes_total{sink="gateway"} 200`,
		`mobieyes_cost_egress_bytes_total{sink="history"} 107`,
		`mobieyes_cost_egress_writes_total{sink="gateway"} 2`,
		`mobieyes_cost_egress_writes_total{sink="history"} 3`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("missing series %q in:\n%s", want, prom.String())
		}
	}

	// Reset zeroes the axis with everything else.
	a.Reset()
	if s := a.Snapshot(); s.Egress != nil {
		t.Fatalf("egress survived Reset: %+v", *s.Egress)
	}

	// Nil accountant: no-op, as required for unconditional hook install.
	var nilA *Accountant
	nilA.GatewayEgress(10)
	nilA.HistoryAppend(10)
}
