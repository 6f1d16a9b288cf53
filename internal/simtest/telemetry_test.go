package simtest

import (
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/telemetry"
	"mobieyes/internal/workload"
)

// telemetrySystem builds a journaled router engine with a telemetry plane
// attached, so every handoff/rebalance edge and explicit round runs the
// invariant watchdog against live ledgers.
func telemetrySystem(t *testing.T, seed int64, nodes int) (*localSystem, *core.ClusterServer, *telemetry.Plane, *cost.Accountant, *workload.Workload) {
	t.Helper()
	sc := Scenario{Seed: seed, NumObjects: 40, NumSpecs: 10}
	wl := workload.New(sc.workloadConfig())
	g := grid.New(wl.Config().UoD, alphaMiles)
	ls := newLocalSystem("router", g, core.Options{}, wl.Objects, nodes, 0, false)
	acct := cost.New()
	acct.Configure(0, 0, nodes)
	ls.attachCosts(acct)
	cs := ls.srv.(*core.ClusterServer)
	plane := telemetry.New(telemetry.Config{Metrics: obs.NewRegistry(), Costs: acct})
	cs.SetTelemetry(plane)
	return ls, cs, plane, acct, wl
}

// TestWatchdogSilentAcrossSeeds is the no-false-positives gate: seeded
// protocol schedules on a router engine — including a mid-run rebalance
// and a node kill, whose handoff edges each trigger an inline watchdog
// round — must never raise an alert. The ledger identity is evaluated at
// every edge, so a single mis-charged dispatch anywhere in the handoff path
// would fail this test.
func TestWatchdogSilentAcrossSeeds(t *testing.T) {
	var totalHandoffs int64
	for seed := int64(1); seed <= 4; seed++ {
		ls, cs, plane, _, wl := telemetrySystem(t, seed, 3)
		tstep := model.FromSeconds(wl.Config().StepSeconds)
		var now model.Time
		for _, o := range wl.Objects {
			if err := ls.join(o, now); err != nil {
				t.Fatal(err)
			}
		}
		for _, spec := range wl.Queries {
			if _, err := ls.install(spec, wl.Objects[int(spec.Focal)-1].MaxVel, now); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 30; step++ {
			now += tstep
			wl.Step()
			if err := ls.step(now); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if alerts := cs.TelemetryRound(); len(alerts) != 0 {
				t.Fatalf("seed %d step %d raised alerts: %v", seed, step, alerts)
			}
			switch step {
			case 10:
				if _, err := cs.Rebalance(); err != nil {
					t.Fatalf("seed %d rebalance: %v", seed, err)
				}
			case 20:
				if err := cs.KillNode(1); err != nil {
					t.Fatalf("seed %d kill: %v", seed, err)
				}
			}
		}
		if alerts := cs.TelemetryRound(); len(alerts) != 0 {
			t.Fatalf("seed %d final round alerts: %v", seed, alerts)
		}
		if s := plane.HealthStatus(); s != telemetry.HealthOK {
			t.Fatalf("seed %d health = %s", seed, s)
		}
		totalHandoffs += plane.Snapshot().Handoffs
		if err := cs.CheckInvariants(); err != nil {
			t.Errorf("seed %d invariants: %v", seed, err)
		}
	}
	if totalHandoffs == 0 {
		t.Error("no seed produced a handoff edge — the silent gate is vacuous")
	}
}

// TestWatchdogCatchesLedgerSkew is the teeth check for the silent gate: a
// node-ledger charge with no matching global charge (a lost or double
// dispatch attribution) must raise ledger-identity on the very next round
// and fail readiness — then resolve once the books balance again.
func TestWatchdogCatchesLedgerSkew(t *testing.T) {
	ls, cs, plane, acct, wl := telemetrySystem(t, 7, 2)
	var now model.Time
	for _, o := range wl.Objects {
		if err := ls.join(o, now); err != nil {
			t.Fatal(err)
		}
	}
	if alerts := cs.TelemetryRound(); len(alerts) != 0 {
		t.Fatalf("healthy engine raised alerts: %v", alerts)
	}

	acct.NodeUplink(0, msg.KindVelocityReport, 10) // skew: no global charge

	alerts := cs.TelemetryRound()
	if len(alerts) != 1 || alerts[0].Check != telemetry.CheckLedgerIdentity {
		t.Fatalf("skew alerts = %v, want one ledger-identity", alerts)
	}
	if s, ok := plane.Ready(); ok || s != telemetry.HealthFailing {
		t.Errorf("Ready() = %s,%v, want failing,false", s, ok)
	}

	acct.Traffic().ChargeUplink(msg.KindVelocityReport, 10) // balance the books
	if alerts := cs.TelemetryRound(); len(alerts) != 0 {
		t.Fatalf("balanced ledger still alerting: %v", alerts)
	}
	if s := plane.HealthStatus(); s != telemetry.HealthOK {
		t.Errorf("health after repair = %s", s)
	}
}
