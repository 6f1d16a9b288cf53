package sim

import (
	"slices"
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/obs/cost"
)

// TestEngineCostTransportIdentity pins the transport-level attribution to
// the message meter, the engine's externally-verified source of truth: the
// accountant's global ledger must agree with the meter message-for-message
// and byte-for-byte, the per-station tallies must partition the global
// traffic exactly, and per-cell downlink deliveries must be at least one
// per transmission (broadcasts reach every cell their stations cover).
func TestEngineCostTransportIdentity(t *testing.T) {
	cfg := smallConfig()
	cfg.Costs = cost.New()
	m := NewEngine(cfg).Run()

	g := cfg.Costs.Global()
	if g.UplinkMsgs() != m.UplinkMsgs || g.UplinkBytes() != m.UplinkBytes {
		t.Errorf("global uplink ledger %d msgs/%d B, meter %d/%d",
			g.UplinkMsgs(), g.UplinkBytes(), m.UplinkMsgs, m.UplinkBytes)
	}
	if g.DownlinkMsgs() != m.DownlinkMsgs || g.DownlinkBytes() != m.DownlinkBytes {
		t.Errorf("global downlink ledger %d msgs/%d B, meter %d/%d",
			g.DownlinkMsgs(), g.DownlinkBytes(), m.DownlinkMsgs, m.DownlinkBytes)
	}

	snap := cfg.Costs.Snapshot()
	var stUp, stDown, cellUp, cellDown int64
	for _, st := range snap.Stations {
		stUp += st.UpMsgs
		stDown += st.DownMsgs
	}
	for _, c := range snap.Cells {
		cellUp += c.UpMsgs
		cellDown += c.DownMsgs
	}
	if stUp != m.UplinkMsgs || stDown != m.DownlinkMsgs {
		t.Errorf("station tallies %d up/%d down, meter %d/%d", stUp, stDown, m.UplinkMsgs, m.DownlinkMsgs)
	}
	if cellUp != m.UplinkMsgs {
		t.Errorf("cell uplink tallies %d, meter %d", cellUp, m.UplinkMsgs)
	}
	if cellDown < m.DownlinkMsgs {
		t.Errorf("cell downlink deliveries %d < %d transmissions", cellDown, m.DownlinkMsgs)
	}
	if len(snap.Queries) == 0 || len(snap.Objects) == 0 {
		t.Errorf("no per-entity attribution (queries %d, objects %d)", len(snap.Queries), len(snap.Objects))
	}
	for _, u := range []cost.Unit{
		cost.UnitDeadReckoning, cost.UnitContainment, cost.UnitLQTScan,
		cost.UnitTableOp, cost.UnitSetCover,
	} {
		if g.ComputeUnits(u) == 0 {
			t.Errorf("no %v units charged", u)
		}
	}
	if snap.Mode != "EQP" {
		t.Errorf("mode = %q, want EQP", snap.Mode)
	}
}

// TestEngineCostParallelAndShardedIdentity runs the parallel-client engine
// with accounting and checks the same meter identity: uplinks buffered by
// parallel client phases are charged at the ordered merge, exactly once.
// (The router's node-sum identity is checked by the core router tests and
// the simtest lockstep sweeps.)
func TestEngineCostParallelAndShardedIdentity(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallelism = 4
	cfg.Costs = cost.New()
	m := NewEngine(cfg).Run()

	g := cfg.Costs.Global()
	if g.UplinkMsgs() != m.UplinkMsgs || g.DownlinkMsgs() != m.DownlinkMsgs {
		t.Errorf("global ledger %d up/%d down, meter %d/%d",
			g.UplinkMsgs(), g.DownlinkMsgs(), m.UplinkMsgs, m.DownlinkMsgs)
	}
}

// TestEngineTrafficWithoutAccountant: attaching an accountant must not
// change what the engine meters. Without one the engine charges a private
// traffic ledger, with one the accountant's global ledger; the same seeded
// run must meter the same messages and bytes, kind by kind, either way —
// serially and with parallel client phases.
func TestEngineTrafficWithoutAccountant(t *testing.T) {
	for _, par := range []int{0, 4} {
		cfg := smallConfig()
		cfg.Parallelism = par
		bare := NewEngine(cfg).Run()
		cfg.Costs = cost.New()
		acct := NewEngine(cfg).Run()
		if bare.UplinkMsgs == 0 || bare.DownlinkMsgs == 0 {
			t.Fatalf("parallelism %d: no accountant, %d up / %d down metered", par, bare.UplinkMsgs, bare.DownlinkMsgs)
		}
		if bare.UplinkMsgs != acct.UplinkMsgs || bare.UplinkBytes != acct.UplinkBytes ||
			bare.DownlinkMsgs != acct.DownlinkMsgs || bare.DownlinkBytes != acct.DownlinkBytes {
			t.Errorf("parallelism %d: without accountant %d/%d B up, %d/%d B down; with %d/%d B up, %d/%d B down",
				par, bare.UplinkMsgs, bare.UplinkBytes, bare.DownlinkMsgs, bare.DownlinkBytes,
				acct.UplinkMsgs, acct.UplinkBytes, acct.DownlinkMsgs, acct.DownlinkBytes)
		}
		if !slices.Equal(bare.ByKind, acct.ByKind) {
			t.Errorf("parallelism %d: per-kind traffic %+v without accountant, %+v with", par, bare.ByKind, acct.ByKind)
		}
	}
}

// TestEngineCostResetSemantics verifies the accountant measures steady
// state only: installation traffic is wiped by NewEngine and warmup traffic
// by Run, exactly like the message meter.
func TestEngineCostResetSemantics(t *testing.T) {
	cfg := smallConfig()
	cfg.Costs = cost.New()
	e := NewEngine(cfg)
	if g := cfg.Costs.Global(); g != (cost.LedgerSnap{}) {
		t.Fatalf("accountant not reset after installation: %+v", g)
	}
	e.Step()
	if g := cfg.Costs.Global(); g.UplinkMsgs() == 0 {
		t.Error("no uplinks charged after a measured step")
	}
}

// TestEngineCostQualityExact checks the answer-quality gauges against the
// EQP/Δ=0 exactness invariant: with provably exact results every step, the
// gauges must report perfect precision and recall and no staleness
// episodes.
func TestEngineCostQualityExact(t *testing.T) {
	cfg := smallConfig()
	cfg.Core = core.Options{} // Δ = 0: exact results
	cfg.Costs = cost.New()
	cfg.MeasureQuality = true
	NewEngine(cfg).Run()

	snap := cfg.Costs.Snapshot()
	if snap.Quality == nil {
		t.Fatal("no quality section recorded")
	}
	q := snap.Quality
	if q.TP == 0 {
		t.Error("no true positives in a populated run")
	}
	if q.FP != 0 || q.FN != 0 {
		t.Errorf("EQP Δ=0 recorded fp=%d fn=%d, want 0/0", q.FP, q.FN)
	}
	if q.CumPrecision != 1 || q.CumRecall != 1 {
		t.Errorf("precision/recall %v/%v, want 1/1", q.CumPrecision, q.CumRecall)
	}
	if q.StaleCount != 0 {
		t.Errorf("%d staleness episodes under exactness", q.StaleCount)
	}
}

// TestEngineCostQualityLQP checks the gauges see LQP's accuracy trade-off:
// lazy propagation with a coarse dead-reckoning threshold must produce some
// wrong pairs, and every healed wrong pair must land in the staleness
// histogram.
func TestEngineCostQualityLQP(t *testing.T) {
	cfg := smallConfig()
	cfg.Core.Mode = core.LazyPropagation
	cfg.Core.DeadReckoningThreshold = 0.5
	cfg.Steps = 15
	cfg.Costs = cost.New()
	cfg.MeasureQuality = true
	NewEngine(cfg).Run()

	snap := cfg.Costs.Snapshot()
	if snap.Quality == nil {
		t.Fatal("no quality section recorded")
	}
	q := snap.Quality
	if q.FP+q.FN == 0 {
		t.Error("LQP with Δ=0.5 produced no wrong pairs — quality gauges untested")
	}
	if q.CumPrecision <= 0 || q.CumPrecision > 1 || q.CumRecall <= 0 || q.CumRecall > 1 {
		t.Errorf("precision/recall out of range: %v/%v", q.CumPrecision, q.CumRecall)
	}
	if q.StaleCount > 0 {
		var bucketed int64
		for _, b := range q.Staleness {
			bucketed += b.Count
		}
		if bucketed != q.StaleCount {
			t.Errorf("staleness buckets sum to %d, %d episodes observed", bucketed, q.StaleCount)
		}
	}
	if snap.Mode != "LQP" {
		t.Errorf("mode = %q, want LQP", snap.Mode)
	}
}

// TestConfigQualityRequiresCosts pins the Validate coupling.
func TestConfigQualityRequiresCosts(t *testing.T) {
	cfg := smallConfig()
	cfg.MeasureQuality = true
	if err := cfg.Validate(); err == nil {
		t.Error("MeasureQuality without Costs validated")
	}
	cfg.Costs = cost.New()
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
