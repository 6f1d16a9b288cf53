package sim

import (
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/workload"
)

// smallConfig is a laptop-fast configuration that still exercises every
// subsystem: ~2000 mi² UoD, 300 objects, 30 queries.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.AreaSqMiles = 2500
	cfg.Alpha = 5
	cfg.Alen = 10
	cfg.NumObjects = 300
	cfg.NumQueries = 30
	cfg.VelocityChangesPerStep = 30
	cfg.Steps = 10
	cfg.Warmup = 2
	return cfg
}

func TestApproachString(t *testing.T) {
	for _, a := range []Approach{MobiEyes, Naive, CentralOptimal, ObjectIndex, QueryIndex} {
		if a.String() == "UnknownApproach" || a.String() == "" {
			t.Errorf("approach %d has no name", a)
		}
	}
	if Approach(99).String() != "UnknownApproach" {
		t.Error("out-of-range approach")
	}
}

func TestConfigUoD(t *testing.T) {
	cfg := DefaultConfig()
	u := cfg.UoD()
	if got := u.Area(); got < 99999 || got > 100001 {
		t.Errorf("UoD area = %v", got)
	}
}

// TestEngineExactnessEQP is the end-to-end version of the core invariant:
// run the full engine (base stations, cell-granular broadcasts, metering)
// with EQP and Δ = 0 and verify every query result is exact at every step.
func TestEngineExactnessEQP(t *testing.T) {
	for _, opts := range []core.Options{
		{},
		{SafePeriod: true},
		{Grouping: true},
		{SafePeriod: true, Grouping: true},
		{Predictive: true},
		{Predictive: true, Grouping: true},
	} {
		cfg := smallConfig()
		cfg.Core = opts
		e := NewEngine(cfg)
		for step := 0; step < 12; step++ {
			e.Step()
			if err := e.VerifyExact(); err != nil {
				t.Fatalf("opts %+v, step %d: %v", opts, step, err)
			}
		}
	}
}

func TestEngineRunMetrics(t *testing.T) {
	cfg := smallConfig()
	cfg.MeasureError = true
	m := NewEngine(cfg).Run()
	if m.Steps != cfg.Steps {
		t.Errorf("Steps = %d, want %d", m.Steps, cfg.Steps)
	}
	if m.Seconds != float64(cfg.Steps)*cfg.StepSeconds {
		t.Errorf("Seconds = %v", m.Seconds)
	}
	if m.UplinkMsgs == 0 {
		t.Error("no uplink messages in a dynamic run")
	}
	if m.DownlinkMsgs == 0 {
		t.Error("no downlink messages in a dynamic run")
	}
	if m.AvgLQTSize <= 0 {
		t.Error("AvgLQTSize should be positive with 30 queries on a 50×50 UoD")
	}
	if m.AvgError != 0 {
		t.Errorf("EQP Δ=0 error = %v, want 0", m.AvgError)
	}
	if m.AvgPowerWatts <= 0 {
		t.Error("power not accounted")
	}
	if m.Evals == 0 {
		t.Error("no evaluations counted")
	}
	if m.MessagesPerSecond() <= 0 || m.ServerLoadPerStep() < 0 {
		t.Error("derived metrics broken")
	}
}

func TestEngineLQPHasBoundedError(t *testing.T) {
	cfg := smallConfig()
	cfg.Core.Mode = core.LazyPropagation
	cfg.MeasureError = true
	cfg.Steps = 15
	m := NewEngine(cfg).Run()
	// LQP trades accuracy for messages: some error is expected in a dynamic
	// population but it must stay small (the paper reports ≤ ~12% at the
	// extremes, typically a few percent).
	if m.AvgError < 0 || m.AvgError > 0.5 {
		t.Errorf("LQP error = %v, outside plausible range", m.AvgError)
	}
}

func TestLQPSendsFewerMessagesThanEQP(t *testing.T) {
	cfgE := smallConfig()
	mE := NewEngine(cfgE).Run()

	cfgL := smallConfig()
	cfgL.Core.Mode = core.LazyPropagation
	mL := NewEngine(cfgL).Run()

	if mL.UplinkMsgs >= mE.UplinkMsgs {
		t.Errorf("LQP uplinks (%d) not fewer than EQP (%d)", mL.UplinkMsgs, mE.UplinkMsgs)
	}
}

func TestBaselineSmoke(t *testing.T) {
	for _, a := range []Approach{Naive, CentralOptimal, ObjectIndex, QueryIndex} {
		cfg := smallConfig()
		cfg.Approach = a
		cfg.MeasureError = true
		m := Run(cfg)
		if m.Approach != a {
			t.Errorf("%v: wrong approach tag %v", a, m.Approach)
		}
		if m.UplinkMsgs == 0 {
			t.Errorf("%v: no uplink traffic", a)
		}
		if m.DownlinkMsgs != 0 {
			t.Errorf("%v: baselines have no downlink, got %d", a, m.DownlinkMsgs)
		}
		// Centralized processors track results exactly (naïve and the two
		// indexes see every position; central optimal extrapolates exactly
		// with Δ=0 dead reckoning).
		if m.AvgError > 1e-9 {
			t.Errorf("%v: error = %v, want 0", a, m.AvgError)
		}
	}
}

func TestNaiveSendsMorePositionReportsThanCentralOptimal(t *testing.T) {
	cfgN := smallConfig()
	cfgN.Approach = Naive
	mN := Run(cfgN)

	cfgC := smallConfig()
	cfgC.Approach = CentralOptimal
	mC := Run(cfgC)

	if mC.UplinkMsgs >= mN.UplinkMsgs {
		t.Errorf("central optimal uplinks (%d) not fewer than naive (%d)", mC.UplinkMsgs, mN.UplinkMsgs)
	}
	// Naive sends one report per moving object per step.
	expected := int64(cfgN.NumObjects * cfgN.Steps)
	if mN.UplinkMsgs < expected*9/10 || mN.UplinkMsgs > expected {
		t.Errorf("naive uplinks = %d, want ≈%d", mN.UplinkMsgs, expected)
	}
}

func TestMobiEyesUplinkFarBelowNaive(t *testing.T) {
	cfgM := smallConfig()
	mM := Run(cfgM)

	cfgN := smallConfig()
	cfgN.Approach = Naive
	mN := Run(cfgN)

	if mM.UplinkMsgs*2 >= mN.UplinkMsgs {
		t.Errorf("MobiEyes uplinks (%d) should be far below naive (%d)", mM.UplinkMsgs, mN.UplinkMsgs)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := smallConfig()
	a := Run(cfg)
	b := Run(cfg)
	if a.UplinkMsgs != b.UplinkMsgs || a.DownlinkMsgs != b.DownlinkMsgs ||
		a.UplinkBytes != b.UplinkBytes || a.AvgLQTSize != b.AvgLQTSize {
		t.Errorf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := smallConfig()
	a := Run(cfg)
	cfg.Seed = 42
	b := Run(cfg)
	if a.UplinkMsgs == b.UplinkMsgs && a.DownlinkMsgs == b.DownlinkMsgs &&
		a.AvgLQTSize == b.AvgLQTSize {
		t.Error("different seeds produced identical metrics — suspicious")
	}
}

func TestSafePeriodReducesClientEvals(t *testing.T) {
	cfgOff := smallConfig()
	mOff := Run(cfgOff)

	cfgOn := smallConfig()
	cfgOn.Core.SafePeriod = true
	mOn := Run(cfgOn)

	if mOn.Skipped == 0 {
		t.Error("safe period never skipped an evaluation")
	}
	if mOn.Evals >= mOff.Evals {
		t.Errorf("evals with safe period (%d) ≥ without (%d)", mOn.Evals, mOff.Evals)
	}
	if mOff.Skipped != 0 {
		t.Errorf("skips without safe period: %d", mOff.Skipped)
	}
}

func TestGroupingReducesMessages(t *testing.T) {
	// Force heavy query sharing: few objects, many queries → many queries
	// per focal object.
	mk := func(grouping bool) Metrics {
		cfg := smallConfig()
		cfg.NumObjects = 50
		cfg.NumQueries = 60
		cfg.VelocityChangesPerStep = 25
		cfg.Core.Grouping = grouping
		return Run(cfg)
	}
	plain := mk(false)
	grouped := mk(true)
	if grouped.DownlinkMsgs >= plain.DownlinkMsgs {
		t.Errorf("grouping downlinks (%d) not fewer than plain (%d)",
			grouped.DownlinkMsgs, plain.DownlinkMsgs)
	}
	if grouped.Evals >= plain.Evals {
		t.Errorf("grouping evals (%d) not fewer than plain (%d)", grouped.Evals, plain.Evals)
	}
}

func TestLQTSizeGrowsWithAlpha(t *testing.T) {
	mk := func(alpha float64) float64 {
		cfg := smallConfig()
		cfg.Alpha = alpha
		return Run(cfg).AvgLQTSize
	}
	small := mk(2.5)
	large := mk(10)
	if large <= small {
		t.Errorf("AvgLQT(α=10) = %v not larger than AvgLQT(α=2.5) = %v", large, small)
	}
}

func TestLQTSizeGrowsWithQueries(t *testing.T) {
	mk := func(nmq int) float64 {
		cfg := smallConfig()
		cfg.NumQueries = nmq
		return Run(cfg).AvgLQTSize
	}
	few := mk(10)
	many := mk(60)
	if many <= few {
		t.Errorf("AvgLQT(60 queries) = %v not larger than AvgLQT(10) = %v", many, few)
	}
}

func TestMetricsStringNonEmpty(t *testing.T) {
	m := Run(smallConfig())
	if m.String() == "" {
		t.Error("empty Metrics.String")
	}
	if m.ClientLoadPerObjectStep(300) < 0 {
		t.Error("negative client load")
	}
	var zero Metrics
	if zero.MessagesPerSecond() != 0 || zero.UplinkMessagesPerSecond() != 0 ||
		zero.ServerLoadPerStep() != 0 || zero.ClientLoadPerObjectStep(0) != 0 {
		t.Error("zero metrics should yield zero rates")
	}
}

func TestGroundTruthMatchesBruteForce(t *testing.T) {
	cfg := smallConfig()
	e := NewEngine(cfg)
	e.Step()
	for i, spec := range e.w.Queries {
		fast := groundTruth(e.bkt, e.w.Objects, spec, nil)
		// Plain O(n) scan.
		focal := e.w.Objects[int(spec.Focal)-1]
		slow := map[model.ObjectID]struct{}{}
		for _, o := range e.w.Objects {
			if o.Pos.Dist2(focal.Pos) <= spec.Radius*spec.Radius && spec.Filter.Matches(o.Props) {
				slow[o.ID] = struct{}{}
			}
		}
		if len(fast) != len(slow) {
			t.Fatalf("query %d: bucketed %d vs brute %d", i, len(fast), len(slow))
		}
		for oid := range slow {
			if _, ok := fast[oid]; !ok {
				t.Fatalf("query %d: bucketed ground truth missing %d", i, oid)
			}
		}
	}
}

func TestBaselinePanicsOnWrongApproach(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := smallConfig()
	cfg.Approach = MobiEyes
	NewBaselineEngine(cfg)
}

// TestEngineExactnessWaypointMobility: the EQP/Δ=0 exactness invariant also
// holds under the random-waypoint mobility model, whose velocity changes
// come from arrivals and departures rather than the nmo process.
func TestEngineExactnessWaypointMobility(t *testing.T) {
	cfg := smallConfig()
	cfg.Mobility = workload.RandomWaypoint
	e := NewEngine(cfg)
	for step := 0; step < 15; step++ {
		e.Step()
		if err := e.VerifyExact(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestWaypointRunMetricsDiffer(t *testing.T) {
	walk := Run(smallConfig())
	cfg := smallConfig()
	cfg.Mobility = workload.RandomWaypoint
	wp := Run(cfg)
	if wp.UplinkMsgs == walk.UplinkMsgs {
		t.Error("waypoint workload produced identical traffic to random walk — suspicious")
	}
	if wp.UplinkMsgs == 0 {
		t.Error("no traffic under waypoint mobility")
	}
}

func TestMetricsByKindBreakdown(t *testing.T) {
	cfg := smallConfig()
	m := Run(cfg)
	if len(m.ByKind) == 0 {
		t.Fatal("no per-kind stats")
	}
	var total int64
	for _, ks := range m.ByKind {
		total += ks.UplinkMsgs + ks.DownlinkMsgs
	}
	if total != m.UplinkMsgs+m.DownlinkMsgs {
		t.Errorf("per-kind sum %d != aggregate %d", total, m.UplinkMsgs+m.DownlinkMsgs)
	}
	if m.KindCount(msg.KindCellChangeReport) == 0 {
		t.Error("no cell change reports in a dynamic EQP run")
	}
	if m.KindCount(msg.KindPositionReport) != 0 {
		t.Error("MobiEyes sent naive position reports")
	}

	// LQP suppresses most cell-change uplinks (only focal objects report).
	cfgL := smallConfig()
	cfgL.Core.Mode = core.LazyPropagation
	mL := Run(cfgL)
	if mL.KindCount(msg.KindCellChangeReport) >= m.KindCount(msg.KindCellChangeReport) {
		t.Errorf("LQP cell-change count %d not below EQP %d",
			mL.KindCount(msg.KindCellChangeReport), m.KindCount(msg.KindCellChangeReport))
	}

	// Grouping produces bitmap reports on a query-heavy workload.
	cfgG := smallConfig()
	cfgG.NumObjects = 50
	cfgG.NumQueries = 60
	cfgG.Core.Grouping = true
	mG := Run(cfgG)
	if mG.KindCount(msg.KindGroupContainmentReport) == 0 {
		t.Error("grouping produced no bitmap reports")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := map[string]func(*Config){
		"area":    func(c *Config) { c.AreaSqMiles = 0 },
		"alpha":   func(c *Config) { c.Alpha = -1 },
		"alen":    func(c *Config) { c.Alen = 0 },
		"step":    func(c *Config) { c.StepSeconds = 0 },
		"objects": func(c *Config) { c.NumObjects = 0 },
		"queries": func(c *Config) { c.NumQueries = -1 },
		"nmo":     func(c *Config) { c.VelocityChangesPerStep = -1 },
		"steps":   func(c *Config) { c.Steps = -1 },
		"delta":   func(c *Config) { c.Core.DeadReckoningThreshold = -0.5 },
		"costs":   func(c *Config) { c.Approach, c.Costs = Naive, cost.New() },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestSoakExactnessFullScale runs the full Table 1 configuration (10,000
// objects, 1,000 queries) and verifies exactness at every step. Skipped
// under -short (~10 s).
func TestSoakExactnessFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale soak skipped with -short")
	}
	cfg := DefaultConfig()
	cfg.Core = core.Options{} // Δ = 0 for exactness
	e := NewEngine(cfg)
	for step := 0; step < 10; step++ {
		e.Step()
		if err := e.VerifyExact(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestParallelEngineIdenticalToSerial: the worker-pool engine produces
// exactly the serial engine's metrics and results.
func TestParallelEngineIdenticalToSerial(t *testing.T) {
	serialCfg := smallConfig()
	parallelCfg := smallConfig()
	parallelCfg.Parallelism = 4

	serial := Run(serialCfg)
	parallel := Run(parallelCfg)

	if serial.UplinkMsgs != parallel.UplinkMsgs ||
		serial.DownlinkMsgs != parallel.DownlinkMsgs ||
		serial.UplinkBytes != parallel.UplinkBytes ||
		serial.DownlinkBytes != parallel.DownlinkBytes ||
		serial.AvgLQTSize != parallel.AvgLQTSize ||
		serial.Evals != parallel.Evals {
		t.Errorf("parallel run diverged:\n serial:   %+v\n parallel: %+v", serial, parallel)
	}
}

func TestParallelEngineExactness(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallelism = 8
	cfg.Core = core.Options{SafePeriod: true, Grouping: true}
	e := NewEngine(cfg)
	for step := 0; step < 10; step++ {
		e.Step()
		if err := e.VerifyExact(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestEngineHistory(t *testing.T) {
	cfg := smallConfig()
	cfg.MeasureError = true
	e := NewEngine(cfg)
	e.CollectHistory()
	m := e.Run()
	h := e.History()
	if len(h) != cfg.Steps {
		t.Fatalf("history length = %d, want %d", len(h), cfg.Steps)
	}
	var up, down int64
	for i, rec := range h {
		if rec.Step != i+1 {
			t.Errorf("record %d has step %d", i, rec.Step)
		}
		if rec.AvgLQTSize < 0 || rec.UplinkMsgs < 0 || rec.DownlinkMsgs < 0 {
			t.Errorf("negative record: %+v", rec)
		}
		up += rec.UplinkMsgs
		down += rec.DownlinkMsgs
	}
	if up != m.UplinkMsgs || down != m.DownlinkMsgs {
		t.Errorf("history sums %d/%d, metrics %d/%d", up, down, m.UplinkMsgs, m.DownlinkMsgs)
	}
}

// TestEngineExactnessGaussMarkov: exactness also holds under the smooth
// Gauss-Markov mobility — the dead-reckoning stress case where every object
// changes velocity every step.
func TestEngineExactnessGaussMarkov(t *testing.T) {
	cfg := smallConfig()
	cfg.Mobility = workload.GaussMarkov
	e := NewEngine(cfg)
	for step := 0; step < 10; step++ {
		e.Step()
		if err := e.VerifyExact(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestGaussMarkovStressesDeadReckoning: with every object changing velocity
// every step, uplink traffic rises well above the random-walk workload.
func TestGaussMarkovStressesDeadReckoning(t *testing.T) {
	walk := Run(smallConfig())
	cfg := smallConfig()
	cfg.Mobility = workload.GaussMarkov
	gm := Run(cfg)
	if gm.UplinkMsgs <= walk.UplinkMsgs {
		t.Errorf("Gauss-Markov uplinks (%d) not above random walk (%d)", gm.UplinkMsgs, walk.UplinkMsgs)
	}
}
