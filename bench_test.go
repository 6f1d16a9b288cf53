// Benchmarks regenerating the measured quantity of every table and figure
// in the MobiEyes paper's evaluation (§5). Each BenchmarkFigN* measures the
// steady-state per-step cost of the system configuration behind that
// figure; derived quantities the paper plots (messages per second, LQT
// sizes, error rates) are attached with b.ReportMetric so `go test -bench`
// output carries the figure's y-value alongside ns/op.
//
// The full experiment sweeps (every x value, every series) live in
// cmd/experiments; these benchmarks pin the defaults and the interesting
// extremes so the paper's comparisons are visible directly in bench output.
package mobieyes

import (
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/sim"
	"mobieyes/internal/workload"
)

// benchConfig is the Table 1 default configuration, sized down 4× so the
// complete bench suite runs in minutes while preserving density and shape.
func benchConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumObjects = 2500
	cfg.NumQueries = 250
	cfg.VelocityChangesPerStep = 250
	cfg.AreaSqMiles = 25000
	cfg.Steps = 1
	cfg.Warmup = 0
	return cfg
}

// stepBench runs cfg's engine for b.N steps after warmup and reports the
// figure metric extracted from a final short measured run.
func stepBenchMobiEyes(b *testing.B, cfg sim.Config, report func(b *testing.B, m sim.Metrics)) {
	b.Helper()
	e := sim.NewEngine(cfg)
	for i := 0; i < 3; i++ { // warmup
		e.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	if report != nil {
		cfg.Steps = 5
		cfg.Warmup = 2
		report(b, sim.Run(cfg))
	}
}

func stepBenchBaseline(b *testing.B, cfg sim.Config) {
	b.Helper()
	e := sim.NewBaselineEngine(cfg)
	for i := 0; i < 3; i++ {
		e.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func reportMessages(b *testing.B, m sim.Metrics) {
	b.ReportMetric(m.MessagesPerSecond(), "msgs/simsec")
	b.ReportMetric(m.UplinkMessagesPerSecond(), "upmsgs/simsec")
}

// --- Table 1: workload generation -----------------------------------------

func BenchmarkTable1WorkloadGeneration(b *testing.B) {
	cfg := workload.Default(benchConfig().UoD())
	cfg.NumObjects = 2500
	cfg.NumQueries = 250
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		_ = workload.New(cfg)
	}
}

// --- Fig. 1: server load vs queries ----------------------------------------

func BenchmarkFig1ServerLoadMobiEyesEQP(b *testing.B) {
	stepBenchMobiEyes(b, benchConfig(), nil)
}

func BenchmarkFig1ServerLoadMobiEyesLQP(b *testing.B) {
	cfg := benchConfig()
	cfg.Core.Mode = core.LazyPropagation
	stepBenchMobiEyes(b, cfg, nil)
}

func BenchmarkFig1ServerLoadObjectIndex(b *testing.B) {
	cfg := benchConfig()
	cfg.Approach = sim.ObjectIndex
	stepBenchBaseline(b, cfg)
}

func BenchmarkFig1ServerLoadQueryIndex(b *testing.B) {
	cfg := benchConfig()
	cfg.Approach = sim.QueryIndex
	stepBenchBaseline(b, cfg)
}

// --- Fig. 2: LQP error measurement -----------------------------------------

func BenchmarkFig2LQPWithErrorTracking(b *testing.B) {
	cfg := benchConfig()
	cfg.Core.Mode = core.LazyPropagation
	cfg.MeasureError = true
	cfg.Steps = 5
	cfg.Warmup = 2
	b.ResetTimer()
	var last sim.Metrics
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		last = sim.Run(cfg)
	}
	b.ReportMetric(last.AvgError, "error")
}

// --- Fig. 3: server load vs alpha -------------------------------------------

func BenchmarkFig3AlphaSmall(b *testing.B) {
	cfg := benchConfig()
	cfg.Alpha = 1
	stepBenchMobiEyes(b, cfg, nil)
}

func BenchmarkFig3AlphaDefault(b *testing.B) {
	stepBenchMobiEyes(b, benchConfig(), nil)
}

func BenchmarkFig3AlphaLarge(b *testing.B) {
	cfg := benchConfig()
	cfg.Alpha = 16
	stepBenchMobiEyes(b, cfg, nil)
}

// --- Fig. 4: messaging vs alpha ---------------------------------------------

func BenchmarkFig4MessagingAlpha2(b *testing.B) {
	cfg := benchConfig()
	cfg.Alpha = 2
	stepBenchMobiEyes(b, cfg, reportMessages)
}

func BenchmarkFig4MessagingAlpha5(b *testing.B) {
	stepBenchMobiEyes(b, benchConfig(), reportMessages)
}

func BenchmarkFig4MessagingAlpha16(b *testing.B) {
	cfg := benchConfig()
	cfg.Alpha = 16
	stepBenchMobiEyes(b, cfg, reportMessages)
}

// --- Figs. 5 and 6: messaging vs number of objects --------------------------

func BenchmarkFig5MessagingSmallPopulation(b *testing.B) {
	cfg := benchConfig()
	cfg.NumObjects = 625
	cfg.VelocityChangesPerStep = 62
	stepBenchMobiEyes(b, cfg, reportMessages)
}

func BenchmarkFig5MessagingFullPopulation(b *testing.B) {
	stepBenchMobiEyes(b, benchConfig(), reportMessages)
}

func BenchmarkFig6UplinkNaive(b *testing.B) {
	cfg := benchConfig()
	cfg.Approach = sim.Naive
	stepBenchBaseline(b, cfg)
}

func BenchmarkFig6UplinkCentralOptimal(b *testing.B) {
	cfg := benchConfig()
	cfg.Approach = sim.CentralOptimal
	stepBenchBaseline(b, cfg)
}

func BenchmarkFig6UplinkMobiEyesLQP(b *testing.B) {
	cfg := benchConfig()
	cfg.Core.Mode = core.LazyPropagation
	stepBenchMobiEyes(b, cfg, reportMessages)
}

// --- Fig. 7: messaging vs velocity changes ----------------------------------

func BenchmarkFig7FewVelocityChanges(b *testing.B) {
	cfg := benchConfig()
	cfg.VelocityChangesPerStep = 25
	stepBenchMobiEyes(b, cfg, reportMessages)
}

func BenchmarkFig7ManyVelocityChanges(b *testing.B) {
	cfg := benchConfig()
	cfg.VelocityChangesPerStep = 1000
	stepBenchMobiEyes(b, cfg, reportMessages)
}

// --- Fig. 8: messaging vs base station size ---------------------------------

func BenchmarkFig8SmallStations(b *testing.B) {
	cfg := benchConfig()
	cfg.Alen = 5
	stepBenchMobiEyes(b, cfg, reportMessages)
}

func BenchmarkFig8LargeStations(b *testing.B) {
	cfg := benchConfig()
	cfg.Alen = 80
	stepBenchMobiEyes(b, cfg, reportMessages)
}

// --- Fig. 9: per-object power ------------------------------------------------

func BenchmarkFig9PowerAccounting(b *testing.B) {
	cfg := benchConfig()
	cfg.Steps = 5
	cfg.Warmup = 2
	b.ResetTimer()
	var last sim.Metrics
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		last = sim.Run(cfg)
	}
	b.ReportMetric(last.AvgPowerWatts*1000, "mW/object")
}

// --- Figs. 10–12: LQT sizes ----------------------------------------------------

func BenchmarkFig10LQTAlphaDefault(b *testing.B) {
	stepBenchMobiEyes(b, benchConfig(), func(b *testing.B, m sim.Metrics) {
		b.ReportMetric(m.AvgLQTSize, "LQT")
	})
}

func BenchmarkFig11LQTManyQueries(b *testing.B) {
	cfg := benchConfig()
	cfg.NumQueries = 1000
	stepBenchMobiEyes(b, cfg, func(b *testing.B, m sim.Metrics) {
		b.ReportMetric(m.AvgLQTSize, "LQT")
	})
}

func BenchmarkFig12LQTLargeRadii(b *testing.B) {
	cfg := benchConfig()
	cfg.RadiusFactor = 3
	stepBenchMobiEyes(b, cfg, func(b *testing.B, m sim.Metrics) {
		b.ReportMetric(m.AvgLQTSize, "LQT")
	})
}

// --- Fig. 13: safe period ablation ---------------------------------------------

func BenchmarkFig13SafePeriodOff(b *testing.B) {
	cfg := benchConfig()
	cfg.Alpha = 16 // large cells = large monitoring regions = where it matters
	stepBenchMobiEyes(b, cfg, nil)
}

func BenchmarkFig13SafePeriodOn(b *testing.B) {
	cfg := benchConfig()
	cfg.Alpha = 16
	cfg.Core.SafePeriod = true
	stepBenchMobiEyes(b, cfg, func(b *testing.B, m sim.Metrics) {
		if m.Evals+m.Skipped > 0 {
			b.ReportMetric(float64(m.Skipped)/float64(m.Evals+m.Skipped), "skipfrac")
		}
	})
}

// --- Ablations beyond the paper's figures ---------------------------------------

// Query grouping (§4.1) on a workload with heavy focal sharing.
func BenchmarkAblationGroupingOff(b *testing.B) {
	cfg := benchConfig()
	cfg.NumObjects = 500
	cfg.NumQueries = 500 // many queries per focal object
	cfg.VelocityChangesPerStep = 100
	stepBenchMobiEyes(b, cfg, reportMessages)
}

func BenchmarkAblationGroupingOn(b *testing.B) {
	cfg := benchConfig()
	cfg.NumObjects = 500
	cfg.NumQueries = 500
	cfg.VelocityChangesPerStep = 100
	cfg.Core.Grouping = true
	stepBenchMobiEyes(b, cfg, reportMessages)
}

// Eager versus lazy propagation at identical workloads.
func BenchmarkAblationEQP(b *testing.B) {
	stepBenchMobiEyes(b, benchConfig(), reportMessages)
}

func BenchmarkAblationLQP(b *testing.B) {
	cfg := benchConfig()
	cfg.Core.Mode = core.LazyPropagation
	stepBenchMobiEyes(b, cfg, reportMessages)
}

func BenchmarkFig13Predictive(b *testing.B) {
	cfg := benchConfig()
	cfg.Alpha = 16
	cfg.Core.Predictive = true
	stepBenchMobiEyes(b, cfg, func(b *testing.B, m sim.Metrics) {
		if m.Evals+m.Skipped > 0 {
			b.ReportMetric(float64(m.Skipped)/float64(m.Evals+m.Skipped), "skipfrac")
		}
	})
}
