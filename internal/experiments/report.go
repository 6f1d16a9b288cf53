package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mobieyes/internal/core"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/sim"
)

// RunReport is the structured cost-and-accuracy report behind the paper's
// §5 messaging-cost evaluation: one document (JSON for machines, text for
// humans) holding the EQP-vs-LQP ledger comparison with answer-quality
// gauges, the messaging-cost sweeps over Δ, α and the query count, and the
// distributed-vs-centralized baseline comparison. Every MobiEyes number
// comes from a cost.Accountant attached to the run, so the report is the
// ledger view of the same traffic the figures plot.
type RunReport struct {
	Title    string `json:"title"`
	Steps    int    `json:"steps"`
	Warmup   int    `json:"warmup"`
	ScaleDiv int    `json:"scale_div"`
	Seed     int64  `json:"seed"`

	// Modes compares eager and lazy query propagation at identical
	// workloads: full global ledgers plus precision/recall/staleness.
	Modes []ModeReport `json:"modes"`

	// DeltaSweep holds one cost curve per propagation mode over the
	// dead-reckoning threshold Δ (paper §5.3: larger Δ ⇒ fewer uplink
	// velocity reports at the price of result accuracy).
	DeltaSweep []CostCurve `json:"delta_sweep"`

	// AlphaSweep is the messaging cost over the grid cell size α (the
	// ledger view of Fig. 4's middle series).
	AlphaSweep CostCurve `json:"alpha_sweep"`

	// QueriesSweep is the messaging cost over the number of concurrent
	// queries (the ledger view of Fig. 8's regime).
	QueriesSweep CostCurve `json:"queries_sweep"`

	// Baselines compares MobiEyes against the §5.3 centralized reporting
	// schemes on the same workload (meter numbers; the baselines bypass
	// the accountant).
	Baselines []BaselinePoint `json:"baselines"`

	// Checks are the paper's qualitative claims evaluated on this run.
	Checks []Check `json:"checks"`
}

// ModeReport is one propagation mode's ledger and answer quality.
type ModeReport struct {
	Mode       string              `json:"mode"`
	Ledger     cost.LedgerReport   `json:"ledger"`
	Quality    *cost.QualityReport `json:"quality,omitempty"`
	MsgsPerSec float64             `json:"msgs_per_sec"`
}

// CostPoint is one x-value of a cost curve with the ledger's traffic
// totals at that point.
type CostPoint struct {
	X             float64 `json:"x"`
	UplinkMsgs    int64   `json:"uplink_msgs"`
	DownlinkMsgs  int64   `json:"downlink_msgs"`
	UplinkBytes   int64   `json:"uplink_bytes"`
	DownlinkBytes int64   `json:"downlink_bytes"`
	MsgsPerSec    float64 `json:"msgs_per_sec"`
}

// CostCurve is a named sweep of ledger totals over one parameter.
type CostCurve struct {
	Name   string      `json:"name"`
	XLabel string      `json:"x_label"`
	Points []CostPoint `json:"points"`
}

// BaselinePoint is one approach's traffic on the shared workload.
type BaselinePoint struct {
	Approach     string  `json:"approach"`
	UplinkMsgs   int64   `json:"uplink_msgs"`
	DownlinkMsgs int64   `json:"downlink_msgs"`
	MsgsPerSec   float64 `json:"msgs_per_sec"`
}

// Check is one of the paper's qualitative claims evaluated on the report's
// own numbers, so a regression in the protocol shows up as pass=false in
// the artifact rather than as a silently wrong curve.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// costRun executes one MobiEyes run with a fresh accountant attached and
// returns the engine metrics plus the accountant's snapshot.
func costRun(o RunOpts, mutate func(*sim.Config)) (sim.Metrics, cost.Snapshot) {
	cfg := o.base()
	cfg.Core = mobiOpts(core.EagerPropagation)
	cfg.Costs = cost.New()
	if mutate != nil {
		mutate(&cfg)
	}
	m := sim.Run(cfg)
	return m, cfg.Costs.Snapshot()
}

func costPoint(x float64, m sim.Metrics, snap cost.Snapshot) CostPoint {
	return CostPoint{
		X:             x,
		UplinkMsgs:    snap.Global.UpMsgs,
		DownlinkMsgs:  snap.Global.DownMsgs,
		UplinkBytes:   snap.Global.UpBytes,
		DownlinkBytes: snap.Global.DownBytes,
		MsgsPerSec:    m.MessagesPerSecond(),
	}
}

// BuildRunReport runs the report's sweeps and comparisons at o's scale.
// Every sweep reuses o.Seed, so two reports at the same options are
// bit-identical.
func BuildRunReport(o RunOpts) RunReport {
	o = o.normalize()
	r := RunReport{
		Title:    "MobiEyes protocol cost & accuracy report",
		Steps:    o.Steps,
		Warmup:   o.Warmup,
		ScaleDiv: o.ScaleDiv,
		Seed:     o.Seed,
	}

	// EQP vs LQP with answer-quality gauges on.
	for _, mode := range []core.PropagationMode{core.EagerPropagation, core.LazyPropagation} {
		mode := mode
		m, snap := costRun(o, func(cfg *sim.Config) {
			cfg.Core = mobiOpts(mode)
			cfg.MeasureQuality = true
		})
		r.Modes = append(r.Modes, ModeReport{
			Mode:       snap.Mode,
			Ledger:     snap.Global,
			Quality:    snap.Quality,
			MsgsPerSec: m.MessagesPerSecond(),
		})
	}

	// Messaging cost vs the dead-reckoning threshold Δ, per mode.
	deltas := []float64{0.01, 0.1, 0.25, 0.5, 1}
	for _, mode := range []core.PropagationMode{core.EagerPropagation, core.LazyPropagation} {
		mode := mode
		curve := CostCurve{Name: mode.String(), XLabel: "delta (miles)"}
		for _, d := range deltas {
			d := d
			m, snap := costRun(o, func(cfg *sim.Config) {
				cfg.Core = mobiOpts(mode)
				cfg.Core.DeadReckoningThreshold = d
			})
			curve.Points = append(curve.Points, costPoint(d, m, snap))
		}
		r.DeltaSweep = append(r.DeltaSweep, curve)
	}

	// Messaging cost vs grid cell size α (EQP).
	r.AlphaSweep = CostCurve{Name: "MobiEyes EQP", XLabel: "alpha (miles)"}
	for _, a := range []float64{1, 2, 4, 8, 16} {
		a := a
		m, snap := costRun(o, func(cfg *sim.Config) { cfg.Alpha = a })
		r.AlphaSweep.Points = append(r.AlphaSweep.Points, costPoint(a, m, snap))
	}

	// Messaging cost vs the number of concurrent queries (EQP).
	r.QueriesSweep = CostCurve{Name: "MobiEyes EQP", XLabel: "queries"}
	for _, x := range o.queriesSweep() {
		x := x
		m, snap := costRun(o, func(cfg *sim.Config) { cfg.NumQueries = int(x) })
		r.QueriesSweep.Points = append(r.QueriesSweep.Points, costPoint(x, m, snap))
	}

	// Distributed vs centralized reporting baselines on the same workload.
	for _, a := range []sim.Approach{sim.MobiEyes, sim.Naive, sim.CentralOptimal} {
		a := a
		cfg := o.base()
		cfg.Approach = a
		if a == sim.MobiEyes {
			cfg.Core = mobiOpts(core.EagerPropagation)
		}
		m := sim.Run(cfg)
		r.Baselines = append(r.Baselines, BaselinePoint{
			Approach:     a.String(),
			UplinkMsgs:   m.UplinkMsgs,
			DownlinkMsgs: m.DownlinkMsgs,
			MsgsPerSec:   m.MessagesPerSecond(),
		})
	}

	r.Checks = r.evaluateChecks()
	return r
}

// evaluateChecks evaluates the paper's qualitative claims on the report.
func (r RunReport) evaluateChecks() []Check {
	var checks []Check
	add := func(name string, pass bool, format string, args ...any) {
		checks = append(checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
	}

	eqp, lqp := r.Modes[0], r.Modes[1]
	add("lqp fewer downlink msgs than eqp",
		lqp.Ledger.DownMsgs < eqp.Ledger.DownMsgs,
		"LQP %d vs EQP %d downlink messages", lqp.Ledger.DownMsgs, eqp.Ledger.DownMsgs)
	add("eqp answers exact",
		eqp.Quality != nil && eqp.Quality.CumPrecision == 1 && eqp.Quality.CumRecall == 1,
		"EQP precision %.4f recall %.4f", eqp.Quality.CumPrecision, eqp.Quality.CumRecall)
	add("lqp trades accuracy for messages",
		lqp.Quality != nil && lqp.Quality.CumRecall <= eqp.Quality.CumRecall,
		"LQP recall %.4f vs EQP %.4f", lqp.Quality.CumRecall, eqp.Quality.CumRecall)

	for _, c := range r.DeltaSweep {
		first, last := c.Points[0], c.Points[len(c.Points)-1]
		add("uplink cost shrinks with larger delta ("+c.Name+")",
			last.UplinkMsgs < first.UplinkMsgs,
			"%d uplinks at delta=%v vs %d at delta=%v",
			last.UplinkMsgs, last.X, first.UplinkMsgs, first.X)
	}

	var mobi, naive *BaselinePoint
	for i := range r.Baselines {
		switch r.Baselines[i].Approach {
		case sim.MobiEyes.String():
			mobi = &r.Baselines[i]
		case sim.Naive.String():
			naive = &r.Baselines[i]
		}
	}
	add("dead reckoning beats naive per-step reporting",
		mobi != nil && naive != nil && mobi.UplinkMsgs < naive.UplinkMsgs,
		"MobiEyes %d vs Naive %d uplink messages", mobi.UplinkMsgs, naive.UplinkMsgs)
	return checks
}

// AllChecksPass reports whether every qualitative claim held.
func (r RunReport) AllChecksPass() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// WriteJSON writes the report as indented JSON.
func (r RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report for humans.
func (r RunReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", r.Title)
	fmt.Fprintf(w, "steps=%d warmup=%d scalediv=%d seed=%d\n\n",
		r.Steps, r.Warmup, r.ScaleDiv, r.Seed)

	fmt.Fprintf(w, "## EQP vs LQP\n")
	fmt.Fprintf(w, "%-5s %10s %10s %12s %12s %10s %9s %9s %11s\n",
		"mode", "up msgs", "down msgs", "up bytes", "down bytes", "msg/s", "precision", "recall", "stale mean")
	for _, m := range r.Modes {
		prec, rec, stale := 1.0, 1.0, 0.0
		if m.Quality != nil {
			prec, rec, stale = m.Quality.CumPrecision, m.Quality.CumRecall, m.Quality.StaleMean
		}
		fmt.Fprintf(w, "%-5s %10d %10d %12d %12d %10.1f %9.4f %9.4f %11.2f\n",
			m.Mode, m.Ledger.UpMsgs, m.Ledger.DownMsgs, m.Ledger.UpBytes, m.Ledger.DownBytes,
			m.MsgsPerSec, prec, rec, stale)
	}

	writeCurve := func(title string, c CostCurve) {
		fmt.Fprintf(w, "\n## %s — %s\n", title, c.Name)
		fmt.Fprintf(w, "%12s %10s %10s %12s %12s %10s\n",
			c.XLabel, "up msgs", "down msgs", "up bytes", "down bytes", "msg/s")
		for _, p := range c.Points {
			fmt.Fprintf(w, "%12g %10d %10d %12d %12d %10.1f\n",
				p.X, p.UplinkMsgs, p.DownlinkMsgs, p.UplinkBytes, p.DownlinkBytes, p.MsgsPerSec)
		}
	}
	for _, c := range r.DeltaSweep {
		writeCurve("cost vs delta", c)
	}
	writeCurve("cost vs alpha", r.AlphaSweep)
	writeCurve("cost vs queries", r.QueriesSweep)

	fmt.Fprintf(w, "\n## Distributed vs centralized\n")
	fmt.Fprintf(w, "%-15s %10s %10s %10s\n", "approach", "up msgs", "down msgs", "msg/s")
	for _, b := range r.Baselines {
		fmt.Fprintf(w, "%-15s %10d %10d %10.1f\n", b.Approach, b.UplinkMsgs, b.DownlinkMsgs, b.MsgsPerSec)
	}

	fmt.Fprintf(w, "\n## Checks\n")
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%s  %-45s %s\n", status, c.Name, c.Detail)
	}
}

// WriteFiles writes the report as dir/runreport.json and dir/runreport.txt,
// creating dir if needed.
func (r RunReport) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, "runreport.json"))
	if err != nil {
		return err
	}
	if err := r.WriteJSON(jf); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, "runreport.txt"))
	if err != nil {
		return err
	}
	r.WriteText(tf)
	return tf.Close()
}
