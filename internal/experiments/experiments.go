// Package experiments regenerates every table and figure of the MobiEyes
// paper's evaluation (§5). Each FigN function runs the simulations behind
// one figure and returns the series the paper plots; cmd/experiments prints
// them and bench_test.go measures them.
//
// Figures are identified by the paper's numbering:
//
//	Fig. 1  server load vs number of queries (log scale)
//	Fig. 2  LQP result error vs velocity changes per step
//	Fig. 3  server load vs α (log scale)
//	Fig. 4  messaging cost vs α
//	Fig. 5  messaging cost vs number of objects
//	Fig. 6  uplink messaging cost vs number of objects (log scale)
//	Fig. 7  messaging cost vs velocity changes per step
//	Fig. 8  messaging cost vs base-station side length
//	Fig. 9  per-object power consumption vs number of queries
//	Fig. 10 average LQT size vs α
//	Fig. 11 average LQT size vs number of queries
//	Fig. 12 average LQT size vs query-radius factor
//	Fig. 13 client query-processing load vs α, safe period on/off
package experiments

import (
	"fmt"
	"io"
	"strings"

	"mobieyes/internal/core"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/sim"
)

// RunOpts trades fidelity for speed. Zero value = paper scale.
type RunOpts struct {
	// Steps and Warmup override the per-run step counts (0 = defaults:
	// 10 measured steps after 3 warmup steps).
	Steps, Warmup int
	// ScaleDiv divides the object, query and velocity-change counts (and
	// the area, to preserve density). 1 or 0 = paper scale; 10 is a good
	// smoke-test setting.
	ScaleDiv int
	Seed     int64
	// Metrics, when non-nil, instruments every engine the experiments
	// build against this registry (see sim.Config.Metrics) — useful with
	// obs.ListenAndServe to watch a long sweep live over /metrics.
	Metrics *obs.Registry
	// Trace, when non-nil, attaches this causal flight recorder to every
	// engine (see sim.Config.Trace) — useful with obs.ListenAndServe and
	// obs.EventsView to inspect /debug/events while a sweep runs.
	Trace *trace.Recorder
}

func (o RunOpts) normalize() RunOpts {
	if o.Steps == 0 {
		o.Steps = 10
	}
	if o.Warmup == 0 {
		o.Warmup = 3
	}
	if o.ScaleDiv <= 0 {
		o.ScaleDiv = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Validate reports the first error in the base configuration every
// experiment starts from (see sim.Config.Validate), or nil: a negative step
// count, or a scale divisor that leaves no objects.
func (o RunOpts) Validate() error {
	return o.normalize().base().Validate()
}

// base builds a sim.Config at the paper's defaults adjusted by o.
func (o RunOpts) base() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Steps = o.Steps
	cfg.Warmup = o.Warmup
	cfg.Seed = o.Seed
	d := o.ScaleDiv
	cfg.NumObjects /= d
	cfg.NumQueries /= d
	cfg.VelocityChangesPerStep /= d
	cfg.AreaSqMiles /= float64(d)
	cfg.Metrics = o.Metrics
	cfg.Trace = o.Trace
	return cfg
}

// Figure is the data behind one plot: a shared x-axis and named series.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
	// LogY records that the paper plots this figure with a log y-axis.
	LogY bool
}

// Series is one line of a figure.
type Series struct {
	Name string
	Y    []float64
}

// WriteTable renders the figure as an aligned text table.
func (f Figure) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", f.ID, f.Title)
	scale := ""
	if f.LogY {
		scale = " [paper plots log scale]"
	}
	fmt.Fprintf(w, "  x = %s, y = %s%s\n", f.XLabel, f.YLabel, scale)
	fmt.Fprintf(w, "  %-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "  %18s", s.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", 12+20*len(f.Series)))
	for i, x := range f.X {
		fmt.Fprintf(w, "  %-12.4g", x)
		for _, s := range f.Series {
			fmt.Fprintf(w, "  %18.6g", s.Y[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the figure as CSV (x column plus one column per series).
func (f Figure) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "%s", csvEscape(f.XLabel))
	for _, s := range f.Series {
		fmt.Fprintf(w, ",%s", csvEscape(s.Name))
	}
	fmt.Fprintln(w)
	for i, x := range f.X {
		fmt.Fprintf(w, "%g", x)
		for _, s := range f.Series {
			fmt.Fprintf(w, ",%g", s.Y[i])
		}
		fmt.Fprintln(w)
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// series runs one configuration per x value and extracts a metric.
func series(name string, xs []float64, run func(x float64) float64) Series {
	s := Series{Name: name, Y: make([]float64, len(xs))}
	for i, x := range xs {
		s.Y[i] = run(x)
	}
	return s
}

// queriesSweep is the nmq x-axis used by Figs. 1, 9 and 11.
func (o RunOpts) queriesSweep() []float64 {
	return scaleInts([]int{100, 250, 500, 750, 1000}, o.ScaleDiv)
}

// nmoSweep is the velocity-changes x-axis of Figs. 2 and 7.
func (o RunOpts) nmoSweep() []float64 {
	return scaleInts([]int{100, 250, 500, 750, 1000}, o.ScaleDiv)
}

// objectsSweep is the object-count x-axis of Figs. 5 and 6.
func (o RunOpts) objectsSweep() []float64 {
	return scaleInts([]int{1000, 2500, 5000, 7500, 10000}, o.ScaleDiv)
}

func scaleInts(xs []int, div int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		v := x / div
		if v < 1 {
			v = 1
		}
		out[i] = float64(v)
	}
	return out
}

// mobiOpts builds the protocol options for a MobiEyes variant keeping the
// default dead-reckoning threshold.
func mobiOpts(mode core.PropagationMode) core.Options {
	o := sim.DefaultConfig().Core
	o.Mode = mode
	return o
}

// All runs every experiment and returns the figures in paper order.
func All(o RunOpts) []Figure {
	return []Figure{
		Fig1(o), Fig2(o), Fig3(o), Fig4(o), Fig5(o), Fig6(o), Fig7(o),
		Fig8(o), Fig9(o), Fig10(o), Fig11(o), Fig12(o), Fig13(o),
	}
}

// Table1 renders the simulation-parameter table of the paper.
func Table1(w io.Writer) {
	cfg := sim.DefaultConfig()
	rows := [][2]string{
		{"ts (time step)", fmt.Sprintf("%.0f seconds", cfg.StepSeconds)},
		{"alpha (grid cell side)", fmt.Sprintf("%.0f miles (range 0.5–16)", cfg.Alpha)},
		{"no (number of objects)", fmt.Sprintf("%d (range 1,000–10,000)", cfg.NumObjects)},
		{"nmq (number of moving queries)", fmt.Sprintf("%d (range 100–1,000)", cfg.NumQueries)},
		{"nmo (velocity changes per step)", fmt.Sprintf("%d (range 100–1,000)", cfg.VelocityChangesPerStep)},
		{"area", fmt.Sprintf("%.0f square miles", cfg.AreaSqMiles)},
		{"alen (base station side)", fmt.Sprintf("%.0f miles (range 5–80)", cfg.Alen)},
		{"qradius (query radius means)", "{3, 2, 1, 4, 5} miles, zipf(0.8), sigma = mean/5"},
		{"qselect (query selectivity)", "0.75"},
		{"mospeed (max object speeds)", "{100, 50, 150, 200, 250} mph, zipf(0.8)"},
	}
	fmt.Fprintln(w, "Table 1: Simulation Parameters")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %s\n", r[0], r[1])
	}
	fmt.Fprintln(w)
}
