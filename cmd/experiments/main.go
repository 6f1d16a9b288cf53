// Command experiments regenerates the tables and figures of the MobiEyes
// paper's evaluation (Gedik & Liu, EDBT 2004, §5).
//
// Usage:
//
//	experiments [-exp all|table1|fig1..fig13|report] [-steps N] [-warmup N]
//	            [-scalediv D] [-seed S] [-csv DIR]
//	            [-metrics-addr :7072] [-report-dir DIR]
//
// With -exp all (the default) every experiment runs in paper order. The
// -scalediv flag divides the population sizes and area by D for quick
// shape checks (1 = full paper scale). Options that leave no valid
// simulation (D < 1, a D that leaves no objects, negative step counts)
// exit 2 before any experiment runs. With -csv, each figure is also
// written as DIR/<fig>.csv.
//
// -exp report builds the structured cost & accuracy report instead (§5
// messaging-cost sweeps from protocol ledgers, EQP-vs-LQP answer quality,
// centralized baselines, qualitative checks) and writes it to
// DIR/runreport.{json,txt} given by -report-dir, plus the text form to
// stdout. The command exits non-zero if any qualitative check fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mobieyes/internal/experiments"
	"mobieyes/internal/obs"
	evtrace "mobieyes/internal/obs/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: all, table1, fig1..fig13, breakdown, alphamodel, report")
		steps    = flag.Int("steps", 10, "measured simulation steps per run")
		warmup   = flag.Int("warmup", 3, "warmup steps per run (excluded from metrics)")
		scalediv = flag.Int("scalediv", 1, "divide population sizes and area by this factor")
		seed     = flag.Int64("seed", 1, "workload random seed")
		csvDir   = flag.String("csv", "", "also write each figure as CSV into this directory")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /healthz and pprof on this address while experiments run (empty = off)")
		traceSz  = flag.Int("trace-events", 0, "causal-tracing flight recorder size in events (0 = off); requires -metrics-addr, exposed on /debug/events")
		repDir   = flag.String("report-dir", "results", "directory for -exp report artifacts (empty = stdout only)")
		mutexPF  = flag.Int("mutex-profile-fraction", 0, "sample 1/N mutex contention events on /debug/pprof/mutex (0 = leave off, -1 = disable)")
		blockPR  = flag.Int("block-profile-rate", 0, "sample blocking events lasting ≥ N ns on /debug/pprof/block (0 = leave off, -1 = disable)")
	)
	flag.Parse()
	obs.SetContentionProfiling(*mutexPF, *blockPR)

	opts := experiments.RunOpts{
		Steps:    *steps,
		Warmup:   *warmup,
		ScaleDiv: *scalediv,
		Seed:     *seed,
	}
	if *scalediv < 1 {
		fmt.Fprintln(os.Stderr, "experiments: -scalediv must be at least 1")
		os.Exit(2)
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if *traceSz > 0 {
		opts.Trace = evtrace.NewRecorder(*traceSz)
	}
	if *metrics != "" {
		reg := obs.NewRegistry()
		ms, err := obs.ListenAndServe(*metrics, reg, obs.EventsView(opts.Trace))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer ms.Close()
		opts.Metrics = reg
		fmt.Printf("metrics on http://%v/metrics\n", ms.Addr())
	}

	runners := map[string]func(experiments.RunOpts) experiments.Figure{
		"fig1": experiments.Fig1, "fig2": experiments.Fig2,
		"fig3": experiments.Fig3, "fig4": experiments.Fig4,
		"fig5": experiments.Fig5, "fig6": experiments.Fig6,
		"fig7": experiments.Fig7, "fig8": experiments.Fig8,
		"fig9": experiments.Fig9, "fig10": experiments.Fig10,
		"fig11": experiments.Fig11, "fig12": experiments.Fig12,
		"fig13": experiments.Fig13, "alphamodel": experiments.AlphaModel,
	}

	emit := func(f experiments.Figure) {
		f.WriteTable(os.Stdout)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}

	start := time.Now()
	switch *exp {
	case "all":
		experiments.Table1(os.Stdout)
		for _, id := range []string{
			"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
			"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		} {
			emit(runners[id](opts))
		}
	case "table1":
		experiments.Table1(os.Stdout)
	case "breakdown":
		experiments.WriteBreakdown(os.Stdout, experiments.Breakdown(opts))
	case "report":
		r := experiments.BuildRunReport(opts)
		r.WriteText(os.Stdout)
		if *repDir != "" {
			if err := r.WriteFiles(*repDir); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Printf("report written to %s/runreport.{json,txt}\n", *repDir)
		}
		if !r.AllChecksPass() {
			fmt.Fprintln(os.Stderr, "experiments: qualitative checks failed")
			os.Exit(1)
		}
	default:
		run, ok := runners[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *exp)
			flag.Usage()
			os.Exit(2)
		}
		emit(run(opts))
	}
	fmt.Printf("total experiment time: %v\n", time.Since(start).Round(time.Millisecond))
}

func writeCSV(dir string, f experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file, err := os.Create(filepath.Join(dir, f.ID+".csv"))
	if err != nil {
		return err
	}
	defer file.Close()
	f.WriteCSV(file)
	return file.Close()
}
