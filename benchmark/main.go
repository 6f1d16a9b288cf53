// Command benchmark is the repository's benchmark: six named workloads, the
// end-to-end metrics a user of MobiEyes sees and, in a separate traced run,
// one row per layer. See README.md in this directory and BENCHMARK.json at
// the repository root.
//
//	go run ./benchmark -workload tcp_mix -seed 1 -seconds 16 -trace 0
//
// The last line of standard output of every run is a JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workload names (default: all)")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 16, "seconds measured per run, split between the phases")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
		quick   = flag.Bool("quick", false, "2-second smoke run; its numbers are not comparable with anything")
		sets    = flag.Int("sets", 1, "repeat the untraced runs this many times and print their agreement against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *sets < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload a,b] [-seed n] [-seconds n] [-trace 0|1] [-quick] [-sets n]")
		os.Exit(2)
	}
	if *quick {
		*seconds = 2
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			w, ok := findWorkload(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, w)
		}
	}

	printEnv(*quick)
	ok := true
	history := make(map[string][]map[string]float64) // workload → one metrics map per set
	for set := 0; set < *sets; set++ {
		for _, w := range selected {
			var r *result
			var err error
			if *trace == 1 {
				r, err = runTraced(w, *seed, *seconds, filepath.Join("benchmark", "out"))
			} else {
				r, err = runUntraced(w, *seed, *seconds)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
				os.Exit(1)
			}
			report(w, r, *seed, *seconds, *trace)
			ok = ok && len(r.problems) == 0
			history[w.name] = append(history[w.name], r.metrics)
		}
	}
	if *sets > 1 && *trace == 0 {
		if err := printAgreement(selected, history); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// printEnv records what the numbers depend on besides the code.
func printEnv(quick bool) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env: nproc=%d gomaxprocs=%d issuers=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), issuers(), runtime.Version(), commit)
	fmt.Println("env: client and server share this machine; traffic crosses loopback, not a link")
	if quick {
		fmt.Println("env: -quick smoke run: NOT COMPARABLE with any other run")
	}
}

// outcome is the last line a run prints.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of a run by name with its unit, the run's notes
// and failed checks, and the JSON line.
func report(w workload, r *result, seed uint64, seconds, trace int) {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	fmt.Printf("\n== %s seed=%d seconds=%d trace=%d ==\n", w.name, seed, seconds, trace)
	if w.kind != kindSim {
		fmt.Printf("inputs: sha256 of the first 10000 ops %s\n", streamHash(w.stream, seed, 10000))
	}
	out := outcome{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v := r.metrics[d.name]
		fmt.Printf("%-34s %16.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or an infinity can make this fail.
		fmt.Fprintf(os.Stderr, "%s: metrics not representable: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// benchmarkFile is the part of BENCHMARK.json that -sets reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// printAgreement prints, for every end-to-end metric of every workload, the
// values the sets measured and whether their spread, (max − min) ÷ median,
// stays within the metric's bound.
func printAgreement(selected []workload, history map[string][]map[string]float64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-sets reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Printf("\n== agreement of %d sets ==\n", len(history[selected[0].name]))
	for _, w := range selected {
		for _, d := range file.EndToEnd {
			var vals []float64
			for _, m := range history[w.name] {
				vals = append(vals, m[d.Name])
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
			}
			spread := 0.0
			if med := median(vals); med != 0 {
				spread = (hi - lo) / med
			}
			verdict := "within"
			if spread > d.Bound {
				verdict = "OUTSIDE"
			}
			fmt.Printf("%-14s %-22s spread %6.3f bound %5.3f %-7s %v\n", w.name, d.Name, spread, d.Bound, verdict, vals)
		}
	}
	return nil
}
