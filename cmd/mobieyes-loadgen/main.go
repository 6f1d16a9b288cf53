// Command mobieyes-loadgen drives a MobiEyes backend with an open-loop,
// coordinated-omission-safe load (internal/obs/load) and writes the
// time-series report to results/loadreport.json.
//
// Ops arrive on a fixed schedule (op i at start + i/rate) and latency is
// measured from the *scheduled* arrival, so a backend stall is charged to
// every op that should have run during it — the quantiles answer "what
// would a client issuing at this rate have seen", not "how fast did the
// backend go when it felt like it" (see EXPERIMENTS.md on coordinated
// omission).
//
// Usage:
//
//	mobieyes-loadgen [-backend serial|sharded|cluster|tcp|all]
//	                 [-rate N] [-duration D] [-warmup D] [-interval D]
//	                 [-objects N] [-queries N] [-workers N]
//	                 [-shards N] [-nodes N] [-seed S]
//	                 [-trace] [-trace-events N] [-out results/loadreport.json]
//	                 [-metrics-addr :7072]
//	                 [-mutex-profile-fraction N] [-block-profile-rate NS]
//
// "sharded" and "cluster" are the same router (core.ClusterServer) over
// in-process nodes: un-journaled, as mobieyes-server -shards runs them, and
// journaled with the handoff checkpoint barrier, as -cluster-nodes does.
// -backend all runs every backend in sequence with the same workload and
// writes them as one report file. With -trace, each run additionally
// records causal traces and reports the per-stage pipeline decomposition
// (dispatch → table → fanout → deliver). With -metrics-addr, the backend's
// live metrics (queue depths, stage histograms) and /debug/latency are
// served while the run is in progress.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mobieyes/internal/obs"
	"mobieyes/internal/obs/load"
)

func main() {
	var (
		backend  = flag.String("backend", "all", "backend under load: serial, sharded, cluster, tcp, or all")
		rate     = flag.Float64("rate", 20000, "open-loop arrival rate, ops/sec")
		duration = flag.Duration("duration", 2*time.Second, "measured window")
		warmup   = flag.Duration("warmup", 500*time.Millisecond, "warmup discarded before measuring")
		interval = flag.Duration("interval", 250*time.Millisecond, "time-series sampling period")
		objects  = flag.Int("objects", 10000, "moving-object population")
		queries  = flag.Int("queries", 0, "installed queries (0 = objects/20)")
		workers  = flag.Int("workers", 0, "issuing worker pool size (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 0, "sharded/tcp backend router nodes (0 = GOMAXPROCS)")
		nodes    = flag.Int("nodes", 4, "cluster backend worker nodes")
		seed     = flag.Uint64("seed", 1, "workload seed")
		traced   = flag.Bool("trace", false, "record causal traces and report the per-stage pipeline decomposition")
		traceSz  = flag.Int("trace-events", 1<<18, "flight recorder ring size with -trace")
		out      = flag.String("out", "results/loadreport.json", "report file (empty = stdout only)")
		metrics  = flag.String("metrics-addr", "", "serve live /metrics and /debug/latency during the run (empty = off)")
		mutexPF  = flag.Int("mutex-profile-fraction", 0, "sample 1/N mutex contention events on /debug/pprof/mutex (0 = leave off, -1 = disable)")
		blockPR  = flag.Int("block-profile-rate", 0, "sample blocking events lasting ≥ N ns on /debug/pprof/block (0 = leave off, -1 = disable)")
	)
	flag.Parse()
	obs.SetContentionProfiling(*mutexPF, *blockPR)

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		ms, err := obs.ListenAndServeTraced(*metrics, reg, nil)
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		fmt.Printf("mobieyes-loadgen: metrics on http://%v/metrics\n", ms.Addr())
	}

	backends := []string{*backend}
	if *backend == "all" {
		backends = []string{"serial", "sharded", "cluster", "tcp"}
	}
	file := &load.File{}
	for _, b := range backends {
		rep, err := load.Run(load.Config{
			Backend:   b,
			Rate:      *rate,
			Duration:  *duration,
			Warmup:    *warmup,
			Interval:  *interval,
			Objects:   *objects,
			Queries:   *queries,
			Workers:   *workers,
			Shards:    *shards,
			Nodes:     *nodes,
			Seed:      *seed,
			Trace:     *traced,
			TraceSize: *traceSz,
			Registry:  reg,
		})
		if err != nil {
			fatal(err)
		}
		rep.WriteText(os.Stdout)
		file.Runs = append(file.Runs, rep)
	}

	if *out != "" {
		if dir := filepath.Dir(*out); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := file.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("mobieyes-loadgen: wrote %s (%d runs)\n", *out, len(file.Runs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mobieyes-loadgen:", err)
	os.Exit(1)
}
