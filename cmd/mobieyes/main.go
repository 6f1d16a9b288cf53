// Command mobieyes runs a single configured simulation of the MobiEyes
// system (or one of the paper's centralized baselines) and prints the
// collected metrics.
//
// Usage:
//
//	mobieyes [-approach mobieyes|naive|centralopt|objectindex|queryindex]
//	         [-objects N] [-queries N] [-nmo N] [-alpha MILES] [-alen MILES]
//	         [-area SQMILES] [-steps N] [-warmup N] [-seed S]
//	         [-lazy] [-safeperiod] [-grouping] [-delta MILES] [-error]
//
// Example — the paper's default setup with lazy query propagation:
//
//	mobieyes -lazy -error
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/sim"
	"mobieyes/internal/workload"
)

func main() {
	var (
		approach   = flag.String("approach", "mobieyes", "mobieyes, naive, centralopt, objectindex or queryindex")
		objects    = flag.Int("objects", 10000, "number of moving objects (no)")
		queries    = flag.Int("queries", 1000, "number of moving queries (nmq)")
		nmo        = flag.Int("nmo", 1000, "objects changing velocity per step")
		alpha      = flag.Float64("alpha", 5, "grid cell side length in miles")
		alen       = flag.Float64("alen", 10, "base station side length in miles")
		area       = flag.Float64("area", 100000, "universe of discourse area in square miles")
		steps      = flag.Int("steps", 20, "measured steps")
		warmup     = flag.Int("warmup", 5, "warmup steps")
		seed       = flag.Int64("seed", 1, "workload seed")
		lazy       = flag.Bool("lazy", false, "use lazy query propagation (MobiEyes only)")
		safe       = flag.Bool("safeperiod", false, "enable the safe period optimization")
		predictive = flag.Bool("predictive", false, "enable the predictive entry-time scheduler (extension)")
		grouping   = flag.Bool("grouping", false, "enable query grouping")
		delta      = flag.Float64("delta", 0.01, "dead reckoning threshold in miles")
		withError  = flag.Bool("error", false, "measure result error against ground truth")
		timeseries = flag.Bool("timeseries", false, "print per-step metrics (MobiEyes only)")
		parallel   = flag.Int("parallel", 0, "worker goroutines for the per-object phases")
		mobility   = flag.String("mobility", "walk", "mobility model: walk, waypoint or gaussmarkov")
	)
	flag.Parse()

	cfg := sim.DefaultConfig()
	cfg.NumObjects = *objects
	cfg.NumQueries = *queries
	cfg.VelocityChangesPerStep = *nmo
	cfg.Alpha = *alpha
	cfg.Alen = *alen
	cfg.AreaSqMiles = *area
	cfg.Steps = *steps
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.MeasureError = *withError
	cfg.Core = core.Options{
		DeadReckoningThreshold: *delta,
		SafePeriod:             *safe,
		Predictive:             *predictive,
		Grouping:               *grouping,
	}
	if *lazy {
		cfg.Core.Mode = core.LazyPropagation
	}

	switch *approach {
	case "mobieyes":
		cfg.Approach = sim.MobiEyes
	case "naive":
		cfg.Approach = sim.Naive
	case "centralopt":
		cfg.Approach = sim.CentralOptimal
	case "objectindex":
		cfg.Approach = sim.ObjectIndex
	case "queryindex":
		cfg.Approach = sim.QueryIndex
	default:
		fmt.Fprintf(os.Stderr, "mobieyes: unknown approach %q\n", *approach)
		flag.Usage()
		os.Exit(2)
	}

	cfg.Parallelism = *parallel
	switch *mobility {
	case "walk":
	case "waypoint":
		cfg.Mobility = workload.RandomWaypoint
	case "gaussmarkov":
		cfg.Mobility = workload.GaussMarkov
	default:
		fmt.Fprintf(os.Stderr, "mobieyes: unknown mobility %q\n", *mobility)
		os.Exit(2)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "mobieyes: %v\n", err)
		os.Exit(2)
	}

	start := time.Now()
	var m sim.Metrics
	var history []sim.StepRecord
	if cfg.Approach == sim.MobiEyes && *timeseries {
		e := sim.NewEngine(cfg)
		e.CollectHistory()
		m = e.Run()
		history = e.History()
	} else {
		m = sim.Run(cfg)
	}
	elapsed := time.Since(start)

	if history != nil {
		fmt.Printf("%6s %10s %10s %12s %10s %10s\n",
			"step", "uplink", "downlink", "server", "avgLQT", "error")
		for _, rec := range history {
			fmt.Printf("%6d %10d %10d %12s %10.3f %10.4f\n",
				rec.Step, rec.UplinkMsgs, rec.DownlinkMsgs,
				time.Duration(rec.ServerNanos).Round(time.Microsecond),
				rec.AvgLQTSize, rec.Error)
		}
		fmt.Println()
	}

	fmt.Printf("approach:          %s", m.Approach)
	if cfg.Approach == sim.MobiEyes {
		fmt.Printf(" (%s", cfg.Core.Mode)
		if cfg.Core.SafePeriod {
			fmt.Print(", safe period")
		}
		if cfg.Core.Grouping {
			fmt.Print(", grouping")
		}
		fmt.Print(")")
	}
	fmt.Println()
	fmt.Printf("steps:             %d measured (+%d warmup), %.0f s simulated\n", m.Steps, cfg.Warmup, m.Seconds)
	fmt.Printf("messages:          %.1f /s total, %.1f /s uplink, %.1f /s downlink\n",
		m.MessagesPerSecond(), m.UplinkMessagesPerSecond(),
		m.MessagesPerSecond()-m.UplinkMessagesPerSecond())
	fmt.Printf("bytes:             %d uplink, %d downlink\n", m.UplinkBytes, m.DownlinkBytes)
	fmt.Printf("server load:       %v per step\n", m.ServerLoadPerStep())
	if cfg.Approach == sim.MobiEyes {
		fmt.Printf("client load:       %v per object per step\n", m.ClientLoadPerObjectStep(cfg.NumObjects))
		fmt.Printf("avg LQT size:      %.3f\n", m.AvgLQTSize)
		fmt.Printf("evaluations:       %d (%d skipped by safe periods)\n", m.Evals, m.Skipped)
		fmt.Printf("server ops:        %d\n", m.ServerOps)
	}
	fmt.Printf("power:             %.3f mW per object\n", m.AvgPowerWatts*1000)
	if cfg.MeasureError {
		fmt.Printf("result error:      %.5f\n", m.AvgError)
	}
	fmt.Printf("wall time:         %v\n", elapsed.Round(time.Millisecond))
}
