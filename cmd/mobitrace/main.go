// Command mobitrace records, inspects and replays mobility traces
// (workload.Trace): portable, deterministic captures of a workload run that
// make protocol scenarios reproducible across machines and versions.
//
// Usage:
//
//	mobitrace record -out scenario.trace [-objects N] [-steps N] [-seed S]
//	                 [-area SQMILES] [-nmo N] [-mobility walk|waypoint|gaussmarkov]
//	mobitrace info   -in scenario.trace
//	mobitrace replay -in scenario.trace
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"mobieyes/internal/geo"
	"mobieyes/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mobitrace record|info|replay [flags]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "", "output trace file (required)")
	objects := fs.Int("objects", 1000, "number of moving objects")
	steps := fs.Int("steps", 100, "steps to record")
	seed := fs.Int64("seed", 1, "workload seed")
	area := fs.Float64("area", 10000, "area in square miles")
	nmo := fs.Int("nmo", 100, "velocity changes per step (random walk)")
	mobility := fs.String("mobility", "walk", "mobility model: walk, waypoint or gaussmarkov")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "mobitrace record: -out is required")
		os.Exit(2)
	}

	side := math.Sqrt(*area)
	cfg := workload.Default(geo.NewRect(0, 0, side, side))
	cfg.NumObjects = *objects
	cfg.NumQueries = 1 // queries are not part of a mobility trace
	cfg.VelocityChangesPerStep = *nmo
	cfg.Seed = *seed
	switch *mobility {
	case "walk":
	case "waypoint":
		cfg.Mobility = workload.RandomWaypoint
	case "gaussmarkov":
		cfg.Mobility = workload.GaussMarkov
	default:
		fmt.Fprintf(os.Stderr, "mobitrace: unknown mobility %q\n", *mobility)
		os.Exit(2)
	}
	w := workload.New(cfg)
	tr := w.Record(*steps)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := tr.Write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	st, _ := os.Stat(*out)
	fmt.Printf("recorded %d objects × %d steps (%s mobility) to %s (%d bytes)\n",
		*objects, *steps, cfg.Mobility, *out, st.Size())
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "trace file (required)")
	fs.Parse(args)
	tr := mustRead(*in)

	changes := 0
	for _, st := range tr.Steps {
		changes += len(st.Changes)
	}
	fmt.Printf("trace:            %s\n", *in)
	fmt.Printf("objects:          %d\n", len(tr.Objects))
	fmt.Printf("steps:            %d × %.0f s (%.1f simulated minutes)\n",
		len(tr.Steps), tr.StepSeconds, float64(len(tr.Steps))*tr.StepSeconds/60)
	fmt.Printf("velocity changes: %d total, %.2f per step\n",
		changes, float64(changes)/float64(max(len(tr.Steps), 1)))
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "", "trace file (required)")
	fs.Parse(args)
	tr := mustRead(*in)

	// Replay twice and verify the trajectories are identical — the
	// determinism check that makes traces trustworthy regression inputs.
	a, err := workload.FromTrace(tr)
	if err != nil {
		fatal(err)
	}
	b, _ := workload.FromTrace(tr) // same trace: err is nil
	for range tr.Steps {
		a.Step()
		b.Step()
	}
	for i := range a.Objects {
		if a.Objects[i].Pos != b.Objects[i].Pos {
			fmt.Fprintf(os.Stderr, "mobitrace: replay diverged at object %d\n", i)
			os.Exit(1)
		}
	}
	// Bounding box of final positions as a quick sanity signal.
	lo, hi := a.Objects[0].Pos, a.Objects[0].Pos
	for _, o := range a.Objects {
		if o.Pos.X < lo.X {
			lo.X = o.Pos.X
		}
		if o.Pos.Y < lo.Y {
			lo.Y = o.Pos.Y
		}
		if o.Pos.X > hi.X {
			hi.X = o.Pos.X
		}
		if o.Pos.Y > hi.Y {
			hi.Y = o.Pos.Y
		}
	}
	fmt.Printf("replayed %d steps over %d objects deterministically\n", len(tr.Steps), len(a.Objects))
	fmt.Printf("final positions span [%.1f, %.1f] × [%.1f, %.1f]\n", lo.X, hi.X, lo.Y, hi.Y)
}

func mustRead(path string) *workload.Trace {
	if path == "" {
		fmt.Fprintln(os.Stderr, "mobitrace: -in is required")
		os.Exit(2)
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := workload.ReadTrace(f)
	if err != nil {
		fatal(err)
	}
	return tr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mobitrace:", err)
	os.Exit(1)
}
