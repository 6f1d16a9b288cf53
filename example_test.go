package mobieyes_test

import (
	"fmt"

	"mobieyes"
	"mobieyes/internal/geo"
	"mobieyes/internal/sim"
	"mobieyes/internal/workload"
)

// ExampleRun simulates a small MobiEyes deployment and prints whether the
// distributed protocol produced exact results.
func ExampleRun() {
	cfg := mobieyes.DefaultConfig()
	cfg.NumObjects = 400
	cfg.NumQueries = 40
	cfg.VelocityChangesPerStep = 40
	cfg.AreaSqMiles = 4000
	cfg.Steps = 5
	cfg.Warmup = 2
	cfg.MeasureError = true

	m := mobieyes.Run(cfg)
	fmt.Printf("approach: %v\n", m.Approach)
	fmt.Printf("exact results: %v\n", m.AvgError == 0)
	// Output:
	// approach: MobiEyes
	// exact results: true
}

// Example_scenario scripts a scenario on the simulation engine: explicit
// objects from a step-less trace, one circle query, and a velocity change
// between steps. Object 2 drives east out of the query's 3-mile circle.
func Example_scenario() {
	cfg := mobieyes.DefaultConfig()
	cfg.AreaSqMiles = 50 * 50
	cfg.Core = mobieyes.Options{} // Δ = 0: results are exact
	w, err := workload.FromTrace(&workload.Trace{
		StepSeconds: cfg.StepSeconds,
		Objects: []workload.ObjectInit{
			{ID: 1, Pos: geo.Pt(25, 25), MaxVel: 100, PropsKey: 1},
			{ID: 2, Pos: geo.Pt(26, 25), MaxVel: 100, PropsKey: 2},
		},
	})
	if err != nil {
		panic(err)
	}
	anyone := mobieyes.Filter{Seed: 1, Permille: 1000}
	w.Queries = []workload.QuerySpec{{Focal: 1, Radius: 3, Filter: anyone}}
	e := sim.NewEngineOver(cfg, w)
	qid := e.Server().QueryIDs()[0]

	e.Step()
	fmt.Printf("targets: %v\n", e.Server().Result(qid))
	e.Workload().Objects[1].Vel = geo.Vec(100, 0)
	for i := 0; i < 4; i++ {
		e.Step()
	}
	fmt.Printf("after 2 minutes at 100 mph: %v\n", e.Server().Result(qid))
	fmt.Println("exact:", e.VerifyExact() == nil)
	// Output:
	// targets: [1 2]
	// after 2 minutes at 100 mph: [1]
	// exact: true
}
