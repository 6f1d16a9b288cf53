// Battlefield: the paper's motivating query MQ₁ — "give me the number of
// friendly units within 5 miles radius around me during the next 2 hours" —
// posed by a moving commander, scripted on the simulation engine for the
// first 40 minutes. Two concentric queries (5 and 10 miles) are bound to the
// same focal object with query grouping enabled, exercising the §4.1
// optimization: one broadcast and one distance computation serve both
// queries, and results come back as query bitmaps. At the end both results
// are checked against brute-force ground truth; the program exits 1 if they
// differ.
//
//	go run ./examples/battlefield
package main

import (
	"fmt"
	"math/rand"
	"os"

	"mobieyes"
	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/sim"
	"mobieyes/internal/workload"
)

func main() {
	cfg := mobieyes.DefaultConfig()
	cfg.AreaSqMiles = 60 * 60
	cfg.Alpha = 5
	cfg.Core = mobieyes.Options{Grouping: true} // Δ = 0: results are exact

	rng := rand.New(rand.NewSource(11))
	friendly := model.Filter{Seed: 0xF00D, Permille: 500}

	// The commander's column (object 1) advances east at 12 mph.
	objs := []workload.ObjectInit{{ID: 1, Pos: geo.Pt(10, 30), Vel: geo.Vec(12, 0), MaxVel: 40,
		PropsKey: model.MineKey(friendly, true, rng)}}
	// Friendly units advance in loose formation around the commander;
	// hostile units (filter rejects them) patrol the same area.
	nFriendly, nHostile := 0, 0
	for i := 0; i < 30; i++ {
		isFriend := i%3 != 0 // two thirds friendly
		key := model.MineKey(friendly, isFriend, rng)
		pos := geo.Pt(10+rng.Float64()*30, 15+rng.Float64()*30)
		vel := geo.Vec(10+rng.Float64()*4, rng.Float64()*4-2)
		if !isFriend {
			vel = geo.Vec(-8+rng.Float64()*4, rng.Float64()*6-3)
			nHostile++
		} else {
			nFriendly++
		}
		objs = append(objs, workload.ObjectInit{ID: model.ObjectID(len(objs) + 1),
			Pos: pos, Vel: vel, MaxVel: 40, PropsKey: key})
	}
	fmt.Printf("battlefield: commander + %d friendly and %d hostile units\n\n", nFriendly, nHostile)

	w, err := workload.FromTrace(&workload.Trace{StepSeconds: cfg.StepSeconds, Objects: objs})
	if err != nil {
		panic(err)
	}
	w.Queries = []workload.QuerySpec{
		{Focal: 1, Radius: 5, Filter: friendly},
		{Focal: 1, Radius: 10, Filter: friendly},
	}
	e := sim.NewEngineOver(cfg, w)
	qids := e.Server().QueryIDs() // near, far: installed in w.Queries order
	commander := w.Objects[0]

	perReport := int(4 * 60 / cfg.StepSeconds) // steps in four minutes
	for minute := 4; minute <= 40; minute += 4 {
		for i := 0; i < perReport; i++ {
			e.Step()
		}
		nNear, nFar := len(e.Server().Result(qids[0])), len(e.Server().Result(qids[1]))
		fmt.Printf("t=%2d min  commander at (%4.1f, %4.1f)  friendlies ≤5 mi: %2d  ≤10 mi: %2d\n",
			minute, commander.Pos.X, commander.Pos.Y, nNear, nFar)
	}
	if err := e.VerifyExact(); err != nil {
		fmt.Fprintln(os.Stderr, "!! results differ from ground truth:", err)
		os.Exit(1)
	}
	fmt.Println("\nboth results match brute-force ground truth (grouped evaluation is exact)")
}
