// Taxi: the paper's motivating query MQ₂ — "give me the positions of those
// customers who are looking for a taxi and are within 5 miles of my
// location during the next 20 minutes" — scripted on the simulation engine.
// A taxi cruises a 40×40 mile city; customers wait parked around town, some
// hailing a ride and some not. The moving query travels with the taxi and
// its result updates as the taxi drives.
//
//	go run ./examples/taxi
package main

import (
	"fmt"
	"math/rand"

	"mobieyes"
	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/sim"
	"mobieyes/internal/workload"
)

func main() {
	cfg := mobieyes.DefaultConfig()
	cfg.AreaSqMiles = 40 * 40
	cfg.Alpha = 4
	cfg.Core = mobieyes.Options{} // Δ = 0: results are exact

	// The filter encoding "is looking for a taxi": customers hailing a ride
	// carry property keys the filter accepts; everyone else gets keys it
	// rejects.
	rng := rand.New(rand.NewSource(7))
	hailing := model.Filter{Seed: 0xCAB, Permille: 500}

	// The taxi (object 1) starts downtown, driving northeast at 30 mph.
	objs := []workload.ObjectInit{{ID: 1, Pos: geo.Pt(8, 8), Vel: geo.Vec(21, 21), MaxVel: 60,
		PropsKey: model.MineKey(hailing, false, rng)}}
	// Customers: a grid of parked people around town, 40% hailing.
	hails := 0
	for x := 4.0; x <= 36; x += 4 {
		for y := 4.0; y <= 36; y += 4 {
			h := rng.Float64() < 0.4
			if h {
				hails++
			}
			objs = append(objs, workload.ObjectInit{ID: model.ObjectID(len(objs) + 1),
				Pos: geo.Pt(x, y), MaxVel: 3, PropsKey: model.MineKey(hailing, h, rng)})
		}
	}
	fmt.Printf("city: 1 taxi, %d people parked, %d of them hailing a ride\n\n", len(objs)-1, hails)

	w, err := workload.FromTrace(&workload.Trace{StepSeconds: cfg.StepSeconds, Objects: objs})
	if err != nil {
		panic(err)
	}
	e := sim.NewEngineOver(cfg, w)
	taxi := w.Objects[0]

	// "…during the next 20 minutes": the query carries its lifetime, as in
	// the paper's MQ₂, and uninstalls itself when the shift segment ends.
	qid := e.Server().InstallQueryUntil(taxi.ID, model.CircleRegion{R: 5}, hailing, taxi.MaxVel,
		e.Now()+model.FromSeconds(20*60))

	perReport := int(2 * 60 / cfg.StepSeconds) // steps in two minutes
	for minute := 2; minute <= 20; minute += 2 {
		for i := 0; i < perReport; i++ {
			e.Step()
		}
		fmt.Printf("t=%2d min  taxi at (%4.1f, %4.1f)  customers in range: %v\n",
			minute, taxi.Pos.X, taxi.Pos.Y, e.Server().Result(qid))
		if minute == 10 {
			taxi.Vel = geo.Vec(25, -12)
			fmt.Println("          (taxi turns south-east)")
		}
	}
	if len(e.Server().QueryIDs()) == 0 {
		fmt.Println("\nquery expired after its 20 minutes — result cleared")
	}
}
