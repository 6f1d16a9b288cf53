// Geofence: a rectangular moving query region combined with result events.
// A delivery van carries a 4×2 mile rectangular "loading zone" query (§2.3
// allows any closed shape with a cheap containment check); couriers waiting
// along the van's street enter and leave the zone as it drives past, and the
// application consumes the enter/leave events from the server's result
// listener instead of polling. The scenario is scripted on the simulation
// engine, so its times are simulated minutes.
//
//	go run ./examples/geofence
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
	cfg.AreaSqMiles = 30 * 30
	cfg.Alpha = 3
	cfg.Core = mobieyes.Options{} // Δ = 0: results are exact

	rng := rand.New(rand.NewSource(5))
	courierFilter := model.Filter{Seed: 0xBEEF, Permille: 500}

	// The van (object 1) drives east along y = 15 at 18 mph.
	objs := []workload.ObjectInit{{ID: 1, Pos: geo.Pt(4, 15), Vel: geo.Vec(18, 0), MaxVel: 40,
		PropsKey: model.MineKey(courierFilter, false, rng)}}
	add := func(pos geo.Point, vel geo.Vector, courier bool) {
		objs = append(objs, workload.ObjectInit{ID: model.ObjectID(len(objs) + 1), Pos: pos, Vel: vel,
			MaxVel: 40, PropsKey: model.MineKey(courierFilter, courier, rng)})
	}
	// One courier waits at the curb of every cross street on the van's
	// route (slow drift), plus background traffic the query filter rejects
	// driving north on the same streets.
	couriers := 0
	for lane := 6.0; lane <= 18; lane += 3 {
		add(geo.Pt(lane, 15), geo.Vec(0, rng.Float64()-0.5), true)
		couriers++
		add(geo.Pt(lane, 3+rng.Float64()*12), geo.Vec(0, 6+rng.Float64()*4), false)
	}
	fmt.Printf("geofence: 1 van, %d vehicles (%d couriers) on the grid\n\n", len(objs)-1, couriers)

	w, err := workload.FromTrace(&workload.Trace{StepSeconds: cfg.StepSeconds, Objects: objs})
	if err != nil {
		panic(err)
	}
	e := sim.NewEngineOver(cfg, w)
	van := w.Objects[0]

	enters, leaves := 0, 0
	e.Server().SetResultListener(func(ev mobieyes.ResultEvent) {
		verb := "left"
		if ev.Entered {
			verb = "ENTERED"
			enters++
		} else {
			leaves++
		}
		fmt.Printf("t=%4.1f min  van at (%4.1f, %4.1f): courier %-3d %s the loading zone\n",
			e.Now().Seconds()/60, van.Pos.X, van.Pos.Y, ev.OID, verb)
	})
	zone := mobieyes.RectRegion{W: 4, H: 2} // 4×2 mile zone centered on the van
	e.Server().InstallQuery(van.ID, zone, courierFilter, van.MaxVel)

	for step := 0; step < int(40*60/cfg.StepSeconds); step++ { // 40 minutes
		e.Step()
	}
	fmt.Printf("\n%d zone entries, %d exits observed via the event stream\n", enters, leaves)
}
