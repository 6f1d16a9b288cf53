package simtest

import (
	"fmt"
	"strings"
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/obs"
	"mobieyes/internal/workload"
)

// TestQueueDepthGaugesZeroAtQuiescence (PR 9 satellite): the router's
// in-flight-ops gauge must read exactly zero whenever the system is
// quiescent, over four nodes and over three — every depth increment taken
// during dispatch must be paired with a decrement on every exit path. The harness drives a full protocol schedule (joins, installs,
// mobility steps, departures) and checks the gauges between every phase:
// local drivers dispatch synchronously, so any nonzero reading is a leaked
// increment, not in-flight work.
func TestQueueDepthGaugesZeroAtQuiescence(t *testing.T) {
	wl := workload.New(workload.Config{
		UoD:                    geo.NewRect(0, 0, 100, 100),
		NumObjects:             30,
		NumQueries:             6,
		VelocityChangesPerStep: 7,
		StepSeconds:            30,
		MaxSpeeds:              []float64{100, 50, 150},
		RadiusMeans:            []float64{5, 3, 8},
		RadiusStdDevFrac:       0.2,
		ZipfTheta:              0.8,
		SelectivityPermille:    850,
		RadiusFactor:           1,
		Seed:                   909,
	})
	g := grid.New(wl.Config().UoD, alphaMiles)

	for _, nodes := range []int{4, 3} {
		name := fmt.Sprintf("nodes=%d", nodes)
		t.Run(name, func(t *testing.T) {
			ls := newLocalSystem(name, g, core.Options{}, wl.Objects, nodes, 0, false)
			reg := obs.NewRegistry()
			ls.srv.Instrument(reg)

			check := func(phase string) {
				t.Helper()
				if err := depthGaugesZero(ls.srv.(*core.ClusterServer), reg); err != nil {
					t.Fatalf("after %s: %v", phase, err)
				}
			}

			now := model.Time(0)
			for _, o := range wl.Objects {
				if err := ls.join(o, now); err != nil {
					t.Fatal(err)
				}
			}
			check("joins")
			for _, spec := range wl.Queries {
				maxVel := wl.Objects[int(spec.Focal)-1].MaxVel
				if _, err := ls.install(spec, maxVel, now); err != nil {
					t.Fatal(err)
				}
			}
			check("installs")
			for i := 0; i < 5; i++ {
				wl.Step()
				now += model.FromSeconds(30)
				if err := ls.step(now); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("step %d", i))
			}
			if err := ls.depart(wl.Objects[0].ID, now); err != nil {
				t.Fatal(err)
			}
			check("departure")
		})
	}
}

// depthGaugesZero checks both the direct accessor and the registry's view
// of the queue-depth gauge.
func depthGaugesZero(cs *core.ClusterServer, reg *obs.Registry) error {
	if n := cs.InflightOps(); n != 0 {
		return fmt.Errorf("inflight ops = %d, want 0", n)
	}
	const prefix = "mobieyes_cluster_inflight_ops"
	found := false
	for name, v := range reg.Snapshot() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		found = true
		if g, ok := v.(float64); !ok || g != 0 {
			return fmt.Errorf("gauge %s = %v, want 0", name, v)
		}
	}
	if !found {
		return fmt.Errorf("no gauges with prefix %q registered", prefix)
	}
	return nil
}
