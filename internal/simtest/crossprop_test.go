package simtest

import (
	"fmt"
	"math/rand"
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/sim"
	"mobieyes/internal/workload"
)

// TestCrossPropagationConvergence drives an eager-propagation engine and a
// lazy-propagation engine through the same seeded workload. LQP results
// may transiently miss objects (the paper's Fig. 2 error), because
// non-focal objects stay silent on cell crossings and only learn nearby
// queries from the next expanded velocity-change broadcast. The test
// therefore asserts the convergence property instead of lockstep equality:
// after every focal relays its velocity (here forced by re-aiming every
// object) and one step completes, LQP's results must equal EQP's — and
// both must equal the ground truth, since Δ = 0 keeps the focal states
// exact.
func TestCrossPropagationConvergence(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(301); seed < int64(301+seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCrossProp(t, seed)
		})
	}
}

func runCrossProp(t *testing.T, seed int64) {
	sc := Scenario{Seed: seed, NumObjects: 40, NumSpecs: 10}
	wl := workload.New(sc.workloadConfig())
	g := grid.New(wl.Config().UoD, alphaMiles)
	dt := model.FromSeconds(wl.Config().StepSeconds)

	eqp := newLocalSystem("eqp", g, core.Options{Mode: core.EagerPropagation}, wl.Objects, 0, 0, false)
	lqp := newLocalSystem("lqp", g, core.Options{Mode: core.LazyPropagation}, wl.Objects, 0, 0, false)
	engines := []*localSystem{eqp, lqp}

	var now model.Time
	for _, o := range wl.Objects {
		for _, e := range engines {
			e.join(o, now)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	ops := Generate(rng, GenConfig{Ops: 14, NumSpecs: sc.NumSpecs})
	specByQID := make(map[model.QueryID]workload.QuerySpec)
	for _, op := range ops {
		switch op.Kind {
		case OpStep:
			now += dt
			wl.Step()
			for _, e := range engines {
				e.step(now)
			}
		case OpInstall:
			spec := wl.Queries[op.A%len(wl.Queries)]
			maxVel := wl.Objects[int(spec.Focal)-1].MaxVel
			q1, _ := eqp.install(spec, maxVel, now)
			q2, _ := lqp.install(spec, maxVel, now)
			if q1 != q2 {
				t.Fatalf("query ID divergence: eqp %d, lqp %d", q1, q2)
			}
			specByQID[q1] = spec
		case OpRemove:
			ids := eqp.queryIDs()
			if len(ids) == 0 {
				continue
			}
			qid := ids[op.A%len(ids)]
			for _, e := range engines {
				e.remove(qid, now)
			}
		}
	}

	// Force convergence: a fresh velocity on every object makes every
	// focal relay on the next dead-reckoning tick, and under LQP the
	// relay broadcast carries full query state to everyone.
	for _, o := range wl.Objects {
		wl.RandomizeVelocity(o)
	}
	for k := 0; k < 2; k++ {
		wl.BounceAtBorders()
		now += dt
		for _, o := range wl.Objects {
			o.Move(dt)
		}
		for _, e := range engines {
			e.step(now)
		}
	}

	ids := eqp.queryIDs()
	if err := diffIDs(ids, lqp.queryIDs()); err != nil {
		t.Fatalf("query sets diverged: %v", err)
	}
	for _, qid := range ids {
		want := eqp.result(qid)
		got := lqp.result(qid)
		if !oidsEqual(want, got) {
			t.Errorf("query %d: EQP %v, LQP %v after convergence step", qid, want, got)
		}
		if spec, ok := specByQID[qid]; ok {
			gt := sim.GroundTruth(g, wl.Objects, spec)
			if !oidsEqual(want, gt) {
				t.Errorf("query %d: EQP %v, ground truth %v", qid, want, gt)
			}
		}
	}
}
