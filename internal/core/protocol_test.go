package core

import (
	"math/rand"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

func smallGrid() *grid.Grid { return grid.New(geo.NewRect(0, 0, 100, 100), 5) }

// matchAll accepts every object.
var matchAll = model.Filter{Seed: 1, Permille: 1000}

func TestInstallQueryKnownLifecycle(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11) // focal
	h.addObject(2, geo.Pt(51, 50), geo.Vec(0, 0), 100, 22) // inside region
	h.addObject(3, geo.Pt(90, 90), geo.Vec(0, 0), 100, 33) // far away

	qid := h.install(1, 3, matchAll, 100)
	if h.server.NumQueries() != 1 {
		t.Fatalf("NumQueries = %d", h.server.NumQueries())
	}
	// FocalInfoRequest flow ran: the server asked object 1 for its state.
	if h.downCount[msg.KindFocalInfoRequest] != 1 {
		t.Errorf("FocalInfoRequest count = %d", h.downCount[msg.KindFocalInfoRequest])
	}
	if h.upCount[msg.KindFocalInfoResponse] != 1 {
		t.Errorf("FocalInfoResponse count = %d", h.upCount[msg.KindFocalInfoResponse])
	}
	// The focal object knows it is focal.
	if !h.clients[0].HasMQ() {
		t.Error("focal object's hasMQ not set")
	}
	// Objects in the monitoring region installed the query.
	if h.clients[1].LQTSize() != 1 {
		t.Errorf("object 2 LQT size = %d, want 1", h.clients[1].LQTSize())
	}
	// Object 3's cell is far outside the monitoring region.
	if h.clients[2].LQTSize() != 0 {
		t.Errorf("object 3 LQT size = %d, want 0", h.clients[2].LQTSize())
	}

	// After one evaluation step the result matches ground truth.
	h.step(model.FromSeconds(30))
	if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
		t.Errorf("Result = %v, want %v", got, want)
	}
	// Both the focal itself and object 2 are inside.
	if !h.server.ResultContains(qid, 1) || !h.server.ResultContains(qid, 2) {
		t.Errorf("result should contain objects 1 and 2: %v", h.server.Result(qid))
	}
	if h.server.ResultContains(qid, 3) {
		t.Error("object 3 must not be in the result")
	}
}

func TestInstallSecondQuerySameFocalSkipsInfoRequest(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	h.install(1, 3, matchAll, 100)
	h.install(1, 5, matchAll, 100)
	// §3.3 step 2: the FOT already has the focal — one info request total.
	if h.downCount[msg.KindFocalInfoRequest] != 1 {
		t.Errorf("FocalInfoRequest count = %d, want 1", h.downCount[msg.KindFocalInfoRequest])
	}
	if h.server.NumQueries() != 2 {
		t.Errorf("NumQueries = %d", h.server.NumQueries())
	}
}

func TestInstallRespectsFilter(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	h.addObject(2, geo.Pt(51, 50), geo.Vec(0, 0), 100, 22)
	// A filter that rejects everything: nobody installs, result stays empty.
	qid := h.install(1, 3, model.Filter{Seed: 5, Permille: 0}, 100)
	if h.clients[1].LQTSize() != 0 {
		t.Error("object 2 installed a query whose filter rejects it")
	}
	h.step(model.FromSeconds(30))
	if n := h.server.ResultSize(qid); n != 0 {
		t.Errorf("result size = %d, want 0", n)
	}
}

func TestMonitoringRegionAndRQI(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(52.5, 52.5), geo.Vec(0, 0), 100, 11) // cell (10,10)
	qid := h.install(1, 3, matchAll, 100)
	mr, ok := h.server.MonRegion(qid)
	if !ok {
		t.Fatal("MonRegion missing")
	}
	want := h.g.MonitoringRegion(grid.CellID{Col: 10, Row: 10}, 3)
	if mr != want {
		t.Errorf("MonRegion = %v, want %v", mr, want)
	}
	// RQI lists the query for cells in the region, not others.
	if qs := h.server.NearbyQueries(grid.CellID{Col: 10, Row: 10}); len(qs) != 1 || qs[0] != qid {
		t.Errorf("NearbyQueries(center) = %v", qs)
	}
	if qs := h.server.NearbyQueries(grid.CellID{Col: 0, Row: 0}); len(qs) != 0 {
		t.Errorf("NearbyQueries(far) = %v", qs)
	}
}

func TestRemoveQuery(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	h.addObject(2, geo.Pt(51, 50), geo.Vec(0, 0), 100, 22)
	qid := h.install(1, 3, matchAll, 100)
	h.step(model.FromSeconds(30))
	if !h.server.ResultContains(qid, 2) {
		t.Fatal("precondition: object 2 in result")
	}
	if !h.server.RemoveQuery(qid) {
		t.Fatal("RemoveQuery returned false")
	}
	h.flushDown()
	if h.server.NumQueries() != 0 {
		t.Error("query still installed")
	}
	if h.clients[1].LQTSize() != 0 {
		t.Error("object 2 still holds the removed query")
	}
	if h.clients[0].HasMQ() {
		t.Error("focal flag not cleared after last query removed")
	}
	if h.server.RemoveQuery(qid) {
		t.Error("second RemoveQuery returned true")
	}
	// RQI is clean.
	if qs := h.server.NearbyQueries(grid.CellID{Col: 10, Row: 10}); len(qs) != 0 {
		t.Errorf("RQI still lists removed query: %v", qs)
	}
}

func TestVelocityChangeRelay(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 200, 11)   // focal, still
	h.addObject(2, geo.Pt(55.5, 50), geo.Vec(0, 0), 200, 22) // 5.5 mi away, outside r=3
	qid := h.install(1, 3, matchAll, 200)

	h.step(model.FromSeconds(30))
	if h.server.ResultContains(qid, 2) {
		t.Fatal("object 2 should start outside")
	}

	// Focal starts moving east at 200 mph: dead reckoning must relay, and
	// object 2 must flip to target once the region reaches it.
	h.objs[0].Vel = geo.Vec(200, 0)
	for i := 0; i < 4 && !h.server.ResultContains(qid, 2); i++ {
		h.step(model.FromSeconds(30)) // 200 mph = 1.67 mi per step
	}
	if !h.server.ResultContains(qid, 2) {
		t.Fatal("object 2 never became a target while focal approached")
	}
	if h.upCount[msg.KindVelocityReport] == 0 {
		t.Error("no velocity report was relayed")
	}
	if h.downCount[msg.KindVelocityChange] == 0 {
		t.Error("no velocity change broadcast")
	}
	if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
		t.Errorf("Result = %v, want %v", got, want)
	}
}

func TestNoRelayForConstantVelocity(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(20, 50), geo.Vec(60, 0), 100, 11)
	h.addObject(2, geo.Pt(22, 50), geo.Vec(60, 0), 100, 22)
	h.install(1, 3, matchAll, 100)
	base := h.upCount[msg.KindVelocityReport]
	for i := 0; i < 10; i++ {
		h.step(model.FromSeconds(30))
	}
	// Constant velocity ⇒ zero deviation ⇒ no velocity reports (cell-change
	// reports piggyback the state instead).
	if h.upCount[msg.KindVelocityReport] != base {
		t.Errorf("velocity reports sent for constant motion: %d", h.upCount[msg.KindVelocityReport]-base)
	}
}

func TestFocalCellChangeRelocatesQuery(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	// Focal near the right edge of cell (10,10), moving east.
	h.addObject(1, geo.Pt(54.9, 52.5), geo.Vec(120, 0), 200, 11)
	h.addObject(2, geo.Pt(56, 52.5), geo.Vec(0, 0), 200, 22)
	qid := h.install(1, 2, matchAll, 200)
	before, _ := h.server.MonRegion(qid)

	h.step(model.FromSeconds(60)) // 120 mph for 60 s = 2 miles east → cell (11,10)
	after, ok := h.server.MonRegion(qid)
	if !ok {
		t.Fatal("query vanished")
	}
	if before == after {
		t.Fatal("monitoring region did not move with the focal object")
	}
	if h.upCount[msg.KindCellChangeReport] == 0 {
		t.Error("no cell change report")
	}
	// RQI reflects the new region only.
	cellOld := grid.CellID{Col: before.Min.Col, Row: before.Min.Row}
	if after.Contains(cellOld) == false {
		if qs := h.server.NearbyQueries(cellOld); len(qs) != 0 {
			t.Errorf("RQI still lists query at old region corner: %v", qs)
		}
	}
	if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
		t.Errorf("Result = %v, want %v", got, want)
	}
}

func TestNonFocalCellChangeGetsQueriesEQP(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(52.5, 52.5), geo.Vec(0, 0), 200, 11) // focal, cell (10,10)
	// Object 2 starts far away, moving toward the query region.
	h.addObject(2, geo.Pt(77.5, 52.5), geo.Vec(-300, 0), 300, 22)
	qid := h.install(1, 3, matchAll, 300)
	if h.clients[1].LQTSize() != 0 {
		t.Fatal("object 2 should not have the query yet")
	}
	// Walk west 2.5 miles per step; on entering the monitoring region the
	// server must ship the query one-to-one.
	sawInstall := false
	for i := 0; i < 12; i++ {
		h.step(model.FromSeconds(30))
		if h.clients[1].LQTSize() == 1 {
			sawInstall = true
		}
		if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
			t.Fatalf("step %d: Result = %v, want %v", i, got, want)
		}
	}
	if !sawInstall {
		t.Fatal("object 2 never received the query while crossing the monitoring region")
	}
	if !h.server.ResultContains(qid, 2) && h.groundTruth(qid) != nil {
		// Object 2 ends at x = 47.5 < 52.5−3; it passed through.
		t.Log("object passed through; final containment correctly false")
	}
}

func TestLeaveMonitoringRegionEmitsLeaveReport(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(52.5, 52.5), geo.Vec(0, 0), 300, 11)
	h.addObject(2, geo.Pt(52.5, 53.5), geo.Vec(300, 0), 300, 22) // inside, fleeing east fast
	qid := h.install(1, 3, matchAll, 300)
	h.step(model.FromSeconds(30))
	if !h.server.ResultContains(qid, 2) {
		t.Fatal("precondition: object 2 inside")
	}
	// 300 mph = 2.5 mi/step; after several steps it leaves the region and
	// later the monitoring region entirely. The result must track it.
	for i := 0; i < 10; i++ {
		h.step(model.FromSeconds(30))
		if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
			t.Fatalf("step %d: Result = %v, want %v", i, got, want)
		}
	}
	if h.server.ResultContains(qid, 2) {
		t.Error("object 2 still in result after leaving")
	}
	if h.clients[1].LQTSize() != 0 {
		t.Error("object 2 still holds the query after leaving the monitoring region")
	}
}

// TestEQPMatchesGroundTruth is the central correctness property: with eager
// propagation and Δ = 0, the distributed protocol computes exactly the
// brute-force result at every step (motion is piecewise linear, so the
// dead-reckoning predictions are exact).
func TestEQPMatchesGroundTruth(t *testing.T) {
	testProtocolMatchesGroundTruth(t, Options{})
}

// TestEQPWithSafePeriodMatchesGroundTruth: safe periods may skip work but
// never change results.
func TestEQPWithSafePeriodMatchesGroundTruth(t *testing.T) {
	testProtocolMatchesGroundTruth(t, Options{SafePeriod: true})
}

// TestEQPWithGroupingMatchesGroundTruth: grouped evaluation and bitmap
// reports are a pure optimization.
func TestEQPWithGroupingMatchesGroundTruth(t *testing.T) {
	testProtocolMatchesGroundTruth(t, Options{Grouping: true})
}

// TestEQPAllOptimizationsMatchGroundTruth: everything at once.
func TestEQPAllOptimizationsMatchGroundTruth(t *testing.T) {
	testProtocolMatchesGroundTruth(t, Options{SafePeriod: true, Grouping: true})
}

func testProtocolMatchesGroundTruth(t *testing.T, opts Options) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	h := newHarness(smallGrid(), opts)
	const numObjects = 60
	for i := 0; i < numObjects; i++ {
		pos := geo.Pt(10+rng.Float64()*80, 10+rng.Float64()*80)
		maxVel := []float64{50, 100, 150, 200, 250}[rng.Intn(5)]
		h.addObject(model.ObjectID(i+1), pos, geo.Vec(0, 0), maxVel, rng.Uint64())
	}
	h.randomizeVelocities(rng, numObjects)

	// 12 queries over 8 focal objects: some focals carry several queries
	// (exercising grouping), filters of varying selectivity.
	var qids []model.QueryID
	for i := 0; i < 12; i++ {
		focal := model.ObjectID(1 + i%8)
		radius := []float64{1, 2, 3, 4, 5}[rng.Intn(5)]
		filter := model.Filter{Seed: rng.Uint64(), Permille: 750}
		qids = append(qids, h.install(focal, radius, filter, 250))
	}

	for step := 0; step < 40; step++ {
		h.keepInside()
		h.randomizeVelocities(rng, 10)
		h.step(model.FromSeconds(30))
		for _, qid := range qids {
			got, want := h.server.Result(qid), h.groundTruth(qid)
			if !idsEqual(got, want) {
				t.Fatalf("opts=%+v step %d q%d: result %v, ground truth %v",
					opts, step, qid, got, want)
			}
		}
	}
}

// TestLQPSilencesNonFocalUplinks: under lazy propagation, non-focal objects
// never send cell change reports.
func TestLQPSilencesNonFocalUplinks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := newHarness(smallGrid(), Options{Mode: LazyPropagation})
	for i := 0; i < 30; i++ {
		pos := geo.Pt(10+rng.Float64()*80, 10+rng.Float64()*80)
		h.addObject(model.ObjectID(i+1), pos, geo.Vec(0, 0), 250, rng.Uint64())
	}
	h.randomizeVelocities(rng, 30)
	h.install(1, 3, matchAll, 250)

	for step := 0; step < 20; step++ {
		h.keepInside()
		h.randomizeVelocities(rng, 5)
		h.step(model.FromSeconds(30))
	}
	// Only object 1 is focal; every cell change report must be from it.
	// (Count: focal crossing cells at up to 250 mph ⇒ at most one per step.)
	if n := h.upCount[msg.KindCellChangeReport]; n > 20 {
		t.Errorf("cell change reports under LQP = %d, want ≤ steps (focal only)", n)
	}
}

// TestLQPSelfInstallViaVelocityBroadcast: an object that silently entered a
// monitoring region picks the query up from the next expanded velocity
// change broadcast.
func TestLQPSelfInstall(t *testing.T) {
	h := newHarness(smallGrid(), Options{Mode: LazyPropagation})
	h.addObject(1, geo.Pt(52.5, 52.5), geo.Vec(0, 0), 300, 11) // focal
	h.addObject(2, geo.Pt(77.5, 52.5), geo.Vec(-300, 0), 300, 22)
	qid := h.install(1, 3, matchAll, 300)

	// Object 2 crosses into the monitoring region silently.
	for i := 0; i < 8 && h.clients[1].LQTSize() == 0; i++ {
		h.step(model.FromSeconds(30))
	}
	if h.clients[1].LQTSize() != 0 {
		t.Fatal("object 2 learned the query without any velocity broadcast — LQP should have kept it ignorant")
	}
	// Now the focal changes velocity: the expanded broadcast lets object 2
	// self-install.
	h.objs[0].Vel = geo.Vec(0, 10)
	h.step(model.FromSeconds(30))
	if h.clients[1].LQTSize() != 1 {
		t.Fatal("object 2 did not self-install from the expanded velocity broadcast")
	}
	// And the result becomes correct from here on.
	h.step(model.FromSeconds(30))
	if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
		t.Errorf("Result = %v, want %v", got, want)
	}
}

// TestLQPBoundedError: lazy propagation can transiently miss objects but
// the error must vanish once focal objects relay.
func TestLQPErrorHealsOnRelay(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := newHarness(smallGrid(), Options{Mode: LazyPropagation})
	for i := 0; i < 40; i++ {
		pos := geo.Pt(10+rng.Float64()*80, 10+rng.Float64()*80)
		h.addObject(model.ObjectID(i+1), pos, geo.Vec(0, 0), 250, rng.Uint64())
	}
	h.randomizeVelocities(rng, 40)
	qid := h.install(1, 5, matchAll, 250)

	for step := 0; step < 15; step++ {
		h.keepInside()
		h.randomizeVelocities(rng, 8)
		h.step(model.FromSeconds(30))
	}
	// Force a focal relay: all stale objects self-install.
	h.objs[0].Vel = geo.Vec(h.objs[0].Vel.X+10, h.objs[0].Vel.Y)
	h.step(model.FromSeconds(30))
	h.step(model.FromSeconds(30))
	got, want := h.server.Result(qid), h.groundTruth(qid)
	// The result may only be missing objects, never contain spurious ones —
	// and after a relay plus an evaluation it must be exact.
	if !idsEqual(got, want) {
		t.Errorf("after relay: Result = %v, want %v", got, want)
	}
}

func TestSafePeriodSkipsEvaluations(t *testing.T) {
	// A distant, slow object must skip most evaluations.
	g := smallGrid()
	mk := func(opts Options) (int64, int64) {
		h := newHarness(g, opts)
		h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 10, 11)
		// Slow object inside the monitoring region (cells 9–11 span
		// x ∈ [45,60] for r=1) but 8 miles from the focal.
		h.addObject(2, geo.Pt(58, 50), geo.Vec(1, 0), 10, 22)
		h.install(1, 1, matchAll, 10)
		for i := 0; i < 30; i++ {
			h.step(model.FromSeconds(30))
		}
		return h.clients[1].Evals(), h.clients[1].SkippedEvals()
	}
	evalsOff, skippedOff := mk(Options{})
	evalsOn, skippedOn := mk(Options{SafePeriod: true})
	if skippedOff != 0 {
		t.Errorf("skips without safe period = %d", skippedOff)
	}
	if skippedOn == 0 {
		t.Error("safe period never skipped")
	}
	if evalsOn >= evalsOff {
		t.Errorf("evals with safe period (%d) not fewer than without (%d)", evalsOn, evalsOff)
	}
}

func TestGroupingReducesEvaluations(t *testing.T) {
	run := func(opts Options) int64 {
		h := newHarness(smallGrid(), opts)
		h.addObject(1, geo.Pt(50, 50), geo.Vec(30, 0), 100, 11)
		h.addObject(2, geo.Pt(51, 50), geo.Vec(30, 0), 100, 22)
		// Five queries on the same focal object with identical radius ⇒
		// matching monitoring regions.
		for i := 0; i < 5; i++ {
			h.install(1, 3, matchAll, 100)
		}
		for i := 0; i < 10; i++ {
			h.step(model.FromSeconds(30))
		}
		return h.clients[1].Evals()
	}
	plain := run(Options{})
	grouped := run(Options{Grouping: true})
	if grouped >= plain {
		t.Errorf("grouped evals = %d, plain = %d — grouping should share the distance computation", grouped, plain)
	}
}

func TestGroupingUsesBitmapReports(t *testing.T) {
	h := newHarness(smallGrid(), Options{Grouping: true})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 200, 11)
	h.addObject(2, geo.Pt(58, 50), geo.Vec(-120, 0), 200, 22) // approaching
	q1 := h.install(1, 3, matchAll, 200)
	q2 := h.install(1, 2, matchAll, 200)
	q3 := h.install(1, 3, matchAll, 200)
	_ = q3

	for i := 0; i < 10; i++ {
		h.step(model.FromSeconds(30))
		for _, qid := range []model.QueryID{q1, q2, q3} {
			if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
				t.Fatalf("step %d q%d: %v vs %v", i, qid, got, want)
			}
		}
	}
	if h.upCount[msg.KindGroupContainmentReport] == 0 {
		t.Error("no bitmap reports were sent despite matching monitoring regions")
	}
}

func TestGroupingMergesVelocityBroadcasts(t *testing.T) {
	run := func(opts Options) int {
		h := newHarness(smallGrid(), opts)
		h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 200, 11)
		for i := 0; i < 4; i++ {
			h.install(1, 3, matchAll, 200) // same radius → same mon region
		}
		// Trigger velocity changes.
		for i := 0; i < 5; i++ {
			h.objs[0].Vel = geo.Vec(float64(10*(i+1)), 0)
			h.step(model.FromSeconds(30))
		}
		return h.downCount[msg.KindVelocityChange]
	}
	plain := run(Options{})
	grouped := run(Options{Grouping: true})
	if grouped*4 != plain {
		t.Errorf("velocity broadcasts: grouped = %d, plain = %d, want 4× reduction", grouped, plain)
	}
}

func TestServerOpsMonotonic(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(100, 0), 200, 11)
	before := h.server.Ops()
	h.install(1, 3, matchAll, 200)
	mid := h.server.Ops()
	if mid <= before {
		t.Error("ops did not grow on install")
	}
	h.step(model.FromSeconds(60))
	if h.server.Ops() <= mid {
		t.Error("ops did not grow on a step with cell change")
	}
}

func TestHandleUplinkPanicsOnForeignMessage(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for PositionReport")
		}
	}()
	h.server.HandleUplink(msg.PositionReport{OID: 1})
}

func TestQueryAccessors(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	qid := h.install(1, 3, matchAll, 100)
	q, ok := h.server.Query(qid)
	if !ok || q.Focal != 1 || q.Region.EnclosingRadius() != 3 {
		t.Errorf("Query = %+v, ok=%v", q, ok)
	}
	if _, ok := h.server.Query(999); ok {
		t.Error("unknown query found")
	}
	ids := h.server.QueryIDs()
	if len(ids) != 1 || ids[0] != qid {
		t.Errorf("QueryIDs = %v", ids)
	}
	if h.server.Result(999) != nil {
		t.Error("Result of unknown query not nil")
	}
	if h.server.ResultSize(999) != 0 {
		t.Error("ResultSize of unknown query not 0")
	}
}

func TestStaleVelocityReportIgnored(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	// No queries installed: a velocity report from a non-focal object is
	// dropped without effect.
	h.server.HandleUplink(msg.VelocityReport{OID: 1, Pos: geo.Pt(1, 1)})
	if h.server.NumQueries() != 0 {
		t.Error("spurious state change")
	}
}

func TestResultListenerEvents(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	var events []ResultEvent
	h.server.SetResultListener(func(ev ResultEvent) { events = append(events, ev) })

	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 300, 11)
	h.addObject(2, geo.Pt(55.5, 50), geo.Vec(0, 0), 300, 22) // outside r=3
	qid := h.install(1, 3, matchAll, 300)
	h.step(model.FromSeconds(30))

	// The focal enters its own result immediately.
	if len(events) == 0 || !events[0].Entered {
		t.Fatalf("expected an enter event, got %v", events)
	}
	countFor := func(oid model.ObjectID, entered bool) int {
		n := 0
		for _, ev := range events {
			if ev.OID == oid && ev.Entered == entered && ev.QID == qid {
				n++
			}
		}
		return n
	}
	if countFor(1, true) != 1 {
		t.Errorf("focal enter events = %d", countFor(1, true))
	}

	// Drive object 2 through the region: exactly one enter, one leave.
	h.objs[1].Vel = geo.Vec(-200, 0)
	for i := 0; i < 10; i++ {
		h.step(model.FromSeconds(30))
	}
	if countFor(2, true) != 1 || countFor(2, false) != 1 {
		t.Errorf("object 2 events: %d enters, %d leaves (want 1, 1)",
			countFor(2, true), countFor(2, false))
	}

	// Removal emits a leave for every remaining member, exactly once.
	before := countFor(1, false)
	h.server.RemoveQuery(qid)
	if countFor(1, false) != before+1 {
		t.Errorf("removal leave events for focal = %d, want %d", countFor(1, false), before+1)
	}
}

func TestResultListenerNoDuplicateEnters(t *testing.T) {
	h := newHarness(smallGrid(), Options{Grouping: true})
	var enters int
	h.server.SetResultListener(func(ev ResultEvent) {
		if ev.Entered {
			enters++
		}
	})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	h.addObject(2, geo.Pt(51, 50), geo.Vec(0, 0), 100, 22)
	h.install(1, 3, matchAll, 100)
	h.install(1, 3, matchAll, 100) // grouped pair
	for i := 0; i < 5; i++ {
		h.step(model.FromSeconds(30))
	}
	// 2 objects × 2 queries = 4 enter events, no duplicates from repeated
	// bitmap reports.
	if enters != 4 {
		t.Errorf("enter events = %d, want 4", enters)
	}
}

// installRegion installs a query with an arbitrary region shape.
func (h *harness) installRegion(focal model.ObjectID, region model.Region, filter model.Filter, maxVel float64) model.QueryID {
	qid := h.server.InstallQuery(focal, region, filter, maxVel)
	h.flushDown()
	return qid
}

// TestRectRegionQueriesMatchGroundTruth: the protocol is shape-agnostic —
// rectangular query regions (§2.3 allows any closed shape) stay exact under
// EQP with all optimizations on.
func TestRectRegionQueriesMatchGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	h := newHarness(smallGrid(), Options{SafePeriod: true, Grouping: true})
	for i := 0; i < 50; i++ {
		pos := geo.Pt(10+rng.Float64()*80, 10+rng.Float64()*80)
		h.addObject(model.ObjectID(i+1), pos, geo.Vec(0, 0), 200, rng.Uint64())
	}
	h.randomizeVelocities(rng, 50)

	var qids []model.QueryID
	regions := []model.Region{
		model.RectRegion{W: 6, H: 2},
		model.RectRegion{W: 2, H: 8},
		model.CircleRegion{R: 3},
		model.RectRegion{W: 4, H: 4},
	}
	for i, r := range regions {
		qids = append(qids, h.installRegion(model.ObjectID(i+1), r, matchAll, 200))
	}

	for step := 0; step < 30; step++ {
		h.keepInside()
		h.randomizeVelocities(rng, 8)
		h.step(model.FromSeconds(30))
		for _, qid := range qids {
			got, want := h.server.Result(qid), h.groundTruth(qid)
			if !idsEqual(got, want) {
				t.Fatalf("step %d q%d: result %v, ground truth %v", step, qid, got, want)
			}
		}
	}
}

func TestJoinHandsOverStandingQueries(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	qid := h.install(1, 3, matchAll, 100)
	h.step(model.FromSeconds(30))

	// A new object appears inside the monitoring region; Join must fetch
	// the standing query even though no cell was crossed.
	h.addObject(2, geo.Pt(51, 50), geo.Vec(0, 0), 100, 22)
	i := h.byOID[2]
	h.clients[i].Join(h.objs[i].Pos, h.objs[i].Vel, h.now)
	h.flushDown()
	if h.clients[i].LQTSize() != 1 {
		t.Fatalf("joiner LQT size = %d, want 1", h.clients[i].LQTSize())
	}
	h.step(model.FromSeconds(30))
	if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
		t.Fatalf("Result = %v, want %v", got, want)
	}
}

func TestDepartureCleansServerState(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	h.addObject(2, geo.Pt(51, 50), geo.Vec(0, 0), 100, 22)
	q1 := h.install(1, 3, matchAll, 100)
	q2 := h.install(2, 5, matchAll, 100)
	h.step(model.FromSeconds(30))
	if !h.server.ResultContains(q1, 2) || !h.server.ResultContains(q2, 1) {
		t.Fatal("precondition: both objects in both results")
	}

	// Object 2 departs: out of q1's result, and q2 (its own query) is gone.
	i := h.byOID[2]
	h.clients[i].Depart()
	h.flushDown()
	if h.server.ResultContains(q1, 2) {
		t.Error("departed object still in q1's result")
	}
	if h.server.NumQueries() != 1 {
		t.Errorf("NumQueries = %d, want 1 (departed focal's query removed)", h.server.NumQueries())
	}
	if h.clients[i].LQTSize() != 0 || h.clients[i].HasMQ() {
		t.Error("departed client retains local state")
	}
	// Remaining query keeps tracking correctly (ignore the departed object
	// in ground truth by moving it far away).
	h.objs[i].Pos = geo.Pt(-1000, -1000)
	h.step(model.FromSeconds(30))
	if got, want := h.server.Result(q1), h.groundTruth(q1); !idsEqual(got, want) {
		t.Fatalf("Result = %v, want %v", got, want)
	}
}

func TestClientAccessors(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	h.addObject(2, geo.Pt(51, 50), geo.Vec(0, 0), 100, 22)
	qid := h.install(1, 3, matchAll, 100)
	h.step(model.FromSeconds(30))

	c := h.clients[1]
	if c.OID() != 2 {
		t.Errorf("OID = %d", c.OID())
	}
	if got := c.CurrCell(); got != h.g.CellOf(h.objs[1].Pos) {
		t.Errorf("CurrCell = %v", got)
	}
	if !c.IsTarget(qid) {
		t.Error("object 2 should believe it is a target")
	}
	if c.IsTarget(999) {
		t.Error("unknown query reported as target")
	}
	qs := c.InstalledQueries()
	if len(qs) != 1 || qs[0] != qid {
		t.Errorf("InstalledQueries = %v", qs)
	}
}

func TestPropagationModeString(t *testing.T) {
	if EagerPropagation.String() != "EQP" || LazyPropagation.String() != "LQP" {
		t.Errorf("mode names: %v, %v", EagerPropagation, LazyPropagation)
	}
}

func TestUplinkFunc(t *testing.T) {
	var got msg.Message
	up := UplinkFunc(func(m msg.Message) { got = m })
	up.Send(msg.PositionReport{OID: 7})
	if got == nil || got.(msg.PositionReport).OID != 7 {
		t.Fatalf("UplinkFunc did not forward: %v", got)
	}
}

func TestClientPanicsOnForeignDownlink(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for uplink message on downlink path")
		}
	}()
	h.clients[0].OnDownlink(msg.PositionReport{}, geo.Pt(0, 0), geo.Vec(0, 0), 0)
}

// TestPolygonRegionQueriesMatchGroundTruth: the full protocol stays exact
// with polygon-shaped query regions.
func TestPolygonRegionQueriesMatchGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	h := newHarness(smallGrid(), Options{Grouping: true})
	for i := 0; i < 50; i++ {
		pos := geo.Pt(10+rng.Float64()*80, 10+rng.Float64()*80)
		h.addObject(model.ObjectID(i+1), pos, geo.Vec(0, 0), 200, rng.Uint64())
	}
	h.randomizeVelocities(rng, 50)

	// A triangle and an L-shaped polygon bound to two focal objects.
	tri := model.NewPolygonRegion([]geo.Point{geo.Pt(-3, -2), geo.Pt(3, -2), geo.Pt(0, 4)})
	ell := model.NewPolygonRegion([]geo.Point{
		geo.Pt(-2, -2), geo.Pt(2, -2), geo.Pt(2, 0), geo.Pt(0, 0),
		geo.Pt(0, 2), geo.Pt(-2, 2),
	})
	q1 := h.installRegion(1, tri, matchAll, 200)
	q2 := h.installRegion(2, ell, matchAll, 200)

	for step := 0; step < 30; step++ {
		h.keepInside()
		h.randomizeVelocities(rng, 8)
		h.step(model.FromSeconds(30))
		for _, qid := range []model.QueryID{q1, q2} {
			got, want := h.server.Result(qid), h.groundTruth(qid)
			if !idsEqual(got, want) {
				t.Fatalf("step %d q%d: result %v, ground truth %v", step, qid, got, want)
			}
		}
	}
}

func TestQueryExpiry(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	h.addObject(2, geo.Pt(51, 50), geo.Vec(0, 0), 100, 22)

	// "During the next 20 minutes": expires at t = 1/3 h.
	qid := h.server.InstallQueryUntil(1, model.CircleRegion{R: 3}, matchAll, 100, model.Time(1.0/3))
	h.flushDown()
	forever := h.install(1, 5, matchAll, 100)

	h.step(model.FromSeconds(30))
	if !h.server.ResultContains(qid, 2) {
		t.Fatal("precondition: object 2 in result")
	}

	// Advance 25 simulated minutes in 30 s steps, expiring as the engine
	// does each step.
	for i := 0; i < 50; i++ {
		h.step(model.FromSeconds(30))
		h.server.ExpireQueries(h.now)
		h.flushDown()
	}
	if _, ok := h.server.Query(qid); ok {
		t.Error("duration-bound query survived its expiry")
	}
	if h.server.ResultSize(qid) != 0 {
		t.Error("expired query still has results")
	}
	if h.clients[1].LQTSize() != 1 {
		t.Errorf("client LQT = %d, want only the unexpired query", h.clients[1].LQTSize())
	}
	if _, ok := h.server.Query(forever); !ok {
		t.Error("unexpired query was removed")
	}
	// The focal still has one query: hasMQ stays set.
	if !h.clients[0].HasMQ() {
		t.Error("hasMQ cleared while a query remains")
	}
}

func TestQueryExpiryPendingInstall(t *testing.T) {
	// Expiry registered while installation is still pending must stick.
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	qid := h.server.InstallQueryUntil(1, model.CircleRegion{R: 3}, matchAll, 100, model.FromSeconds(45))
	h.flushDown() // completes the pending install via FocalInfoResponse
	if _, ok := h.server.Query(qid); !ok {
		t.Fatal("install did not complete")
	}
	h.step(model.FromSeconds(30))
	h.server.ExpireQueries(h.now)
	if _, ok := h.server.Query(qid); !ok {
		t.Fatal("expired before its deadline")
	}
	h.step(model.FromSeconds(30))
	expired := h.server.ExpireQueries(h.now)
	if len(expired) != 1 || expired[0] != qid {
		t.Fatalf("ExpireQueries = %v, want [%d]", expired, qid)
	}
}

// TestPredictiveMatchesGroundTruth: the exact-entry-time scheduler is a
// pure optimization — EQP results stay exact.
func TestPredictiveMatchesGroundTruth(t *testing.T) {
	testProtocolMatchesGroundTruth(t, Options{Predictive: true})
	testProtocolMatchesGroundTruth(t, Options{Predictive: true, Grouping: true})
}

// TestPredictiveSkipsMoreThanSafePeriod: the exact bound dominates the
// worst-case one.
func TestPredictiveSkipsMoreThanSafePeriod(t *testing.T) {
	run := func(opts Options) (evals, skipped int64) {
		rng := rand.New(rand.NewSource(7))
		h := newHarness(smallGrid(), opts)
		for i := 0; i < 40; i++ {
			pos := geo.Pt(10+rng.Float64()*80, 10+rng.Float64()*80)
			h.addObject(model.ObjectID(i+1), pos, geo.Vec(0, 0), 200, rng.Uint64())
		}
		h.randomizeVelocities(rng, 40)
		for i := 0; i < 6; i++ {
			h.install(model.ObjectID(i+1), 2, matchAll, 250)
		}
		for step := 0; step < 25; step++ {
			h.keepInside()
			h.step(model.FromSeconds(30))
		}
		for _, c := range h.clients {
			evals += c.Evals()
			skipped += c.SkippedEvals()
		}
		return evals, skipped
	}
	evalsSP, _ := run(Options{SafePeriod: true})
	evalsPred, skippedPred := run(Options{Predictive: true})
	if skippedPred == 0 {
		t.Fatal("predictive never skipped")
	}
	if evalsPred >= evalsSP {
		t.Errorf("predictive evals (%d) not below safe-period evals (%d)", evalsPred, evalsSP)
	}
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	qid := h.install(1, 3, matchAll, 100)
	if err := h.server.CheckInvariants(); err != nil {
		t.Fatalf("healthy server flagged: %v", err)
	}
	// Corrupt the RQI: drop the query from one monitoring-region cell.
	srv := h.server.(*Server)
	mr, _ := srv.MonRegion(qid)
	srv.rqiRemove(srv.sqt[qid], grid.CellRange{Min: mr.Min, Max: mr.Min})
	if err := srv.CheckInvariants(); err == nil {
		t.Fatal("RQI corruption not detected")
	}
	srv.rqiAdd(srv.sqt[qid], grid.CellRange{Min: mr.Min, Max: mr.Min})
	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("repair not recognized: %v", err)
	}
	// Corrupt the book: an expiry for a query that is not pending.
	srv.book.expiry[9999] = 1
	if err := h.server.CheckInvariants(); err == nil {
		t.Fatal("stray pending expiry not detected")
	}
}
