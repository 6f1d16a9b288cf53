package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/cost"
)

// runCostScenario drives a harness through a deterministic workload with a
// cost accountant attached to the server and every client: installs
// (including the pending FocalInfoRequest flow), motion with cell crossings
// and a removal. Identical across server implementations, so the per-entity
// tallies it produces are directly comparable.
func runCostScenario(h *harness, a *cost.Accountant) {
	h.server.SetAccountant(a)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		oid := model.ObjectID(i + 1)
		pos := geo.Pt(5+float64((i*13)%90), 5+float64((i*29)%90))
		ang := rng.Float64() * 2 * math.Pi
		speed := 50 + rng.Float64()*150
		h.addObject(oid, pos, geo.Vec(speed*math.Cos(ang), speed*math.Sin(ang)), 200, uint64(i+1))
	}
	for _, c := range h.clients {
		c.SetAccountant(a)
	}
	var qids []model.QueryID
	for i := 0; i < 5; i++ {
		qids = append(qids, h.install(model.ObjectID(i+1), 2+float64(i), matchAll, 200))
	}
	for step := 0; step < 12; step++ {
		h.randomizeVelocities(rng, 4)
		h.keepInside()
		h.step(model.FromSeconds(30))
		if step == 6 {
			h.server.RemoveQuery(qids[1])
			h.flushDown()
		}
	}
}

// totalUplinks is the number of uplink messages the harness delivered to the
// server — the external truth the node ledgers must account for.
func totalUplinks(h *harness) int64 {
	var n int64
	for _, c := range h.upCount {
		n += int64(c)
	}
	return n
}

// TestCostNodeSumIdentity pins the node attribution invariant: every
// dispatched uplink is charged to exactly one node ledger (or the router
// ledger for stale drops and departures), so the node sum plus router
// equals the uplinks delivered — no lost or double-counted messages even
// when focal objects hand off between nodes.
func TestCostNodeSumIdentity(t *testing.T) {
	// 8 nodes over 20 rows: spans end mid-row, so the scenario's short
	// trips cross node boundaries in both directions.
	h := newClusterHarness(smallGrid(), Options{}, 8)
	a := cost.New()
	a.Configure(smallGrid().NumCells(), 0, 8)
	runCostScenario(h, a)

	got := a.Router().UplinkMsgs()
	nonzero := 0
	for _, s := range a.Nodes() {
		if s.UplinkMsgs() > 0 {
			nonzero++
		}
		got += s.UplinkMsgs()
	}
	if want := totalUplinks(h); got != want {
		t.Errorf("node+router uplink msgs = %d, harness delivered %d", got, want)
	}
	if nonzero < 2 {
		t.Errorf("uplinks charged to %d nodes — scenario too weak to test handoff attribution", nonzero)
	}
	if h.server.(*ClusterServer).Migrations() == 0 {
		t.Error("scenario produced no cross-node handoffs — weak test")
	}
	snap := a.Global()
	for _, u := range []cost.Unit{cost.UnitTableOp, cost.UnitRQITouch, cost.UnitDeadReckoning, cost.UnitContainment, cost.UnitLQTScan} {
		if snap.ComputeUnits(u) == 0 {
			t.Errorf("no %v units charged", u)
		}
	}
}

// TestCostSerialRouterEntityParity runs the same scripted workload against
// the serial server and the 4-node router and requires identical per-query
// and per-object tallies: attribution must not depend on which
// implementation (or which node) handled a message.
func TestCostSerialRouterEntityParity(t *testing.T) {
	serial, router := newHarness(smallGrid(), Options{}), newClusterHarness(smallGrid(), Options{}, 4)
	sa, ha := cost.New(), cost.New()
	sa.Configure(smallGrid().NumCells(), 0, 0)
	ha.Configure(smallGrid().NumCells(), 0, 4)
	runCostScenario(serial, sa)
	runCostScenario(router, ha)

	ss, hs := sa.Snapshot(), ha.Snapshot()
	if !reflect.DeepEqual(ss.Queries, hs.Queries) {
		t.Errorf("per-query tallies diverged:\nserial %+v\nrouter %+v", ss.Queries, hs.Queries)
	}
	if !reflect.DeepEqual(ss.Objects, hs.Objects) {
		t.Errorf("per-object tallies diverged:\nserial %+v\nrouter %+v", ss.Objects, hs.Objects)
	}
	if len(ss.Queries) == 0 || len(ss.Objects) == 0 {
		t.Fatalf("scenario recorded no per-entity traffic (queries %d, objects %d)", len(ss.Queries), len(ss.Objects))
	}
}

// TestCostConcurrentNodeAttribution hammers the router from many
// goroutines — fresh velocity and containment reports interleaved with
// stale ones for unknown entities — while a scraper snapshots the
// accountant, then checks the node-sum identity. Run under -race this also
// proves attribution involves no unsynchronized state.
func TestCostConcurrentNodeAttribution(t *testing.T) {
	g := smallGrid()
	cs := NewClusterServer(g, Options{}, nullDown{}, 4)
	a := cost.New()
	a.Configure(g.NumCells(), 0, 4)
	cs.SetAccountant(a)

	// Install queries on a spread of focal objects so reports resolve.
	for i := 0; i < 8; i++ {
		oid := model.ObjectID(i + 1)
		pos := geo.Pt(float64(5+i*11), float64(5+i*7))
		cs.InstallQuery(oid, model.CircleRegion{R: 3}, matchAll, 200)
		cs.HandleUplink(msg.FocalInfoResponse{OID: oid, Pos: pos})
	}
	base := int64(8) // the FocalInfoResponses above

	const workers, perWorker = 8, 300
	var wg, scraper sync.WaitGroup
	done := make(chan struct{})
	scraper.Add(1)
	go func() { // concurrent scraper
		defer scraper.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = a.Snapshot()
				_ = a.Nodes()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				oid := model.ObjectID(1 + (w+i)%8)
				pos := geo.Pt(float64(5+(w*13+i)%90), float64(5+(w*29+i)%90))
				switch i % 3 {
				case 0:
					cs.HandleUplink(msg.VelocityReport{OID: oid, Pos: pos})
				case 1:
					cs.HandleUplink(msg.ContainmentReport{OID: oid, QID: model.QueryID(1 + i%10), IsTarget: i%2 == 0})
				default: // stale: unknown focal → router ledger
					cs.HandleUplink(msg.VelocityReport{OID: 999, Pos: pos})
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	scraper.Wait()

	got := a.Router().UplinkMsgs()
	for _, s := range a.Nodes() {
		got += s.UplinkMsgs()
	}
	if want := base + workers*perWorker; got != want {
		t.Errorf("node+router uplink msgs = %d, want %d", got, want)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Errorf("invariants after concurrent run: %v", err)
	}
}
