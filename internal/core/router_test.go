package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
)

// routerRenderings are the router's two constructors: NewClusterServer and
// NewShardedServer, the name the benchmark harness builds the router under.
// Both build the same router over journaled in-process nodes; the router
// tests run through each so neither entry point leaves the oracles.
var routerRenderings = []struct {
	name string
	new  func(g *grid.Grid, opts Options, down Downlink, n int) *ClusterServer
}{
	{"nodes", NewClusterServer},
	{"shards", NewShardedServer},
}

// runScenario drives a harness through a deterministic workload touching
// every server path: installs (including the pending FocalInfoRequest flow
// and a duration-bound query), motion with cell crossings, a removal, an
// expiry sweep and a departure. It returns the installed query IDs.
func runScenario(h *harness) []model.QueryID {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		oid := model.ObjectID(i + 1)
		pos := geo.Pt(5+float64((i*13)%90), 5+float64((i*29)%90))
		ang := rng.Float64() * 2 * math.Pi
		speed := 50 + rng.Float64()*150
		h.addObject(oid, pos, geo.Vec(speed*math.Cos(ang), speed*math.Sin(ang)), 200, uint64(i+1))
	}
	var qids []model.QueryID
	for i := 0; i < 6; i++ {
		qids = append(qids, h.install(model.ObjectID(i+1), 2+float64(i), matchAll, 200))
	}
	qids = append(qids, h.server.InstallQueryUntil(
		model.ObjectID(7), model.CircleRegion{R: 4}, matchAll, 200, model.FromSeconds(300)))
	h.flushDown()
	for step := 0; step < 15; step++ {
		h.randomizeVelocities(rng, 4)
		h.keepInside()
		h.step(model.FromSeconds(30))
		switch step {
		case 5:
			h.server.RemoveQuery(qids[2])
			h.flushDown()
		case 9:
			h.server.HandleUplink(msg.DepartureReport{OID: 20})
			h.flushDown()
		case 11:
			h.server.ExpireQueries(h.now) // 360 s: the Until(300 s) query goes
			h.flushDown()
		}
	}
	return qids
}

func qidsEqual(a, b []model.QueryID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSortedAccessors: QueryIDs and NearbyQueries return ascending IDs on
// both implementations regardless of map iteration order.
func TestSortedAccessors(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *harness
	}{
		{"serial", newHarness(smallGrid(), Options{})},
		{"router", newClusterHarness(smallGrid(), Options{}, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.h
			for i := 0; i < 16; i++ {
				oid := model.ObjectID(i + 1)
				h.addObject(oid, geo.Pt(5+float64((i*37)%90), 5+float64((i*53)%90)), geo.Vec(0, 0), 100, uint64(i+1))
			}
			// Several queries per focal so NearbyQueries lists have length >1.
			for i := 0; i < 16; i++ {
				h.install(model.ObjectID(i+1), 3, matchAll, 100)
				h.install(model.ObjectID(i+1), 6, matchAll, 100)
			}
			ids := h.server.QueryIDs()
			if len(ids) != 32 {
				t.Fatalf("QueryIDs length = %d, want 32", len(ids))
			}
			if !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) {
				t.Errorf("QueryIDs not ascending: %v", ids)
			}
			sawMulti := false
			for i := 0; i < 16; i++ {
				cell := h.g.CellOf(h.objs[i].Pos)
				nearby := h.server.NearbyQueries(cell)
				if len(nearby) > 1 {
					sawMulti = true
				}
				if !sort.SliceIsSorted(nearby, func(a, b int) bool { return nearby[a] < nearby[b] }) {
					t.Errorf("NearbyQueries(%v) not ascending: %v", cell, nearby)
				}
			}
			if !sawMulti {
				t.Error("no cell had more than one nearby query — weak test")
			}
		})
	}
}

// TestRouterInstrumentedSeries: an instrumented router exports per-node and
// router-scope series, the per-node uplink breakdown agrees with the
// traffic the scenario sent, and each node's table gauges and uplink
// counter read what Spans and UplinksByNode report.
func TestRouterInstrumentedSeries(t *testing.T) {
	for _, r := range routerRenderings {
		t.Run(r.name, func(t *testing.T) { routerInstrumentedSeries(t, r.new) })
	}
}

func routerInstrumentedSeries(t *testing.T, newRouter func(*grid.Grid, Options, Downlink, int) *ClusterServer) {
	g := smallGrid()
	var cs *ClusterServer
	h := newHarnessOver(g, Options{}, func(down Downlink) ServerAPI {
		cs = newRouter(g, Options{}, down, 4)
		return cs
	})
	reg := obs.NewRegistry()
	cs.Instrument(reg)
	runScenario(h)

	var text strings.Builder
	reg.WritePrometheus(&text)
	for _, want := range []string{
		`mobieyes_server_ops_total{node="0"}`,
		`mobieyes_server_ops_total{node="router"}`,
		`mobieyes_server_fot_size{node="3"}`,
		"mobieyes_server_migrations_total",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	var uplinks int64
	for _, v := range cs.UplinksByNode() {
		uplinks += v
	}
	if uplinks == 0 {
		t.Error("no per-node uplinks recorded")
	}
	vars := reg.Snapshot()
	for i, sp := range cs.Spans() {
		label := fmt.Sprintf(`{node="%d"}`, i)
		if got := vars[metricFOTSize+label]; got != float64(sp.Focals) {
			t.Errorf("%s%s = %v, node holds %d focals", metricFOTSize, label, got, sp.Focals)
		}
		if got := vars[metricSQTSize+label]; got != float64(sp.Queries) {
			t.Errorf("%s%s = %v, node holds %d queries", metricSQTSize, label, got, sp.Queries)
		}
		if got := vars[metricUplinks+label]; got != cs.UplinksByNode()[i] {
			t.Errorf("%s%s = %v, router dispatched %d", metricUplinks, label, got, cs.UplinksByNode()[i])
		}
	}
}

// TestCrashZeroesTableGauges: a crashed in-process node's FOT/SQT/RQI
// gauges read 0 once it is fenced, so after the recovery the per-node
// gauges add up to what Spans reports instead of counting the replayed
// focals twice.
func TestCrashZeroesTableGauges(t *testing.T) {
	g := smallGrid()
	var cs *ClusterServer
	h := newHarnessOver(g, Options{}, func(down Downlink) ServerAPI {
		cs = NewClusterServer(g, Options{}, down, 4)
		return cs
	})
	reg := obs.NewRegistry()
	cs.Instrument(reg)
	runScenario(h)
	victim := -1
	for _, sp := range cs.Spans() {
		if sp.Focals > 0 {
			victim = sp.Node
		}
	}
	if victim < 0 {
		t.Fatal("scenario left no focal on any node")
	}
	if err := cs.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	vars := reg.Snapshot()
	var focals, queries int
	var fot, sqt float64
	for i, sp := range cs.Spans() {
		focals += sp.Focals
		queries += sp.Queries
		label := fmt.Sprintf(`{node="%d"}`, i)
		fot += vars[metricFOTSize+label].(float64)
		sqt += vars[metricSQTSize+label].(float64)
	}
	if fot != float64(focals) || sqt != float64(queries) {
		t.Errorf("after crashing node %d the gauges sum to %v focals and %v queries, Spans to %d and %d",
			victim, fot, sqt, focals, queries)
	}
	if got := vars[metricRQIEntries+fmt.Sprintf(`{node="%d"}`, victim)]; got != 0.0 {
		t.Errorf("crashed node %d still reports %v RQI entries", victim, got)
	}
}

// TestRouterConcurrentStress fires uplink reports at the router from 8
// goroutines (each owning a disjoint set of objects, like per-connection
// transports) while queries are installed, removed and expired
// concurrently, then validates every per-node and cross-node invariant.
// Run it under -race.
func TestRouterConcurrentStress(t *testing.T) {
	for _, r := range routerRenderings {
		t.Run(r.name, func(t *testing.T) { routerConcurrentStress(t, r.new) })
	}
}

func routerConcurrentStress(t *testing.T, newRouter func(*grid.Grid, Options, Downlink, int) *ClusterServer) {
	const (
		workers       = 8
		objsPerWorker = 16
		iters         = 400
	)
	g := grid.New(geo.NewRect(0, 0, 500, 500), 5)
	cs := newRouter(g, Options{}, nullDown{}, 8)

	startPos := func(w, k int) geo.Point {
		return geo.Pt(10+float64((w*61+k*17)%480), 10+float64((w*97+k*41)%480))
	}
	// Seed: the first 4 objects of every worker are focal with one query
	// each; these queries survive the whole run and absorb the containment
	// traffic.
	var seedQids []model.QueryID
	for w := 0; w < workers; w++ {
		for k := 0; k < 4; k++ {
			oid := model.ObjectID(w*objsPerWorker + k + 1)
			seedQids = append(seedQids, cs.InstallQuery(oid, model.CircleRegion{R: 8}, matchAll, 150))
			cs.HandleUplink(msg.FocalInfoResponse{OID: oid, Pos: startPos(w, k)})
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			pos := make([]geo.Point, objsPerWorker)
			for k := range pos {
				pos[k] = startPos(w, k)
			}
			var own []model.QueryID
			for it := 0; it < iters; it++ {
				k := rng.Intn(objsPerWorker)
				oid := model.ObjectID(w*objsPerWorker + k + 1)
				prev := g.CellOf(pos[k])
				p := geo.Pt(
					math.Min(495, math.Max(5, pos[k].X+rng.Float64()*16-8)),
					math.Min(495, math.Max(5, pos[k].Y+rng.Float64()*16-8)))
				pos[k] = p
				next := g.CellOf(p)
				switch {
				case next != prev:
					cs.HandleUplink(msg.CellChangeReport{
						OID: oid, PrevCell: prev, NewCell: next,
						Pos: p, Vel: geo.Vec(30, 10), Tm: model.Time(it),
					})
				case rng.Intn(3) == 0:
					cs.HandleUplink(msg.VelocityReport{OID: oid, Pos: p, Vel: geo.Vec(10, -20), Tm: model.Time(it)})
				default:
					cs.HandleUplink(msg.ContainmentReport{
						OID: oid, QID: seedQids[rng.Intn(len(seedQids))],
						IsTarget: rng.Intn(2) == 0,
					})
				}
				// Churn: short-lived queries on this worker's own objects
				// exercise install (incl. pending), removal and expiry while
				// other workers hand focals across nodes.
				switch {
				case rng.Intn(40) == 0:
					own = append(own, cs.InstallQueryUntil(
						oid, model.CircleRegion{R: 5}, matchAll, 150, model.Time(it+20)))
				case len(own) > 0 && rng.Intn(40) == 0:
					cs.RemoveQuery(own[0])
					own = own[1:]
				case rng.Intn(60) == 0:
					cs.ExpireQueries(model.Time(it))
				}
				if it%50 == 0 {
					_ = cs.Result(seedQids[rng.Intn(len(seedQids))])
					_ = cs.NumQueries()
					_ = cs.NearbyQueries(next)
				}
			}
			// Departure tears down the last object's state while other
			// workers are still reporting.
			cs.HandleUplink(msg.DepartureReport{OID: model.ObjectID(w*objsPerWorker + objsPerWorker)})
		}(w)
	}
	wg.Wait()

	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent stress: %v", err)
	}
	if n := cs.NumQueries(); n < len(seedQids) {
		t.Errorf("NumQueries = %d, want at least the %d seed queries", n, len(seedQids))
	}
	for _, qid := range seedQids {
		if _, ok := cs.Query(qid); !ok {
			t.Errorf("seed query %d vanished", qid)
		}
	}
	if n := cs.InflightOps(); n != 0 {
		t.Errorf("InflightOps = %d at quiescence, want 0", n)
	}
}

// TestRouterSpanBoundaryStorm: mover goroutines drive focal objects back
// and forth across the boundary between two nodes' spans — every report a
// cross-node handoff — while another goroutine installs, removes and
// expires queries on the very focals in flight. The script is built so its
// outcome does not depend on the interleaving (every op sequence that
// touches a row is issued by one goroutine, and each object's last report
// comes after the churn), so the final snapshot must be byte-identical to
// a serial server replaying the same ops one goroutine after another.
func TestRouterSpanBoundaryStorm(t *testing.T) {
	for _, r := range routerRenderings {
		t.Run(r.name, func(t *testing.T) { routerSpanBoundaryStorm(t, r.new) })
	}
}

func routerSpanBoundaryStorm(t *testing.T, newRouter func(*grid.Grid, Options, Downlink, int) *ClusterServer) {
	const (
		movers        = 4
		objsPerMover  = 4 // first 2 seeded focal, last 2 become focal mid-storm
		rounds        = 150
		churnIters    = 200
		boundaryRow   = 10 // 20×20 grid over 2 nodes: rows 0–9 | rows 10–19
		firstChurnQID = movers*2 + 1
	)
	g := smallGrid()
	// The script: per-goroutine op lists, generated up front so the router
	// and the serial replay see exactly the same messages.
	type op func(s ServerAPI)
	oidOf := func(m, k int) model.ObjectID { return model.ObjectID(m*objsPerMover + k + 1) }
	cellOf := func(m, k, side int) grid.CellID {
		return grid.CellID{Col: (m*objsPerMover + k) % 20, Row: boundaryRow - 1 + side}
	}
	center := func(c grid.CellID) geo.Point { return geo.Pt(float64(c.Col)*5+2.5, float64(c.Row)*5+2.5) }

	var setup, final []op
	moverOps := make([][]op, movers)
	var seedQids []model.QueryID
	for m := 0; m < movers; m++ {
		for k := 0; k < objsPerMover; k++ {
			oid, start := oidOf(m, k), cellOf(m, k, 0)
			if k < 2 {
				seedQids = append(seedQids, model.QueryID(len(seedQids)+1))
				setup = append(setup, func(s ServerAPI) {
					s.InstallQuery(oid, model.CircleRegion{R: 6}, matchAll, 120)
					s.HandleUplink(msg.FocalInfoResponse{OID: oid, Pos: center(start)})
				})
			}
		}
		rng := rand.New(rand.NewSource(int64(m) + 100))
		side := make([]int, objsPerMover)
		for it := 0; it < rounds; it++ {
			k := rng.Intn(objsPerMover)
			oid := oidOf(m, k)
			prev := cellOf(m, k, side[k])
			side[k] ^= 1
			next := cellOf(m, k, side[k])
			tm, vel := model.Time(it+1), geo.Vec(0, float64(20*(side[k]*2-1)))
			moverOps[m] = append(moverOps[m], func(s ServerAPI) {
				s.HandleUplink(msg.CellChangeReport{
					OID: oid, PrevCell: prev, NewCell: next, Pos: center(next), Vel: vel, Tm: tm,
				})
			})
			// Result entries ride the handoff slices: each (object, seed
			// query) pair is only ever reported by the object's own mover.
			qid, target := seedQids[rng.Intn(len(seedQids))], rng.Intn(2) == 0
			moverOps[m] = append(moverOps[m], func(s ServerAPI) {
				s.HandleUplink(msg.ContainmentReport{OID: oid, QID: qid, IsTarget: target})
			})
		}
		for k := 0; k < objsPerMover; k++ {
			// The last word on every object comes after the churn: it
			// completes installs still pending and fixes the final state.
			oid, prev := oidOf(m, k), cellOf(m, k, side[k])
			next := cellOf(m, k, side[k]^1)
			final = append(final, func(s ServerAPI) {
				s.HandleUplink(msg.CellChangeReport{
					OID: oid, PrevCell: prev, NewCell: next, Pos: center(next), Tm: rounds + 1,
				})
			})
		}
	}
	// Churn: expiring installs and removals on the seeded focals (never
	// pending, never un-focal: their seed queries are permanent), and plain
	// installs on the rest, which stay pending until the object's mover
	// reports next.
	var churnOps []op
	rng := rand.New(rand.NewSource(99))
	nextQID := model.QueryID(firstChurnQID)
	var removable []model.QueryID
	for it := 0; it < churnIters; it++ {
		m := rng.Intn(movers)
		switch rng.Intn(4) {
		case 0:
			oid, exp := oidOf(m, rng.Intn(2)), model.Time(it+10+rng.Intn(30))
			churnOps = append(churnOps, func(s ServerAPI) {
				s.InstallQueryUntil(oid, model.CircleRegion{R: 4}, matchAll, 90, exp)
			})
			removable = append(removable, nextQID)
			nextQID++
		case 1:
			oid := oidOf(m, 2+rng.Intn(2))
			churnOps = append(churnOps, func(s ServerAPI) {
				s.InstallQuery(oid, model.CircleRegion{R: 3}, matchAll, 200)
			})
			nextQID++
		case 2:
			if len(removable) > 0 {
				qid := removable[0]
				removable = removable[1:]
				churnOps = append(churnOps, func(s ServerAPI) { s.RemoveQuery(qid) })
			}
		default:
			now := model.Time(it)
			churnOps = append(churnOps, func(s ServerAPI) { s.ExpireQueries(now) })
		}
	}

	run := func(s ServerAPI, ops []op) {
		for _, o := range ops {
			o(s)
		}
	}
	snapshotOf := func(s ServerAPI) []byte {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cs := newRouter(g, Options{}, nullDown{}, 2)
	run(cs, setup)
	var wg sync.WaitGroup
	for _, ops := range append(moverOps, churnOps) {
		wg.Add(1)
		go func(ops []op) {
			defer wg.Done()
			run(cs, ops)
		}(ops)
	}
	wg.Wait()
	run(cs, final)

	serial := NewServer(g, Options{}, nullDown{})
	run(serial, setup)
	run(serial, churnOps)
	for _, ops := range moverOps {
		run(serial, ops)
	}
	run(serial, final)

	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after the storm: %v", err)
	}
	if !bytes.Equal(snapshotOf(cs), snapshotOf(serial)) {
		t.Error("router snapshot after the storm differs from the serial replay")
	}
	if min := int64(movers * rounds / 4); cs.Migrations() < min {
		t.Errorf("only %d cross-node handoffs, want at least %d — the storm missed the boundary", cs.Migrations(), min)
	}
	if n := serial.NumQueries(); n <= len(seedQids) {
		t.Errorf("only %d queries survive — churn too weak", n)
	}
}

// TestShardedServerCrashRecovery: the nodes NewShardedServer builds (what
// the benchmark runs) are journaled like any other, so one can crash
// alone. After the scripted scenario and a checkpoint — the zero-loss
// watermark — crashing the node with the most journaled focals replays them
// into the survivors, and the router's snapshot must equal the serial
// replay's byte for byte.
func TestShardedServerCrashRecovery(t *testing.T) {
	g := smallGrid()
	serial := newHarness(g, Options{})
	h := newHarnessOver(g, Options{}, func(down Downlink) ServerAPI { return NewShardedServer(g, Options{}, down, 3) })
	runScenario(serial)
	runScenario(h)
	cs := h.server.(*ClusterServer)
	if cs.Migrations() == 0 {
		t.Fatal("scenario produced no cross-node handoffs — weak test")
	}
	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	victim, most := 0, 0
	for i := 0; i < cs.NumNodes(); i++ {
		if n, _ := cs.JournalSize(i); n > most {
			victim, most = i, n
		}
	}
	if most == 0 {
		t.Fatal("no node journaled a focal — weak test")
	}
	if err := cs.CrashNode(victim); err != nil {
		t.Fatalf("CrashNode(%d): %v", victim, err)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	var got, want bytes.Buffer
	if err := cs.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := serial.server.Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("snapshot after recovering node %d (%d focals) differs from the serial replay", victim, most)
	}
}
