package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/cost"
)

// cellMoves are the (prev, new) cell pairs the RQI tests share, on
// smallGrid's 20×20 cells with the 2-node span boundary between rows 9 and
// 10. As an object's cell change they exercise RQI(new) ∖ RQI(prev); as a
// focal's they exercise delta relocation, several of them across the span
// boundary.
var cellMoves = []cellMove{
	{"adjacent east", grid.CellID{Col: 9, Row: 9}, grid.CellID{Col: 10, Row: 9}},
	{"adjacent north across the span boundary", grid.CellID{Col: 10, Row: 9}, grid.CellID{Col: 10, Row: 10}},
	{"adjacent south across the span boundary", grid.CellID{Col: 10, Row: 10}, grid.CellID{Col: 10, Row: 9}},
	{"diagonal across the span boundary", grid.CellID{Col: 9, Row: 9}, grid.CellID{Col: 10, Row: 10}},
	{"diagonal inside a span", grid.CellID{Col: 4, Row: 4}, grid.CellID{Col: 3, Row: 5}},
	{"jump with disjoint regions", grid.CellID{Col: 2, Row: 2}, grid.CellID{Col: 15, Row: 16}},
	{"jump along a row", grid.CellID{Col: 3, Row: 12}, grid.CellID{Col: 11, Row: 12}},
	{"same cell", grid.CellID{Col: 7, Row: 7}, grid.CellID{Col: 7, Row: 7}},
	{"rejoin from an invalid cell", grid.CellID{Col: -1, Row: -1}, grid.CellID{Col: 10, Row: 10}},
	{"into a clamped corner", grid.CellID{Col: 1, Row: 1}, grid.CellID{Col: 0, Row: 0}},
	{"along a clamped border", grid.CellID{Col: 19, Row: 8}, grid.CellID{Col: 19, Row: 11}},
}

type cellMove struct {
	name      string
	prev, new grid.CellID
}

func cellCenter(g *grid.Grid, c grid.CellID) geo.Point {
	r := g.CellRect(c)
	return geo.Pt(r.LX+g.Alpha()/2, r.LY+g.Alpha()/2)
}

// rqiServers are the servers every RQI test runs on: the serial server and
// the router over two nodes, whose spans split smallGrid at row 10, built
// through each of its constructors.
func rqiServers() map[string]*harness {
	return map[string]*harness{
		"serial": newHarness(smallGrid(), Options{}),
		"router": newClusterHarness(smallGrid(), Options{}, 2),
		"shards": newShardedHarness(smallGrid(), Options{}, 2),
	}
}

// installSpread installs one query on each of 36 stationary focals spread
// over the whole grid, borders and both spans included, with radii from
// sub-cell to three cells — so every cell has a non-trivial RQI list.
func installSpread(h *harness) {
	for i := 0; i < 36; i++ {
		oid := model.ObjectID(i + 1)
		pos := geo.Pt(1+float64(i%6)*19.5, 1+float64(i/6)*19.5)
		h.addObject(oid, pos, geo.Vec(0, 0), 100, uint64(i+1))
		h.install(oid, 1+float64(i%5)*3.5, matchAll, 100)
	}
}

func qidsOf(states []msg.QueryState) []model.QueryID {
	var out []model.QueryID
	for _, qs := range states {
		out = append(out, qs.QID)
	}
	return out
}

// lastQueryInstallTo returns the queries of the last QueryInstall unicast to
// oid still queued on the harness downlink, and drops the queue.
func lastQueryInstallTo(h *harness, oid model.ObjectID) []model.QueryID {
	var out []model.QueryID
	for _, q := range h.downQueue {
		if qi, ok := q.m.(msg.QueryInstall); ok && q.target == oid {
			out = qidsOf(qi.Queries)
		}
	}
	h.downQueue = nil
	return out
}

// TestFreshQueryStatesMatchesBruteForce: what a non-focal cell change ships
// equals NearbyQueries(new) ∖ NearbyQueries(prev), ascending, for every kind
// of move — on the serial server straight from freshQueryStates, on the
// router as the union it unicasts.
func TestFreshQueryStatesMatchesBruteForce(t *testing.T) {
	const mover = model.ObjectID(1000) // never focal
	for name, h := range rqiServers() {
		installSpread(h)
		for _, mv := range cellMoves {
			t.Run(name+"/"+mv.name, func(t *testing.T) {
				want := bruteFresh(h.server, mv.prev, mv.new)
				if srv, ok := h.server.(*Server); ok {
					if got := qidsOf(srv.freshQueryStates(nil, mv.prev, mv.new)); !slices.Equal(got, want) {
						t.Errorf("freshQueryStates = %v, want %v", got, want)
					}
				}
				h.downQueue = nil
				h.server.HandleUplink(msg.CellChangeReport{OID: mover, PrevCell: mv.prev, NewCell: mv.new, Pos: cellCenter(h.g, mv.new)})
				if got := lastQueryInstallTo(h, mover); !slices.Equal(got, want) {
					t.Errorf("shipped %v, want %v", got, want)
				}
			})
		}
	}
}

// bruteFresh is NearbyQueries(next) ∖ NearbyQueries(prev), ascending.
func bruteFresh(s ServerAPI, prev, next grid.CellID) []model.QueryID {
	var out []model.QueryID
	seen := s.NearbyQueries(prev)
	for _, qid := range s.NearbyQueries(next) {
		if !slices.Contains(seen, qid) {
			out = append(out, qid)
		}
	}
	return out
}

// TestFreshQueryStatesAfterChurn: RQI edits keep no order, so removals
// (swap-delete), relocations and a cross-node handoff (appends) leave posting
// lists out of query-ID order — and each server's freshQueryStates run (each
// node's, on the router) must still be its part of NearbyQueries(new) ∖
// NearbyQueries(prev), ascending, what a non-focal cell change ships must be
// all of it, ascending, and NearbyQueries itself must be ascending.
func TestFreshQueryStatesAfterChurn(t *testing.T) {
	const mover, focal = model.ObjectID(1000), model.ObjectID(500)
	for name, h := range rqiServers() {
		t.Run(name, func(t *testing.T) {
			installSpread(h)
			h.addObject(focal, cellCenter(h.g, grid.CellID{Col: 9, Row: 8}), geo.Vec(0, 0), 100, 1)
			for _, r := range []float64{0.5, 4, 11} {
				h.install(focal, r, matchAll, 100)
			}
			for _, qid := range []model.QueryID{2, 8, 15, 16, 21, 27} {
				h.server.RemoveQuery(qid)
			}
			// Older focals move after newer queries were indexed, so their
			// rows land behind higher query IDs.
			for _, oid := range []model.ObjectID{7, 14, 22} {
				prev := h.g.CellOf(h.objs[h.byOID[oid]].Pos)
				next := grid.CellID{Col: prev.Col + 1, Row: prev.Row + 1}
				h.server.HandleUplink(msg.CellChangeReport{OID: oid, PrevCell: prev, NewCell: next, Pos: cellCenter(h.g, next)})
			}
			// The focal crosses the span boundary between rows 9 and 10.
			for _, mv := range [][2]grid.CellID{{{Col: 9, Row: 8}, {Col: 9, Row: 9}}, {{Col: 9, Row: 9}, {Col: 10, Row: 10}}} {
				h.server.HandleUplink(msg.CellChangeReport{OID: focal, PrevCell: mv[0], NewCell: mv[1], Pos: cellCenter(h.g, mv[1])})
			}
			if cs, ok := h.server.(*ClusterServer); ok && cs.Migrations() == 0 {
				t.Fatal("the focal's crossing made no handoff")
			}
			servers := churnServers(h.server)
			if !slices.ContainsFunc(servers, rqiScrambled) {
				t.Fatal("churn left every posting list in query-ID order")
			}
			if err := h.server.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			moves := slices.Clone(cellMoves)
			for idx := 0; idx < h.g.NumCells(); idx++ {
				c := h.g.CellAt(idx)
				if got := h.server.NearbyQueries(c); !slices.IsSorted(got) {
					t.Fatalf("NearbyQueries(%v) = %v, not ascending", c, got)
				}
				// A rejoin ships the cell's whole posting list.
				moves = append(moves, cellMove{"rejoin", grid.CellID{Col: -1, Row: -1}, c})
			}
			for _, mv := range moves {
				want := bruteFresh(h.server, mv.prev, mv.new)
				for i, srv := range servers {
					part := slices.DeleteFunc(slices.Clone(want), func(qid model.QueryID) bool { return srv.sqt[qid] == nil })
					if got := qidsOf(srv.freshQueryStates(nil, mv.prev, mv.new)); !slices.Equal(got, part) {
						t.Fatalf("%s into %v: server %d freshQueryStates = %v, want %v", mv.name, mv.new, i, got, part)
					}
				}
				// Reading a list sorts it in place, so the uplink gets the
				// list reversed.
				for _, srv := range servers {
					if h.g.Valid(mv.new) {
						slices.Reverse(srv.rqi[h.g.CellIndex(mv.new)])
					}
				}
				h.downQueue = nil
				h.server.HandleUplink(msg.CellChangeReport{OID: mover, PrevCell: mv.prev, NewCell: mv.new, Pos: cellCenter(h.g, mv.new)})
				if got := lastQueryInstallTo(h, mover); !slices.Equal(got, want) {
					t.Fatalf("%s into %v: shipped %v, want %v", mv.name, mv.new, got, want)
				}
			}
		})
	}
}

// churnServers returns the table-holding servers behind s: s itself, or the
// router's in-process nodes.
func churnServers(s ServerAPI) []*Server {
	if cs, ok := s.(*ClusterServer); ok {
		var out []*Server
		for _, n := range cs.local {
			out = append(out, n.srv)
		}
		return out
	}
	return []*Server{s.(*Server)}
}

// rqiScrambled reports whether some posting list of s is out of query-ID
// order.
func rqiScrambled(s *Server) bool {
	return slices.ContainsFunc(s.rqi, func(list []*sqtEntry) bool {
		return !slices.IsSortedFunc(list, func(a, b *sqtEntry) int { return cmp.Compare(a.query.ID, b.query.ID) })
	})
}

// TestKeptSendsOutliveTheLend: the server lends every state list it sends
// from scratch it reuses (see Downlink), so a downlink that keeps messages
// keeps msg.Retain copies — the harness's does. Queued unflushed across a
// run of cell changes, send k must still carry its own queries after sends
// k+1… have shipped different ones through the same scratch.
func TestKeptSendsOutliveTheLend(t *testing.T) {
	const mover = model.ObjectID(1000) // never focal
	for name, h := range rqiServers() {
		t.Run(name, func(t *testing.T) {
			installSpread(h)
			h.downQueue = nil
			var want [][]model.QueryID
			for _, mv := range cellMoves {
				if w := bruteFresh(h.server, mv.prev, mv.new); len(w) > 0 {
					want = append(want, w)
				}
				h.server.HandleUplink(msg.CellChangeReport{OID: mover, PrevCell: mv.prev, NewCell: mv.new, Pos: cellCenter(h.g, mv.new)})
			}
			var got [][]model.QueryID
			for _, q := range h.downQueue {
				if qi, ok := q.m.(msg.QueryInstall); ok && q.target == mover {
					got = append(got, qidsOf(qi.Queries))
				}
			}
			if len(want) < 2 || slices.Equal(want[0], want[1]) {
				t.Fatalf("want %v: need two different consecutive sends", want)
			}
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Errorf("kept sends carry %v, want %v", got, want)
			}
		})
	}
}

// TestRelocateQueryDelta: a focal cell change leaves the RQI equal to a
// from-scratch rebuild from the SQT's monitoring regions and charges exactly
// the cells that changed membership, |old △ new| summed over the focal's
// queries — in-table on the serial server, and through the handoff when the
// move crosses the router's span boundary.
func TestRelocateQueryDelta(t *testing.T) {
	const focal = model.ObjectID(500)
	radii := []float64{0.5, 4, 11}
	for _, mv := range cellMoves {
		if !smallGrid().Valid(mv.prev) {
			continue // a focal always has a current cell
		}
		for name, h := range rqiServers() {
			t.Run(name+"/"+mv.name, func(t *testing.T) {
				acct := cost.New()
				h.server.SetAccountant(acct)
				installSpread(h)
				h.addObject(focal, cellCenter(h.g, mv.prev), geo.Vec(0, 0), 100, 1)
				var qids []model.QueryID
				for _, r := range radii {
					qids = append(qids, h.install(focal, r, matchAll, 100))
				}
				old := make([]grid.CellRange, len(qids))
				for i, qid := range qids {
					old[i], _ = h.server.MonRegion(qid)
				}
				var migrations int64
				if cs, ok := h.server.(*ClusterServer); ok {
					migrations = cs.Migrations()
				}
				before := acct.Global().ComputeUnits(cost.UnitRQITouch)

				h.server.HandleUplink(msg.CellChangeReport{OID: focal, PrevCell: mv.prev, NewCell: mv.new, Pos: cellCenter(h.g, mv.new)})

				want := int64(0)
				for i, qid := range qids {
					now, _ := h.server.MonRegion(qid)
					if mr := h.g.MonitoringRegion(mv.new, radii[i]); now != mr {
						t.Errorf("query %d monitoring region %v, want %v", qid, now, mr)
					}
					for idx := 0; idx < h.g.NumCells(); idx++ {
						if c := h.g.CellAt(idx); old[i].Contains(c) != now.Contains(c) {
							want++
						}
					}
				}
				if got := acct.Global().ComputeUnits(cost.UnitRQITouch) - before; got != want {
					t.Errorf("charged %d RQI touches, want |old △ new| = %d", got, want)
				}
				if cs, ok := h.server.(*ClusterServer); ok {
					crosses := (mv.prev.Row < 10) != (mv.new.Row < 10)
					if handed := cs.Migrations() > migrations; handed != crosses {
						t.Errorf("handoff = %v, want %v", handed, crosses)
					}
				}
				if err := rqiMatchesRebuild(h.server, h.g); err != nil {
					t.Error(err)
				}
				if err := h.server.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// rqiMatchesRebuild compares every cell's RQI list with the one rebuilt from
// scratch out of the installed queries' monitoring regions.
func rqiMatchesRebuild(s ServerAPI, g *grid.Grid) error {
	qids := s.QueryIDs()
	for idx := 0; idx < g.NumCells(); idx++ {
		c := g.CellAt(idx)
		var want []model.QueryID
		for _, qid := range qids {
			if mr, _ := s.MonRegion(qid); mr.Contains(c) {
				want = append(want, qid)
			}
		}
		if got := s.NearbyQueries(c); !slices.Equal(got, want) {
			return fmt.Errorf("RQI(%v) = %v, rebuilt from the SQT %v", c, got, want)
		}
	}
	return nil
}

// TestCheckInvariantsCatchesStaleIndexRows: the posting lists hold SQT rows
// and the SQT rows hold FOT rows by pointer, so CheckInvariants must fail on
// a row listed twice in one cell, on a list holding a copy of a row, and on a
// row whose focal pointer is not the live FOT row.
func TestCheckInvariantsCatchesStaleIndexRows(t *testing.T) {
	setup := func() (*Server, *sqtEntry, *[]*sqtEntry) {
		h := newHarness(smallGrid(), Options{})
		h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 1)
		h.install(1, 3, matchAll, 100)
		qid := h.install(1, 6, matchAll, 100)
		srv := h.server.(*Server)
		if err := srv.CheckInvariants(); err != nil {
			t.Fatalf("healthy server flagged: %v", err)
		}
		list := &srv.rqi[srv.g.CellIndex(srv.g.CellOf(geo.Pt(50, 50)))]
		if len(*list) != 2 {
			t.Fatalf("focal cell lists %d queries, want 2", len(*list))
		}
		return srv, srv.sqt[qid], list
	}
	t.Run("duplicate", func(t *testing.T) {
		// An add of a row the list already holds, as a caller breaking
		// rqiEdit's "absent" precondition would make it: the incremental
		// count agrees, and every cell still lists the row.
		srv, e, _ := setup()
		c := srv.g.CellOf(geo.Pt(50, 50))
		if srv.rqiAdd(e, grid.CellRange{Min: c, Max: c}) != 1 {
			t.Fatal("the add changed no list")
		}
		if srv.CheckInvariants() == nil {
			t.Error("row listed twice in one posting list not detected")
		}
	})
	t.Run("stale SQT row", func(t *testing.T) {
		srv, e, list := setup()
		stale := *e
		(*list)[1] = &stale
		if srv.CheckInvariants() == nil {
			t.Error("posting list holding a copy of the SQT row not detected")
		}
	})
	t.Run("stale FOT row", func(t *testing.T) {
		srv, e, _ := setup()
		stale := *e.fe
		e.fe = &stale
		if srv.CheckInvariants() == nil {
			t.Error("SQT row pointing at a copy of the FOT row not detected")
		}
	})
}
