//go:build !race

package core

// The allocation budgets are those of the uninstrumented build: the race
// detector changes inlining and escape decisions, so this file is left out
// under -race.

import (
	"slices"
	"testing"

	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// allocSink is a downlink that keeps only the last message, so what
// AllocsPerRun sees from it is the boxing of the message and nothing else.
type allocSink struct{ last msg.Message }

func (d *allocSink) Broadcast(_ grid.CellRange, m msg.Message) { d.last = m }
func (d *allocSink) Unicast(_ model.ObjectID, m msg.Message)   { d.last = m }

// TestCellChangeAllocationBudget pins the allocations of the two cell-change
// paths on the serial server and through the router. A non-focal report
// shipping k fresh queries costs three: the report boxed into msg.Message at
// the call, the exact-size output slice and the QueryInstall boxed into
// msg.Message; the router pays a fourth only when, as here, both spans
// contribute and the second node's run grows the slice. An in-span focal
// report costs the boxed report plus two per bound query (the one-state slice
// and the boxed QueryInstall) — the RQI itself only moves rows between
// posting lists that have already grown. Re-introducing a temporary (the
// fresh []QueryID of the map representation, a result slice per node in the
// router) breaks the budget.
func TestCellChangeAllocationBudget(t *testing.T) {
	g := smallGrid()
	// Two nodes split the grid at row 10; cell (10,10) sees queries of focals
	// on both sides of the boundary, cell (10,5) none of them.
	prev, next := grid.CellID{Col: 10, Row: 5}, grid.CellID{Col: 10, Row: 10}
	const focalQueries = 3
	for _, tc := range []struct {
		name            string
		new             func(Downlink) ServerAPI
		nonFocal, focal float64
	}{
		{"serial", func(d Downlink) ServerAPI { return NewServer(g, Options{}, d) }, 3, 1 + 2*focalQueries},
		{"router", func(d Downlink) ServerAPI { return NewShardedServer(g, Options{}, d, 2) }, 4, 1 + 2*focalQueries},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &allocSink{}
			s := tc.new(sink)
			install := func(oid model.ObjectID, at grid.CellID, radius float64) {
				s.InstallQuery(oid, model.CircleRegion{R: radius}, matchAll, 100)
				s.HandleUplink(msg.FocalInfoResponse{OID: oid, Pos: cellCenter(g, at)})
			}
			for i := 0; i < 4; i++ {
				install(model.ObjectID(1+i), grid.CellID{Col: 8 + i, Row: 9}, 6)
				install(model.ObjectID(11+i), grid.CellID{Col: 8 + i, Row: 11}, 6)
			}
			fresh := s.NearbyQueries(next)
			if len(fresh) != 8 || len(s.NearbyQueries(prev)) != 0 {
				t.Fatalf("RQI(next) = %v, RQI(prev) = %v: want 8 fresh queries from both spans", fresh, s.NearbyQueries(prev))
			}
			report := msg.CellChangeReport{OID: 900, PrevCell: prev, NewCell: next, Pos: cellCenter(g, next)}
			got := testing.AllocsPerRun(200, func() { s.HandleUplink(report) })
			if qi, ok := sink.last.(msg.QueryInstall); !ok || !slices.Equal(qidsOf(qi.Queries), fresh) {
				t.Fatalf("shipped %v, want QueryInstall of %v", sink.last, fresh)
			}
			if got > tc.nonFocal {
				t.Errorf("non-focal cell change shipping %d queries: %v allocations, budget %v", len(fresh), got, tc.nonFocal)
			}

			// A focal with three queries shuttling between two cells of one span.
			const focal = model.ObjectID(800)
			a, b := grid.CellID{Col: 4, Row: 4}, grid.CellID{Col: 5, Row: 4}
			for i := 0; i < focalQueries; i++ {
				install(focal, a, 2+3*float64(i))
			}
			there := msg.CellChangeReport{OID: focal, PrevCell: a, NewCell: b, Pos: cellCenter(g, b)}
			back := msg.CellChangeReport{OID: focal, PrevCell: b, NewCell: a, Pos: cellCenter(g, a)}
			s.HandleUplink(there) // grow the posting lists of both regions once
			s.HandleUplink(back)
			got = testing.AllocsPerRun(200, func() {
				s.HandleUplink(there)
				s.HandleUplink(back)
			}) / 2
			if got > tc.focal {
				t.Errorf("in-span focal cell change over %d queries: %v allocations, budget %v", focalQueries, got, tc.focal)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
