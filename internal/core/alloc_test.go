//go:build !race

package core

// The allocation budgets are those of the uninstrumented build: the race
// detector changes inlining and escape decisions, so this file is left out
// under -race.

import (
	"slices"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/history"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/stream"
	"mobieyes/internal/obs/trace"
)

// allocSink is a downlink that notes the kind of the last message and the
// query IDs it carries, in a buffer that has already grown, so what
// AllocsPerRun sees from it is the boxing of the message and nothing else.
type allocSink struct {
	kind msg.Kind
	qids []model.QueryID
}

func (d *allocSink) Broadcast(_ grid.CellRange, m msg.Message) { d.note(m) }
func (d *allocSink) Unicast(_ model.ObjectID, m msg.Message)   { d.note(m) }

func (d *allocSink) note(m msg.Message) {
	d.kind, d.qids = m.Kind(), d.qids[:0]
	var states []msg.QueryState
	switch mm := m.(type) {
	case msg.QueryInstall:
		states = mm.Queries
	case msg.VelocityChange:
		states = mm.Queries
	}
	for _, qs := range states {
		d.qids = append(d.qids, qs.QID)
	}
}

// observeAll attaches every observer the public API offers — metrics, a
// trace ring, a cost accountant, and a result listener feeding a stream tap
// with one subscriber and a history store — and returns the subscriber's
// drain, which the measured ops call like a gateway would; it returns the
// number of result events taken.
func observeAll(s ServerAPI, g *grid.Grid) (drain func() int) {
	s.Instrument(obs.NewRegistry())
	s.SetTracer(trace.NewRecorder(256))
	acct := cost.New()
	acct.Configure(g.NumCells(), 0, 2)
	s.SetAccountant(acct)
	tap, hist := stream.NewTap(), history.NewStore(0)
	hist.SetCostHook(acct.HistoryAppend)
	tap.SetSink(func(qid int64, seq uint64, oid int64, enter bool) {
		hist.AppendResult(0, qid, seq, oid, enter)
	})
	sub, _ := tap.Subscribe(stream.Firehose, 1024)
	s.SetResultListener(func(ev ResultEvent) { tap.Publish(int64(ev.QID), int64(ev.OID), ev.Entered) })
	return func() int {
		evs, _ := sub.Drain()
		return len(evs)
	}
}

// TestCellChangeAllocationBudget pins the allocations of the two cell-change
// paths, of a containment flip and of an LQP focal velocity report on the
// serial server and through the router, each with no observer and with every
// observer attached. The observed column has the same budget: in steady
// state the trace ring, the cost tallies, the stream tap and its
// subscriber's buffers allocate nothing per op (the history store's segments
// amortize to zero). Every state list a send carries is lent from scratch
// the server owns and has already grown (see Downlink), so no budget counts
// one. A non-focal report shipping k fresh queries costs two: the report
// boxed into msg.Message at the call and the QueryInstall boxed into
// msg.Message — on the router too, where both spans contribute here and the
// second node's run appends into the same scratch. An in-span focal report
// costs the boxed report plus one boxed QueryInstall per bound query — the
// RQI itself only moves rows between posting lists that have already grown.
// An LQP velocity report over k ungrouped queries likewise costs the boxed
// report plus one boxed VelocityChange per query. Re-introducing a temporary
// (the fresh []QueryID of the map representation, a result slice per node in
// the router, a state list per send) breaks the budget. A containment report
// costs the boxed report; the result row it flips has already grown.
func TestCellChangeAllocationBudget(t *testing.T) {
	g := smallGrid()
	// Two nodes split the grid at row 10; cell (10,10) sees queries of focals
	// on both sides of the boundary, cell (10,5) none of them.
	prev, next := grid.CellID{Col: 10, Row: 5}, grid.CellID{Col: 10, Row: 10}
	const focalQueries = 3
	for _, tc := range []struct {
		name            string
		new             func(Options, Downlink) ServerAPI
		nonFocal, focal float64
		containment     float64
		lqpVelocity     float64
	}{
		{"serial", func(o Options, d Downlink) ServerAPI { return NewServer(g, o, d) }, 2, 1 + focalQueries, 1, 1 + focalQueries},
		{"router", func(o Options, d Downlink) ServerAPI { return NewClusterServer(g, o, d, 2) }, 2, 1 + focalQueries, 1, 1 + focalQueries},
	} {
		for _, observed := range []bool{false, true} {
			name, drain := tc.name, func() int { return 0 }
			if observed {
				name += "_observed"
			}
			t.Run(name, func(t *testing.T) {
				sink := &allocSink{}
				s := tc.new(Options{}, sink)
				if observed {
					drain = observeAll(s, g)
				}
				install := func(s ServerAPI, oid model.ObjectID, at grid.CellID, radius float64) {
					s.InstallQuery(oid, model.CircleRegion{R: radius}, matchAll, 100)
					s.HandleUplink(msg.FocalInfoResponse{OID: oid, Pos: cellCenter(g, at)})
				}
				for i := 0; i < 4; i++ {
					install(s, model.ObjectID(1+i), grid.CellID{Col: 8 + i, Row: 9}, 6)
					install(s, model.ObjectID(11+i), grid.CellID{Col: 8 + i, Row: 11}, 6)
				}
				fresh := s.NearbyQueries(next)
				if len(fresh) != 8 || len(s.NearbyQueries(prev)) != 0 {
					t.Fatalf("RQI(next) = %v, RQI(prev) = %v: want 8 fresh queries from both spans", fresh, s.NearbyQueries(prev))
				}
				report := msg.CellChangeReport{OID: 900, PrevCell: prev, NewCell: next, Pos: cellCenter(g, next)}
				got := testing.AllocsPerRun(200, func() {
					s.HandleUplink(report)
					drain()
				})
				if sink.kind != msg.KindQueryInstall || !slices.Equal(sink.qids, fresh) {
					t.Fatalf("shipped %v of %v, want QueryInstall of %v", sink.kind, sink.qids, fresh)
				}
				if got > tc.nonFocal {
					t.Errorf("non-focal cell change shipping %d queries: %v allocations, budget %v", len(fresh), got, tc.nonFocal)
				}

				// A focal with three queries shuttling between two cells of one span.
				const focal = model.ObjectID(800)
				a, b := grid.CellID{Col: 4, Row: 4}, grid.CellID{Col: 5, Row: 4}
				for i := 0; i < focalQueries; i++ {
					install(s, focal, a, 2+3*float64(i))
				}
				there := msg.CellChangeReport{OID: focal, PrevCell: a, NewCell: b, Pos: cellCenter(g, b)}
				back := msg.CellChangeReport{OID: focal, PrevCell: b, NewCell: a, Pos: cellCenter(g, a)}
				s.HandleUplink(there) // grow the posting lists of both regions once
				s.HandleUplink(back)
				got = testing.AllocsPerRun(200, func() {
					s.HandleUplink(there)
					s.HandleUplink(back)
					drain()
				}) / 2
				if got > tc.focal {
					t.Errorf("in-span focal cell change over %d queries: %v allocations, budget %v", focalQueries, got, tc.focal)
				}

				// Object 900 entering and leaving the result of a query whose
				// region covers its cell: two result events per run.
				q := fresh[0]
				enter := msg.ContainmentReport{OID: 900, QID: q, IsTarget: true}
				leave := msg.ContainmentReport{OID: 900, QID: q}
				s.HandleUplink(enter) // grow the result row once
				if r := s.Result(q); !slices.Equal(r, []model.ObjectID{900}) {
					t.Fatalf("result of %d after enter = %v, want [900]", q, r)
				}
				s.HandleUplink(leave)
				drain()
				drained := 0
				got = testing.AllocsPerRun(200, func() {
					s.HandleUplink(enter)
					s.HandleUplink(leave)
					drained += drain()
				}) / 2
				if r := s.Result(q); len(r) != 0 {
					t.Fatalf("result of %d after leave = %v", q, r)
				}
				if observed && drained != 2*201 {
					t.Fatalf("subscriber drained %d result events, want %d", drained, 2*201)
				}
				if got > tc.containment {
					t.Errorf("containment flip: %v allocations, budget %v", got, tc.containment)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}

				// Under LQP a velocity report of a focal with three queries of
				// distinct radii broadcasts one VelocityChange per query, each
				// carrying that query's full state.
				lqp := tc.new(Options{Mode: LazyPropagation}, sink)
				drain = func() int { return 0 }
				if observed {
					drain = observeAll(lqp, g)
				}
				for i := 0; i < focalQueries; i++ {
					install(lqp, focal, a, 2+3*float64(i))
				}
				qids := lqp.QueryIDs()
				vel := msg.VelocityReport{OID: focal, Pos: cellCenter(g, a), Vel: geo.Vec(1, 0)}
				lqp.HandleUplink(vel)
				got = testing.AllocsPerRun(200, func() {
					lqp.HandleUplink(vel)
					drain()
				})
				if sink.kind != msg.KindVelocityChange || !slices.Equal(sink.qids, qids[len(qids)-1:]) {
					t.Fatalf("last send %v of %v, want VelocityChange of query %d", sink.kind, sink.qids, qids[len(qids)-1])
				}
				if got > tc.lqpVelocity {
					t.Errorf("LQP focal velocity report over %d queries: %v allocations, budget %v", focalQueries, got, tc.lqpVelocity)
				}
				if err := lqp.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
