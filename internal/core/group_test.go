package core

import (
	"slices"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/cost"
)

// TestGroupReportAppliesOnlyToItsFocal: a group is keyed by its focal
// object (§4.1), so a GroupContainmentReport updates only the queries whose
// focal is m.Focal, and the router forwards it to the node owning that
// focal. A report naming queries of another focal — here one on the other
// side of the 2-node span boundary at y = 50 — must leave those queries
// alone on every backend, and one with no query on the focal's node is
// charged to the router ledger.
func TestGroupReportAppliesOnlyToItsFocal(t *testing.T) {
	g := smallGrid()
	backends := []struct {
		name   string
		new    func() *harness
		router bool
	}{
		{"serial", func() *harness { return newHarness(g, Options{}) }, false},
		{"sharded", func() *harness { return newShardedHarness(g, Options{}, 2) }, true},
		{"cluster", func() *harness { return newClusterHarness(g, Options{}, 2) }, true},
	}
	const oid = model.ObjectID(7)
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			h := b.new()
			a := cost.New()
			a.Configure(g.NumCells(), 0, 2)
			h.server.SetAccountant(a)
			h.addObject(1, geo.Pt(20, 25), geo.Vec(0, 0), 200, 1) // node 0's span
			h.addObject(2, geo.Pt(20, 75), geo.Vec(0, 0), 200, 2) // node 1's span
			h.addObject(oid, geo.Pt(90, 90), geo.Vec(0, 0), 200, 7)
			q1 := h.install(1, 2, matchAll, 200)
			q2 := h.install(2, 2, matchAll, 200)
			all := msg.NewBitmap(2)
			all.Set(0, true)
			all.Set(1, true)

			for _, qids := range [][]model.QueryID{{q1, q2}, {q2, q1}} {
				h.server.HandleUplink(msg.GroupContainmentReport{OID: oid, Focal: 1, QIDs: qids, Bitmap: all})
				if got := h.server.Result(q1); !slices.Equal(got, []model.ObjectID{oid}) {
					t.Errorf("QIDs %v: Result(q1) = %v, want [%d]", qids, got, oid)
				}
				if got := h.server.Result(q2); len(got) != 0 {
					t.Errorf("QIDs %v: Result(q2) = %v, want [] (q2's focal is 2)", qids, got)
				}
			}

			before := a.Router().UplinkMsgs()
			one := msg.NewBitmap(1)
			one.Set(0, true)
			h.server.HandleUplink(msg.GroupContainmentReport{OID: oid, Focal: 1, QIDs: []model.QueryID{q2}, Bitmap: one})
			if got := h.server.Result(q2); len(got) != 0 {
				t.Errorf("focal-1 report for q2 alone: Result(q2) = %v, want []", got)
			}
			if b.router {
				if got := a.Router().UplinkMsgs() - before; got != 1 {
					t.Errorf("router ledger charged %d messages for a report with no query on the focal's node, want 1", got)
				}
			}
			if err := h.server.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
