package core

import (
	"bytes"
	"strings"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// TestCheckpointDeltaRoundTrip: pulling checkpoints after a busy scenario
// journals every live focal slice byte-identically to the node's own
// non-destructive encoding, a second pull with no traffic is an empty
// delta at the same sequence, and new traffic dirties the delta again.
func TestCheckpointDeltaRoundTrip(t *testing.T) {
	cluster := newClusterHarness(smallGrid(), Options{}, 3)
	runScenario(cluster)
	cs := cluster.server.(*ClusterServer)

	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	total := 0
	for i := range cs.nodes {
		slices, seq := cs.JournalSize(i)
		total += slices
		if slices > 0 && seq == 0 {
			t.Errorf("node %d: %d slices journaled at seq 0", i, slices)
		}
		// Journal bytes must equal the node's current (non-destructive)
		// encoding of each focal — the replay source is exact.
		for oid, journaled := range cs.journal[i].slices {
			ns := cs.local[i]
			if ns == nil {
				t.Fatalf("node %d has no local NodeServer", i)
			}
			if live := ns.srv.encodeFocalState(oid); !bytes.Equal(journaled, live) {
				t.Errorf("node %d focal %d: journaled slice differs from live encoding", i, oid)
			}
		}
	}
	if total == 0 {
		t.Fatal("scenario journaled no focal slices — weak test")
	}

	// Idle second pull: empty delta, sequence unchanged.
	seqs := make([]uint64, len(cs.nodes))
	for i := range cs.nodes {
		_, seqs[i] = cs.JournalSize(i)
	}
	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("idle Checkpoint: %v", err)
	}
	for i := range cs.nodes {
		if _, seq := cs.JournalSize(i); seq != seqs[i] {
			t.Errorf("node %d: idle checkpoint bumped seq %d -> %d", i, seqs[i], seq)
		}
	}

	// Traffic dirties the delta: at least one node's sequence advances.
	cluster.step(model.FromSeconds(30))
	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("post-step Checkpoint: %v", err)
	}
	advanced := false
	for i := range cs.nodes {
		if _, seq := cs.JournalSize(i); seq > seqs[i] {
			advanced = true
		}
	}
	if !advanced {
		t.Error("a step's worth of traffic advanced no checkpoint sequence")
	}
}

// TestCheckpointDeltaDesync: a since that does not match the node's
// sequence is an error, never a silently wrong delta.
func TestCheckpointDeltaDesync(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	runScenario(h)
	n := &NodeServer{srv: h.server.(*Server)}
	d, err := n.CheckpointDelta(0)
	if err != nil {
		t.Fatalf("first delta: %v", err)
	}
	if len(d.Slices) == 0 {
		t.Fatal("first delta empty — weak test")
	}
	if _, err := n.CheckpointDelta(d.Seq + 7); err == nil {
		t.Error("desynced since accepted")
	}
	if _, err := n.CheckpointDelta(d.Seq); err != nil {
		t.Errorf("matching since refused: %v", err)
	}
}

// TestCheckpointReplayFreshNode: a checkpointed slice injected into a
// fresh node (the replay path) restores rows that re-encode
// byte-identically and satisfy the engine invariants — including the
// single-focal node edge case.
func TestCheckpointReplayFreshNode(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	runScenario(h)
	src := &NodeServer{srv: h.server.(*Server)}
	oids := src.FocalIDs()
	if len(oids) < 2 {
		t.Fatal("scenario left fewer than 2 focals — weak test")
	}

	for _, oid := range oids {
		fresh := NewNodeServer(smallGrid(), Options{}, nullDown{})
		slice := src.srv.encodeFocalState(oid)
		got, err := FocalSliceOID(slice)
		if err != nil || got != oid {
			t.Fatalf("FocalSliceOID = %d, %v; want %d", got, err, oid)
		}
		cell, _ := src.FocalCell(oid)
		st := src.srv.fot[oid].state
		if err := fresh.InjectFocal(slice, st, cell, false, true, 0); err != nil {
			t.Fatalf("replay inject of focal %d: %v", oid, err)
		}
		if err := fresh.CheckInvariants(); err != nil {
			t.Errorf("invariants after replaying focal %d: %v", oid, err)
		}
		if again := fresh.srv.encodeFocalState(oid); !bytes.Equal(slice, again) {
			t.Errorf("focal %d: replayed slice re-encodes differently", oid)
		}
	}

	// Empty-node edge: a fresh node's delta is empty at seq 0, and stays
	// empty across pulls.
	empty := NewNodeServer(smallGrid(), Options{}, nullDown{})
	for pull := 0; pull < 2; pull++ {
		d, err := empty.CheckpointDelta(0)
		if err != nil {
			t.Fatalf("empty-node delta: %v", err)
		}
		if d.Seq != 0 || len(d.Slices) != 0 || len(d.Removed) != 0 {
			t.Fatalf("empty-node delta = %+v, want zero", d)
		}
	}
}

// TestFocalSliceOIDRejectsGarbage: the journal key reader refuses
// truncated and version-skewed slices.
func TestFocalSliceOIDRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, {1, 0, 9}, {2, 0, 9, 0, 0, 0}} {
		if _, err := FocalSliceOID(b); err == nil {
			t.Errorf("FocalSliceOID(%v) accepted", b)
		}
	}
}

// TestClusterCrashRecovery: after a full checkpoint, an ungraceful crash
// of a focal-bearing node preserves the durable snapshot byte-for-byte
// (the journal replay restores every row), invariants hold, and the
// cluster keeps matching the serial server afterwards. Crashing a dead
// node or the last survivor is refused.
func TestClusterCrashRecovery(t *testing.T) {
	serial := newHarness(smallGrid(), Options{})
	cluster := newClusterHarness(smallGrid(), Options{}, 3)
	runScenario(serial)
	runScenario(cluster)
	cs := cluster.server.(*ClusterServer)

	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if slices, _ := cs.JournalSize(1); slices == 0 {
		t.Fatal("node 1 holds no journaled focals — weak test")
	}
	var before bytes.Buffer
	if err := cs.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	if err := cs.CrashNode(1); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	var after bytes.Buffer
	if err := cs.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("crash recovery changed the durable snapshot")
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after crash: %v", err)
	}
	spans := cs.Spans()
	if spans[1].Live || spans[1].Focals != 0 || spans[1].Queries != 0 {
		t.Errorf("crashed node still reports state: %+v", spans[1])
	}
	if slices, seq := cs.JournalSize(1); slices != 0 || seq != 0 {
		t.Errorf("crashed node's journal not cleared: %d slices seq %d", slices, seq)
	}

	// The cluster must keep tracking the serial server after recovery.
	for step := 0; step < 4; step++ {
		serial.step(model.FromSeconds(30))
		cluster.step(model.FromSeconds(30))
	}
	for _, qid := range serial.server.QueryIDs() {
		if !idsEqual(serial.server.Result(qid), cluster.server.Result(qid)) {
			t.Errorf("query %d result diverged after crash recovery", qid)
		}
	}

	if err := cs.CrashNode(1); err == nil {
		t.Error("crashing a dead node should fail")
	}
	if err := cs.CrashNode(3); err == nil {
		t.Error("crashing an out-of-range node should fail")
	}
	if err := cs.CrashNode(0); err != nil {
		t.Fatalf("CrashNode(0): %v", err)
	}
	if err := cs.CrashNode(2); err == nil {
		t.Error("crashing the last live node should be refused")
	}
}

// TestCrashSuppressedReplayLosesState: with replay suppressed (the teeth
// knob), a crash loses every focal the dead node owned — the routing
// tables are swept clean, yet invariants still hold and the cluster keeps
// serving. This is the state of the world the convergence oracle must
// catch.
func TestCrashSuppressedReplayLosesState(t *testing.T) {
	cluster := newClusterHarness(smallGrid(), Options{}, 3)
	runScenario(cluster)
	cs := cluster.server.(*ClusterServer)
	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	lost := 0
	for _, ni := range cs.focalNode {
		if ni == 1 {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("node 1 owns no focals — weak test")
	}
	beforeFocals := len(cs.focalNode)
	cs.SuppressRecoveryReplay(true)
	defer cs.SuppressRecoveryReplay(false)
	if err := cs.CrashNode(1); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	if got := len(cs.focalNode); got != beforeFocals-lost {
		t.Errorf("focals after suppressed-replay crash = %d, want %d", got, beforeFocals-lost)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after lossy crash: %v", err)
	}
}

// TestCrashStaleWatermarkKeepsInvariants: with the journal one checkpoint
// behind — traffic, including a handoff, after the last pull — a crash must
// still recover cleanly: stale shadows of focals that migrated away are
// skipped, whatever is journaled for focals the dead node still owned is
// restored, and invariants hold throughout.
func TestCrashStaleWatermarkKeepsInvariants(t *testing.T) {
	cluster := newClusterHarness(smallGrid(), Options{}, 3)
	runScenario(cluster)
	cs := cluster.server.(*ClusterServer)
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Step until a journaled focal has handed off away from its node (or
	// departed): that node's journal then holds a stale shadow.
	victim := -1
	for step := 0; step < 10 && victim < 0; step++ {
		cluster.keepInside()
		cluster.step(model.FromSeconds(30))
		for i := range cs.nodes {
			for oid := range cs.journal[i].slices {
				if ni, ok := cs.focalNode[oid]; !ok || ni != i {
					victim = i
				}
			}
		}
	}
	if victim < 0 {
		t.Fatal("no handoff after the watermark — no stale shadow to skip")
	}
	if err := cs.CrashNode(victim); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stale-watermark crash: %v", err)
	}
	// The cluster keeps serving: a few more steps, invariants still hold.
	for step := 0; step < 3; step++ {
		cluster.step(model.FromSeconds(30))
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after post-crash steps: %v", err)
	}
}

// TestCheckpointDeltaPerMutationKind: one case per kind of write that
// changes a focal's encoded slice. After the tracking-starting first pull,
// each mutation must put exactly its focal into the next delta — as a slice
// equal to the live encoding, or as a Removed entry once the row is gone —
// and the pull after that must be empty at an unchanged sequence. The node
// holds bystander focals throughout: none of them may ride along.
func TestCheckpointDeltaPerMutationKind(t *testing.T) {
	const (
		target = model.ObjectID(5)  // the focal each case mutates
		member = model.ObjectID(50) // a non-focal object entering/leaving results
		q1     = model.QueryID(105) // target's first query (bystander i has 100+i)
		q2     = model.QueryID(205) // target's second query, when a case installs one
	)
	g := smallGrid()
	state := func(x, y float64) model.MotionState {
		return model.MotionState{Pos: geo.Pt(x, y), Vel: geo.Vec(1, 0), Tm: 1}
	}
	query := func(qid model.QueryID, focal model.ObjectID) model.Query {
		return model.Query{ID: qid, Focal: focal, Region: model.CircleRegion{R: 3}, Filter: matchAll}
	}
	enter := func(n *NodeServer) {
		n.ContainmentReport(msg.ContainmentReport{OID: member, QID: q1, IsTarget: true}, 0)
	}
	secondQuery := func(n *NodeServer) { n.CompleteInstall(q2, query(q2, target), 100, 0, 0) }
	none := func(*NodeServer) {}

	cases := []struct {
		name    string
		oid     model.ObjectID
		setup   func(n *NodeServer) // before the first pull
		mutate  func(n *NodeServer) // between the first pull and the asserted one
		removed bool
	}{
		{"velocity report", target, none, func(n *NodeServer) {
			n.VelocityReport(msg.VelocityReport{OID: target, Pos: geo.Pt(52, 52), Vel: geo.Vec(0, 2), Tm: 2}, 0)
		}, false},
		{"in-span cell change", target, none, func(n *NodeServer) {
			st := state(58, 52)
			n.FocalCellChange(target, st, g.CellOf(st.Pos), 0)
		}, false},
		{"serial cell-change report", target, none, func(n *NodeServer) {
			st := state(58, 52)
			n.srv.HandleUplink(msg.CellChangeReport{OID: target, PrevCell: g.CellOf(geo.Pt(52, 52)),
				NewCell: g.CellOf(st.Pos), Pos: st.Pos, Vel: st.Vel, Tm: st.Tm})
		}, false},
		{"focal info refresh", target, none, func(n *NodeServer) { n.UpsertFocal(target, state(53, 52), 0) }, false},
		{"second query on a focal", target, none, secondQuery, false},
		{"remove one of two queries", target, secondQuery, func(n *NodeServer) { n.RemoveQuery(q2, 0) }, false},
		{"remove the last query", target, none, func(n *NodeServer) { n.RemoveQuery(q1, 0) }, true},
		{"expiry", target, func(n *NodeServer) {
			n.CompleteInstall(q2, query(q2, target), 100, model.FromSeconds(10), 0)
		}, func(n *NodeServer) {
			for _, qid := range n.DueExpiries(model.FromSeconds(11)) {
				n.RemoveQuery(qid, 0)
			}
		}, false},
		{"expiry write on an installed query", target, none, func(n *NodeServer) {
			n.srv.InstallQueryUntil(target, model.CircleRegion{R: 2}, matchAll, 100, model.FromSeconds(10))
		}, false},
		{"containment enter", target, none, enter, false},
		{"containment leave", target, enter, func(n *NodeServer) {
			n.ContainmentReport(msg.ContainmentReport{OID: member, QID: q1, IsTarget: false}, 0)
		}, false},
		{"group containment", target, secondQuery, func(n *NodeServer) {
			bm := msg.NewBitmap(2)
			bm.Set(1, true)
			n.GroupContainmentReport(msg.GroupContainmentReport{OID: member, Focal: target,
				QIDs: []model.QueryID{q1, q2}, Bitmap: bm}, 0)
		}, false},
		{"departure of a result member", target, enter, func(n *NodeServer) { n.DepartSweep(member, 0) }, false},
		{"serial departure of a result member", target, enter, func(n *NodeServer) {
			n.srv.HandleUplink(msg.DepartureReport{OID: member})
		}, false},
		{"rejoin ClearResults", target, enter, func(n *NodeServer) { n.ClearResults(member, 0) }, false},
		{"departure of the focal", target, none, func(n *NodeServer) { n.DepartFocal(target, 0) }, true},
		{"serial departure of the focal", target, none, func(n *NodeServer) {
			n.srv.HandleUplink(msg.DepartureReport{OID: target})
		}, true},
		{"departure of a query-less focal", 60, func(n *NodeServer) { n.UpsertFocal(60, state(20, 20), 0) },
			func(n *NodeServer) { n.srv.HandleUplink(msg.DepartureReport{OID: 60}) }, true},
		{"router departure of a query-less focal", 60, func(n *NodeServer) { n.UpsertFocal(60, state(20, 20), 0) },
			func(n *NodeServer) { n.DepartFocal(60, 0) }, true},
		{"extract", target, none, func(n *NodeServer) {
			if _, err := n.ExtractFocal(target, false, 0); err != nil {
				t.Fatalf("extract: %v", err)
			}
		}, true},
		{"inject", 70, none, func(n *NodeServer) {
			other := NewNodeServer(g, Options{}, nullDown{})
			other.UpsertFocal(70, state(80, 80), 0)
			other.CompleteInstall(170, query(170, 70), 100, 0, 0)
			slice, err := other.ExtractFocal(70, false, 0)
			if err != nil {
				t.Fatalf("extract: %v", err)
			}
			st := state(70, 70)
			if err := n.InjectFocal(slice, st, g.CellOf(st.Pos), true, false, 0); err != nil {
				t.Fatalf("inject: %v", err)
			}
		}, false},
		{"snapshot restore of a query", 80, none, func(n *NodeServer) {
			// RestoreServer's per-slice step: a relocate-free injectFocal.
			other := NewNodeServer(g, Options{}, nullDown{})
			other.UpsertFocal(80, state(30, 30), 0)
			other.CompleteInstall(180, query(180, 80), 100, 0, 0)
			rec, st, cell, err := decodeFocalSlice(other.srv.encodeFocalState(80))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			n.srv.injectFocal(rec, st, cell, false)
		}, false},
		// The router's journal never held this oid: the Removed entry is a
		// delete of nothing there.
		{"create then remove between two pulls", 90, none, func(n *NodeServer) {
			n.UpsertFocal(90, state(40, 40), 0)
			n.CompleteInstall(190, query(190, 90), 100, 0, 0)
			n.RemoveQuery(190, 0)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNodeServer(g, Options{}, nullDown{})
			for i := 1; i <= 9; i++ {
				oid := model.ObjectID(i)
				n.UpsertFocal(oid, state(float64(10*i)+2, float64(10*i)+2), 0)
				n.CompleteInstall(model.QueryID(100+i), query(model.QueryID(100+i), oid), 100, 0, 0)
			}
			tc.setup(n)
			first, err := n.CheckpointDelta(0)
			if err != nil || len(first.Slices) < 9 || len(first.Removed) != 0 || first.Seq != 1 {
				t.Fatalf("first pull = %d slices, %d removed, seq %d, err %v; want the full table at seq 1",
					len(first.Slices), len(first.Removed), first.Seq, err)
			}
			tc.mutate(n)
			d, err := n.CheckpointDelta(1)
			if err != nil {
				t.Fatal(err)
			}
			if d.Seq != 2 {
				t.Errorf("delta seq = %d, want 2", d.Seq)
			}
			if tc.removed {
				if len(d.Slices) != 0 || len(d.Removed) != 1 || d.Removed[0] != tc.oid {
					t.Fatalf("delta = %d slices, removed %v; want only focal %d removed", len(d.Slices), d.Removed, tc.oid)
				}
			} else {
				if len(d.Removed) != 0 || len(d.Slices) != 1 {
					t.Fatalf("delta = %d slices, removed %v; want only focal %d's slice", len(d.Slices), d.Removed, tc.oid)
				}
				if oid, err := FocalSliceOID(d.Slices[0]); err != nil || oid != tc.oid {
					t.Fatalf("delta slice is focal %d (%v), want %d", oid, err, tc.oid)
				}
				if !bytes.Equal(d.Slices[0], n.srv.encodeFocalState(tc.oid)) {
					t.Error("delta slice differs from the live encoding")
				}
			}
			idle, err := n.CheckpointDelta(2)
			if err != nil || idle.Seq != 2 || len(idle.Slices) != 0 || len(idle.Removed) != 0 {
				t.Errorf("idle pull = %+v, %v; want empty at seq 2", idle, err)
			}
			if err := n.CheckInvariants(); err != nil {
				t.Errorf("invariants: %v", err)
			}
		})
	}
}

// TestCheckpointDesyncKeepsDirtySet: a refused pull must not consume the
// marks — the next matching pull still carries them.
func TestCheckpointDesyncKeepsDirtySet(t *testing.T) {
	n := NewNodeServer(smallGrid(), Options{}, nullDown{})
	st := model.MotionState{Pos: geo.Pt(50, 50), Tm: 1}
	n.UpsertFocal(1, st, 0)
	if _, err := n.CheckpointDelta(0); err != nil {
		t.Fatal(err)
	}
	n.UpsertFocal(2, st, 0)
	if _, err := n.CheckpointDelta(9); err == nil {
		t.Fatal("desynced since accepted")
	}
	d, err := n.CheckpointDelta(1)
	if err != nil || len(d.Slices) != 1 || d.Seq != 2 {
		t.Fatalf("pull after a desync = %d slices, seq %d, %v; want focal 2's slice at seq 2", len(d.Slices), d.Seq, err)
	}
}

// TestCheckInvariantsCatchesMissedMark is the teeth test of the journal
// check in ClusterServer.CheckInvariants: a write to a checkpointed focal's
// row or result set that bypasses markDirty, and a row deleted without a
// mark, must each fail it; the mark repairs it.
func TestCheckInvariantsCatchesMissedMark(t *testing.T) {
	cluster := newClusterHarness(smallGrid(), Options{}, 3)
	runScenario(cluster)
	cs := cluster.server.(*ClusterServer)
	// A failure must come from the journal check, not from a routing
	// invariant the bypass happened to break as well.
	check := func(want bool, what string) {
		t.Helper()
		err := cs.CheckInvariants()
		if (err == nil) != want || (err != nil && !strings.Contains(err.Error(), "journal")) {
			t.Fatalf("%s: CheckInvariants = %v", what, err)
		}
	}
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(true, "after a full checkpoint")
	var srv *Server
	var oid model.ObjectID
	for _, ns := range cs.local {
		for o, fe := range ns.srv.fot {
			if len(fe.queries) > 0 {
				srv, oid = ns.srv, o
			}
		}
	}
	if srv == nil {
		t.Fatal("scenario left no focal with a query — weak test")
	}
	fe := srv.fot[oid]

	fe.state.Tm++ // an FOT write with no mark
	check(false, "unmarked FOT write")
	srv.markDirty(oid)
	check(true, "FOT write once marked")
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	srv.sqt[fe.queries[0]].result[9999] = struct{}{} // a result write around notifyResult
	check(false, "unmarked result write")
	srv.markDirty(oid)
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(true, "result write once checkpointed")

	// A departure whose FOT delete forgot its mark: rows and routes go, the
	// journal keeps a slice nothing will ever report Removed.
	qids := append([]model.QueryID(nil), fe.queries...)
	srv.extractFocal(oid)
	delete(srv.dirty, oid)
	delete(cs.focalNode, oid)
	for _, qid := range qids {
		delete(cs.queryNode, qid)
	}
	check(false, "unmarked FOT delete")
	srv.markDirty(oid)
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(true, "FOT delete once checkpointed")
}

// TestCheckpointBarrierAfterInOpWrites pins when a handoff journals its
// source first: only after the uplink being dispatched has written node rows
// (a rejoin's ClearResults sweep, or completed pending installs). Two nodes
// on smallGrid split it at row 10. Focal Y (row 2, node 0) has a radius-40
// query whose result holds X, itself a focal, at row 9 (node 0); X then
// crosses into row 10 (node 1).
func TestCheckpointBarrierAfterInOpWrites(t *testing.T) {
	const (
		y = model.ObjectID(1)
		x = model.ObjectID(2)
	)
	g := smallGrid()
	xFrom, xTo := geo.Pt(50, 47), geo.Pt(50, 52)
	setup := func(t *testing.T) (*Server, *ClusterServer, []ServerAPI, model.QueryID) {
		t.Helper()
		serial := NewServer(g, Options{}, nullDown{})
		cs := NewClusterServer(g, Options{}, nullDown{}, 2)
		servers := []ServerAPI{serial, cs}
		var qY model.QueryID
		for _, s := range servers {
			qY = s.InstallQuery(y, model.CircleRegion{R: 40}, matchAll, 100)
			s.HandleUplink(msg.FocalInfoResponse{OID: y, Pos: geo.Pt(50, 12)})
			s.InstallQuery(x, model.CircleRegion{R: 1}, matchAll, 100)
			s.HandleUplink(msg.FocalInfoResponse{OID: x, Pos: xFrom})
			s.HandleUplink(msg.ContainmentReport{OID: x, QID: qY, IsTarget: true})
		}
		if ni := cs.focalNode[x]; ni != 0 || cs.nodeOf(g.CellOf(xTo)) != 1 {
			t.Fatalf("X on node %d, its target cell on node %d; want 0 -> 1", ni, cs.nodeOf(g.CellOf(xTo)))
		}
		if !idsEqual(cs.Result(qY), []model.ObjectID{x}) {
			t.Fatalf("setup: result(qY) = %v, want [%d]", cs.Result(qY), x)
		}
		return serial, cs, servers, qY
	}
	apply := func(servers []ServerAPI, m msg.Message) {
		for _, s := range servers {
			s.HandleUplink(m)
		}
	}
	// recovered checks that node 0 crashed inside the handoff and that the
	// recovered router matches the serial server exactly.
	recovered := func(t *testing.T, serial *Server, cs *ClusterServer, qY model.QueryID) {
		t.Helper()
		if cs.Spans()[0].Live {
			t.Fatal("the armed handoff crash did not fire")
		}
		if got, want := cs.Result(qY), serial.Result(qY); !idsEqual(got, want) {
			t.Errorf("result(qY) = %v, serial %v", got, want)
		}
		var a, b bytes.Buffer
		if err := serial.Snapshot(&a); err != nil {
			t.Fatal(err)
		}
		if err := cs.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Error("recovered snapshot differs from the serial server's")
		}
		if err := cs.CheckInvariants(); err != nil {
			t.Errorf("invariants after recovery: %v", err)
		}
	}
	rejoin := msg.CellChangeReport{OID: x, PrevCell: grid.CellID{Col: -1, Row: -1}, NewCell: g.CellOf(xTo), Pos: xTo}
	crossing := msg.CellChangeReport{OID: x, PrevCell: g.CellOf(xFrom), NewCell: g.CellOf(xTo), Pos: xTo, Tm: 1}
	velocity := msg.VelocityReport{OID: y, Pos: geo.Pt(51, 12), Vel: geo.Vec(1, 0), Tm: 1}

	t.Run("rejoin journals the source", func(t *testing.T) {
		// The sweep drops X from Y's result on node 0 before the extract:
		// only a pull carries that into the journal a crash replays.
		serial, cs, servers, qY := setup(t)
		if err := cs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		_, seq := cs.JournalSize(0)
		apply(servers, rejoin)
		if _, after := cs.JournalSize(0); after == seq {
			t.Errorf("rejoin handoff left node 0's journal at seq %d", seq)
		}

		serial, cs, servers, qY = setup(t)
		if err := cs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		cs.ArmCrashOnHandoff(0)
		apply(servers, rejoin)
		recovered(t, serial, cs, qY)
	})
	t.Run("plain crossing skips the pull", func(t *testing.T) {
		_, cs, servers, _ := setup(t)
		if err := cs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		apply(servers, velocity)
		_, seq := cs.JournalSize(0)
		apply(servers, crossing)
		if cs.Migrations() != 1 {
			t.Fatalf("migrations = %d, want 1", cs.Migrations())
		}
		if _, after := cs.JournalSize(0); after != seq {
			t.Errorf("plain crossing pulled node 0's checkpoint: seq %d -> %d", seq, after)
		}
	})
	t.Run("plain crossing recovers", func(t *testing.T) {
		serial, cs, servers, qY := setup(t)
		if err := cs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		apply(servers, velocity)
		if err := cs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		cs.ArmCrashOnHandoff(0)
		apply(servers, crossing)
		recovered(t, serial, cs, qY)
	})
}
