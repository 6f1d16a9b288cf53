package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/remote"
	"mobieyes/internal/wire"
)

// sinkDown records every downlink send as (kind, encoded frame) so two
// engines' send sequences can be compared exactly.
type sinkDown struct {
	sends []string
}

func (s *sinkDown) Broadcast(region grid.CellRange, m msg.Message) {
	s.sends = append(s.sends, fmt.Sprintf("B %v %x", region, wire.Encode(m)))
}

func (s *sinkDown) Unicast(oid model.ObjectID, m msg.Message) {
	s.sends = append(s.sends, fmt.Sprintf("U %d %x", oid, wire.Encode(m)))
}

// testGrid is the 20x20 tessellation every test engine shares.
func testGrid() *grid.Grid {
	return grid.New(geo.NewRect(0, 0, 100, 100), 5.0)
}

// startWorkers launches n workers over in-memory pipes and returns the
// router-side handles plus a channel carrying each ServeConn result.
func startWorkers(t *testing.T, n int, opts core.Options, down core.Downlink) ([]*RemoteNode, []*Worker, chan error) {
	t.Helper()
	errc := make(chan error, n)
	rns := make([]*RemoteNode, n)
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		rc, wc := net.Pipe()
		w := NewWorker(WorkerConfig{UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5.0, Opts: opts})
		workers[i] = w
		go func() { errc <- w.ServeConn(wc) }()
		rn, err := NewRemoteNode(rc, i, down)
		if err != nil {
			t.Fatalf("handshake with worker %d: %v", i, err)
		}
		rns[i] = rn
	}
	return rns, workers, errc
}

// newWireCluster assembles a ClusterServer routing over n wire workers.
func newWireCluster(t *testing.T, n int, opts core.Options, down core.Downlink) (*core.ClusterServer, []*RemoteNode, []*Worker, chan error) {
	t.Helper()
	rns, workers, errc := startWorkers(t, n, opts, down)
	handles := make([]core.NodeHandle, n)
	for i, rn := range rns {
		handles[i] = rn
	}
	cs := core.NewClusterServerOver(testGrid(), opts, down, handles)
	cs.SetAssignListener(func(epoch uint64, node, lo, hi int) {
		rns[node].Assign(epoch, lo, hi)
	})
	epoch := cs.Epoch()
	for _, sp := range cs.Spans() {
		rns[sp.Node].Assign(epoch, sp.Lo, sp.Hi)
	}
	return cs, rns, workers, errc
}

// drive runs a fixed protocol schedule against an engine: five queries
// installed on focals spread across the grid, target containments, focal
// cell changes walking every focal six rows north (crossing any node span
// boundary on the way), a velocity change, group containment, removal,
// departures of a target and a focal, and an expiry.
func drive(api core.ServerAPI, g *grid.Grid) {
	center := func(c grid.CellID) geo.Point {
		r := g.CellRect(c)
		return geo.Pt((r.LX+r.HX)/2, (r.LY+r.HY)/2)
	}
	region := model.CircleRegion{R: 8}
	row := make([]int, 5)
	for i := 0; i < 5; i++ {
		row[i] = i * 4
		api.InstallQuery(model.ObjectID(i+1), region, model.Filter{}, 15)
	}
	api.InstallQueryUntil(1, model.RectRegion{W: 10, H: 6}, model.Filter{}, 15, 50)
	for i := 0; i < 5; i++ {
		c := grid.CellID{Col: 10, Row: row[i]}
		api.HandleUplink(msg.FocalInfoResponse{OID: model.ObjectID(i + 1), Pos: center(c), Vel: geo.Vec(0, 5), Tm: 1})
	}
	for tgt := 10; tgt < 30; tgt++ {
		api.HandleUplink(msg.ContainmentReport{OID: model.ObjectID(tgt), QID: model.QueryID(tgt%5 + 1), IsTarget: true})
	}
	for step := 1; step <= 6; step++ {
		tm := model.Time(1 + step)
		for i := 0; i < 5; i++ {
			prev := grid.CellID{Col: 10, Row: row[i]}
			row[i]++
			next := grid.CellID{Col: 10, Row: row[i]}
			if !g.Valid(next) {
				row[i] -= 20
				next = grid.CellID{Col: 10, Row: row[i]}
			}
			api.HandleUplink(msg.CellChangeReport{
				OID: model.ObjectID(i + 1), PrevCell: prev, NewCell: next,
				Pos: center(next), Vel: geo.Vec(0, 5), Tm: tm,
			})
		}
	}
	api.HandleUplink(msg.VelocityReport{OID: 2, Pos: center(grid.CellID{Col: 10, Row: row[1]}), Vel: geo.Vec(3, -4), Tm: 9})
	bm := msg.NewBitmap(1)
	bm.Set(0, true)
	api.HandleUplink(msg.GroupContainmentReport{OID: 11, Focal: 1, QIDs: []model.QueryID{1}, Bitmap: bm})
	api.RemoveQuery(3)
	api.HandleUplink(msg.DepartureReport{OID: 15})
	api.HandleUplink(msg.DepartureReport{OID: 5})
	api.ExpireQueries(60)
}

// TestWireClusterMatchesSerial is the wire tier's differential oracle: the
// same schedule through the serial server and through a router driving two
// workers over the cluster protocol must yield byte-identical durable
// snapshots, identical query sets and results, and the identical downlink
// send sequence — while actually performing cross-node handoffs over
// Handoff/HandoffAck frames.
func TestWireClusterMatchesSerial(t *testing.T) {
	g := testGrid()
	serDown := &sinkDown{}
	ser := core.NewServer(g, core.Options{}, serDown)

	cluDown := &sinkDown{}
	cs, _, _, errc := newWireCluster(t, 2, core.Options{}, cluDown)

	drive(ser, g)
	drive(cs, g)

	if cs.Migrations() == 0 {
		t.Fatalf("schedule crossed no node boundary (spans %+v) — the wire handoff path is untested", cs.Spans())
	}
	if err := ser.CheckInvariants(); err != nil {
		t.Errorf("serial invariants: %v", err)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Errorf("cluster invariants: %v", err)
	}

	sq, cq := ser.QueryIDs(), cs.QueryIDs()
	if fmt.Sprint(sq) != fmt.Sprint(cq) {
		t.Fatalf("query sets diverge: serial %v, clustered %v", sq, cq)
	}
	for _, qid := range sq {
		if fmt.Sprint(ser.Result(qid)) != fmt.Sprint(cs.Result(qid)) {
			t.Errorf("query %d: serial result %v, clustered %v", qid, ser.Result(qid), cs.Result(qid))
		}
	}

	var bs, bc bytes.Buffer
	if err := ser.Snapshot(&bs); err != nil {
		t.Fatal(err)
	}
	if err := cs.Snapshot(&bc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs.Bytes(), bc.Bytes()) {
		t.Errorf("snapshots diverge: serial %d bytes, clustered %d bytes", bs.Len(), bc.Len())
	}

	if len(serDown.sends) != len(cluDown.sends) {
		t.Fatalf("downlink sequences diverge: serial %d sends, clustered %d", len(serDown.sends), len(cluDown.sends))
	}
	for i := range serDown.sends {
		if serDown.sends[i] != cluDown.sends[i] {
			t.Fatalf("downlink %d diverges:\n  serial:    %s\n  clustered: %s", i, serDown.sends[i], cluDown.sends[i])
		}
	}

	if err := cs.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Errorf("worker serve: %v", err)
		}
	}
}

// TestRouterRestoresOverTCPWorkers: a router over two TCP workers restores
// a serial server's snapshot — each focal slice travels to the worker that
// owns its cell as an admin Handoff frame — passes CheckInvariants and
// re-snapshots byte-identically. A second router over the same workers,
// which still hold those rows, is refused.
func TestRouterRestoresOverTCPWorkers(t *testing.T) {
	g := testGrid()
	ser := core.NewServer(g, core.Options{}, &sinkDown{})
	drive(ser, g)
	ser.InstallQueryUntil(42, model.CircleRegion{R: 2}, model.Filter{}, 15, 999) // stays pending
	var snap bytes.Buffer
	if err := ser.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		w := NewWorker(WorkerConfig{UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5.0})
		go w.Serve(ln)
		addrs = append(addrs, ln.Addr().String())
	}
	cs, _, err := NewRouter(g, core.Options{}, &sinkDown{}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("restore over TCP workers: %v", err)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Errorf("restored router invariants: %v", err)
	}
	for _, sp := range cs.Spans() {
		if sp.Focals == 0 {
			t.Errorf("node %d restored no focal rows — weak test (spans %+v)", sp.Node, cs.Spans())
		}
	}
	var again bytes.Buffer
	if err := cs.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Errorf("re-snapshot differs: %d bytes restored, %d written back", snap.Len(), again.Len())
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	// The workers outlived their router and still hold its rows.
	cs2, _, err := NewRouter(g, core.Options{}, &sinkDown{}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cs2.Close()
	if err := cs2.Restore(bytes.NewReader(snap.Bytes())); err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Fatalf("restore over workers holding rows: error %v, want a refusal", err)
	}
}

// TestWireHandoffMovesOwnership pins the two-phase transfer observably: a
// focal installed in node 0's span, then moved into node 1's span, must
// leave node 0's tables entirely and appear in node 1's, with the full
// query state following it over the Handoff frame.
func TestWireHandoffMovesOwnership(t *testing.T) {
	g := testGrid()
	down := &sinkDown{}
	cs, rns, _, _ := newWireCluster(t, 2, core.Options{}, down)

	spans := cs.Spans()
	src := g.CellAt(spans[0].Lo)
	dst := g.CellAt(spans[1].Lo)
	center := func(c grid.CellID) geo.Point {
		r := g.CellRect(c)
		return geo.Pt((r.LX+r.HX)/2, (r.LY+r.HY)/2)
	}

	qid := cs.InstallQuery(7, model.CircleRegion{R: 4}, model.Filter{}, 20)
	cs.HandleUplink(msg.FocalInfoResponse{OID: 7, Pos: center(src), Vel: geo.Vec(1, 1), Tm: 1})
	cs.HandleUplink(msg.ContainmentReport{OID: 21, QID: qid, IsTarget: true})

	if got := rns[0].FocalIDs(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("node 0 focals before handoff: %v", got)
	}

	cs.HandleUplink(msg.CellChangeReport{
		OID: 7, PrevCell: src, NewCell: dst, Pos: center(dst), Vel: geo.Vec(1, 1), Tm: 2,
	})

	if cs.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", cs.Migrations())
	}
	if got := rns[0].FocalIDs(); len(got) != 0 {
		t.Errorf("node 0 still holds focals after handoff: %v", got)
	}
	if got := rns[1].FocalIDs(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("node 1 focals after handoff: %v", got)
	}
	if got := rns[1].Result(qid); len(got) != 1 || got[0] != 21 {
		t.Errorf("query result did not survive the handoff: %v", got)
	}
	if cell, ok := rns[1].FocalCell(7); !ok || cell != dst {
		t.Errorf("focal cell after handoff = %v/%v, want %v", cell, ok, dst)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Errorf("invariants after handoff: %v", err)
	}
}

// TestWorkerRejectsVersionMismatch: a router announcing a different
// protocol version is answered with this build's hello — so the peer can
// diagnose — and refused with a typed *VersionError.
func TestWorkerRejectsVersionMismatch(t *testing.T) {
	rc, wc := net.Pipe()
	w := NewWorker(WorkerConfig{UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5.0})
	errc := make(chan error, 1)
	go func() { errc <- w.ServeConn(wc) }()

	bw := bufio.NewWriter(rc)
	if err := remote.WriteFrame(bw, wire.Encode(msg.NodeHello{Node: 3, Proto: ProtoVersion + 9})); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	payload, err := remote.ReadFrame(bufio.NewReader(rc))
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if hello, ok := m.(msg.NodeHello); !ok || hello.Proto != ProtoVersion {
		t.Fatalf("refusal reply = %#v, want NodeHello speaking %d", m, ProtoVersion)
	}

	serveErr := <-errc
	var ve *VersionError
	if !errors.As(serveErr, &ve) {
		t.Fatalf("ServeConn error = %v, want *VersionError", serveErr)
	}
	if ve.Got != ProtoVersion+9 || ve.Node != 3 {
		t.Errorf("VersionError = %+v", ve)
	}
}

// TestRouterRejectsVersionMismatch: a worker replying with a different
// version fails the dial with a typed *VersionError.
func TestRouterRejectsVersionMismatch(t *testing.T) {
	rc, wc := net.Pipe()
	go func() {
		br := bufio.NewReader(wc)
		if _, err := remote.ReadFrame(br); err != nil {
			return
		}
		bw := bufio.NewWriter(wc)
		_ = remote.WriteFrame(bw, wire.Encode(msg.NodeHello{Node: 0, Proto: ProtoVersion + 1}))
		_ = bw.Flush()
	}()
	_, err := NewRemoteNode(rc, 0, &sinkDown{})
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("handshake error = %v, want *VersionError", err)
	}
	if ve.Got != ProtoVersion+1 {
		t.Errorf("VersionError.Got = %d", ve.Got)
	}
}

// TestHeartbeatAndAssign: heartbeats echo synchronously, and an AssignRange
// is applied by the worker in FIFO order ahead of the next exchange.
func TestHeartbeatAndAssign(t *testing.T) {
	down := &sinkDown{}
	rns, workers, _ := startWorkers(t, 1, core.Options{}, down)
	rn, w := rns[0], workers[0]

	if err := rn.Heartbeat(); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	rn.Assign(5, 100, 300)
	if err := rn.Heartbeat(); err != nil {
		t.Fatalf("heartbeat after assign: %v", err)
	}
	if epoch, lo, hi := w.Span(); epoch != 5 || lo != 100 || hi != 300 {
		t.Errorf("worker span = epoch %d [%d,%d), want epoch 5 [100,300)", epoch, lo, hi)
	}
	// A stale epoch must be discarded.
	rn.Assign(4, 0, 10)
	if err := rn.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if epoch, lo, hi := w.Span(); epoch != 5 || lo != 100 || hi != 300 {
		t.Errorf("stale assign applied: epoch %d [%d,%d)", epoch, lo, hi)
	}
}

// TestOpErrorPropagates: a failed op (extracting a focal the node does not
// own) surfaces as an error on the specific call without poisoning the
// connection.
func TestOpErrorPropagates(t *testing.T) {
	down := &sinkDown{}
	rns, _, _ := startWorkers(t, 1, core.Options{}, down)
	rn := rns[0]

	if _, err := rn.ExtractFocal(99, false, 0); err == nil {
		t.Fatal("ExtractFocal of an unowned focal succeeded")
	}
	if rn.Err() != nil {
		t.Fatalf("op error stuck to the connection: %v", rn.Err())
	}
	if err := rn.CheckInvariants(); err != nil {
		t.Errorf("node unusable after op error: %v", err)
	}
	if n := rn.NumQueries(); n != 0 {
		t.Errorf("NumQueries = %d on a fresh node", n)
	}
}

// TestWireClusterRebalanceAndKill drives the schedule, then rebalances and
// kills a node over the wire: admin handoffs travel as admin-marked Handoff
// frames, and the surviving topology must stay invariant-clean with all
// focals accounted for.
func TestWireClusterRebalanceAndKill(t *testing.T) {
	g := testGrid()
	down := &sinkDown{}
	cs, rns, _, _ := newWireCluster(t, 3, core.Options{}, down)

	drive(cs, g)
	before := len(cs.QueryIDs())

	if _, err := cs.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if err := cs.KillNode(1); err != nil {
		t.Fatalf("kill node 1: %v", err)
	}
	if got := rns[1].FocalIDs(); len(got) != 0 {
		t.Errorf("killed node still holds focals: %v", got)
	}
	if got := len(cs.QueryIDs()); got != before {
		t.Errorf("queries after kill = %d, want %d", got, before)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Errorf("invariants after kill: %v", err)
	}
	for i, rn := range rns {
		if rn.Err() != nil {
			t.Errorf("node %d transport error: %v", i, rn.Err())
		}
	}
}

// TestWireCheckpointDelta: the wire tier gets the dirty-set delta, not the
// table. A worker holding 40 focals is pulled once (the tracking-starting
// full scan); three focals are then written, one is removed, and one is
// created and removed again between the pulls. The next pull through
// RemoteNode must carry exactly the three slices and the two Removed oids —
// ascending, one of them never journaled, which the NodeCheckpoint decoder's
// canonicity guards (strictly ascending removals, non-empty slices) accept —
// and a router journaling it must end up with 39 slices. A desynced pull
// then fails the handle and must leave the worker's marks in place.
func TestWireCheckpointDelta(t *testing.T) {
	g := testGrid()
	down := &sinkDown{}
	rns, workers, errc := startWorkers(t, 1, core.Options{}, down)
	rn := rns[0]
	state := func(oid model.ObjectID, tm model.Time) model.MotionState {
		return model.MotionState{Pos: geo.Pt(2.5*float64(oid)-1, 50), Vel: geo.Vec(1, 0), Tm: tm}
	}
	for oid := model.ObjectID(1); oid <= 40; oid++ {
		rn.UpsertFocal(oid, state(oid, 1), 0)
		q := model.Query{ID: model.QueryID(oid), Focal: oid, Region: model.CircleRegion{R: 3}}
		rn.CompleteInstall(q.ID, q, 15, 0, 0)
	}
	journal := make(map[model.ObjectID][]byte)
	apply := func(d core.CheckpointDelta) {
		t.Helper()
		for i, oid := range d.Removed {
			if i > 0 && oid <= d.Removed[i-1] {
				t.Fatalf("Removed not strictly ascending: %v", d.Removed)
			}
			delete(journal, oid) // a no-op for an oid never journaled
		}
		for _, s := range d.Slices {
			oid, err := core.FocalSliceOID(s)
			if err != nil {
				t.Fatalf("delta slice: %v", err)
			}
			journal[oid] = s
		}
	}
	first, err := rn.CheckpointDelta(0)
	if err != nil || len(first.Slices) != 40 || len(first.Removed) != 0 || first.Seq != 1 {
		t.Fatalf("first pull = %d slices, %d removed, seq %d, %v; want 40, 0, 1", len(first.Slices), len(first.Removed), first.Seq, err)
	}
	apply(first)

	st := state(7, 2)
	rn.VelocityReport(msg.VelocityReport{OID: 7, Pos: st.Pos, Vel: geo.Vec(0, 3), Tm: st.Tm}, 0)
	rn.ContainmentReport(msg.ContainmentReport{OID: 500, QID: 19, IsTarget: true}, 0)
	st = state(33, 2)
	rn.FocalCellChange(33, st, grid.CellID{Col: g.CellOf(st.Pos).Col, Row: 11}, 0)
	rn.RemoveQuery(3, 0)
	rn.UpsertFocal(99, state(20, 2), 0)
	rn.DepartFocal(99, 0)

	d, err := rn.CheckpointDelta(1)
	if err != nil {
		t.Fatalf("second pull: %v", err)
	}
	var got []model.ObjectID
	for _, s := range d.Slices {
		oid, _ := core.FocalSliceOID(s)
		got = append(got, oid)
	}
	if fmt.Sprint(got) != "[7 19 33]" || fmt.Sprint(d.Removed) != "[3 99]" || d.Seq != 2 {
		t.Fatalf("second pull = slices %v, removed %v, seq %d; want [7 19 33], [3 99], 2", got, d.Removed, d.Seq)
	}
	apply(d)
	if len(journal) != 39 {
		t.Errorf("journal holds %d slices after the delta, want 39", len(journal))
	}
	if idle, err := rn.CheckpointDelta(2); err != nil || idle.Seq != 2 || len(idle.Slices)+len(idle.Removed) != 0 {
		t.Errorf("idle pull = %+v, %v; want empty at seq 2", idle, err)
	}

	// Desync: the worker refuses, the handle treats the refusal as a failed
	// exchange and closes, and the mark made just before is still there.
	rn.VelocityReport(msg.VelocityReport{OID: 11, Pos: state(11, 3).Pos, Vel: geo.Vec(2, 2), Tm: 3}, 0)
	if _, err := rn.CheckpointDelta(9); err == nil {
		t.Fatal("desynced pull succeeded")
	}
	<-errc // the worker's serve loop has returned: its node is ours to read
	kept, err := workers[0].Node().CheckpointDelta(2)
	if err != nil || len(kept.Slices) != 1 || len(kept.Removed) != 0 {
		t.Fatalf("pull after the desync = %d slices, %d removed, %v; want focal 11's slice", len(kept.Slices), len(kept.Removed), err)
	}
	if oid, _ := core.FocalSliceOID(kept.Slices[0]); oid != 11 {
		t.Errorf("slice kept across the desync is focal %d, want 11", oid)
	}
}
