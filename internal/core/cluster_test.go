package core

import (
	"bytes"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// TestClusterServerMatchesSerial: the scripted workload against a serial
// Server and the router over 3 nodes, built through each constructor, must
// leave identical query state — same installed IDs, descriptors,
// monitoring regions and result sets — and must actually exercise
// cross-node focal handoffs.
func TestClusterServerMatchesSerial(t *testing.T) {
	t.Run("nodes", func(t *testing.T) { routerMatchesSerial(t, newClusterHarness(smallGrid(), Options{}, 3)) })
	t.Run("shards", func(t *testing.T) { routerMatchesSerial(t, newShardedHarness(smallGrid(), Options{}, 3)) })
}

func routerMatchesSerial(t *testing.T, cluster *harness) {
	serial := newHarness(smallGrid(), Options{})
	qidsA := runScenario(serial)
	qidsB := runScenario(cluster)

	if len(qidsA) != len(qidsB) {
		t.Fatalf("installed %d vs %d queries", len(qidsA), len(qidsB))
	}
	for i := range qidsA {
		if qidsA[i] != qidsB[i] {
			t.Fatalf("query ID sequence diverged at %d: %d vs %d", i, qidsA[i], qidsB[i])
		}
	}
	if a, b := serial.server.NumQueries(), cluster.server.NumQueries(); a != b {
		t.Fatalf("NumQueries: serial %d, clustered %d", a, b)
	}
	if !qidsEqual(serial.server.QueryIDs(), cluster.server.QueryIDs()) {
		t.Fatalf("QueryIDs: serial %v, clustered %v", serial.server.QueryIDs(), cluster.server.QueryIDs())
	}
	for _, qid := range qidsA {
		qa, oka := serial.server.Query(qid)
		qb, okb := cluster.server.Query(qid)
		if oka != okb || qa != qb {
			t.Errorf("query %d: serial (%+v,%v) vs clustered (%+v,%v)", qid, qa, oka, qb, okb)
		}
		if !oka {
			continue
		}
		if !idsEqual(serial.server.Result(qid), cluster.server.Result(qid)) {
			t.Errorf("query %d result: serial %v, clustered %v",
				qid, serial.server.Result(qid), cluster.server.Result(qid))
		}
		if !idsEqual(cluster.server.Result(qid), cluster.groundTruth(qid)) {
			t.Errorf("query %d: clustered result %v != ground truth %v",
				qid, cluster.server.Result(qid), cluster.groundTruth(qid))
		}
		ma, _ := serial.server.MonRegion(qid)
		mb, _ := cluster.server.MonRegion(qid)
		if ma != mb {
			t.Errorf("query %d monitoring region: serial %+v, clustered %+v", qid, ma, mb)
		}
	}
	if err := cluster.server.CheckInvariants(); err != nil {
		t.Errorf("cluster invariants: %v", err)
	}
	cs := cluster.server.(*ClusterServer)
	if cs.Migrations() == 0 {
		t.Error("scenario produced no cross-node handoffs — weak test")
	}
	used := map[int]bool{}
	for _, ni := range cs.focalNode {
		used[ni] = true
	}
	if len(used) < 2 {
		t.Errorf("scenario left every focal on one node (%d used) — weak test", len(used))
	}
}

// TestFocalSliceRoundTrip: extract → encode → decode → inject reproduces
// the focal's table rows exactly (snapshot-level identity), on a server
// carrying queries with results, expiries and merged maxVels.
func TestFocalSliceRoundTrip(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	runScenario(h)
	src := h.server.(*Server)

	var before bytes.Buffer
	if err := src.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, oid := range (&NodeServer{srv: src}).FocalIDs() {
		fe := src.fot[oid]
		slice := encodeFocalSlice(src.extractFocal(oid))
		rec, st, cell, err := decodeFocalSlice(slice)
		if err != nil {
			t.Fatalf("focal %d: decode: %v", oid, err)
		}
		if st != fe.state || cell != fe.currCell {
			t.Fatalf("focal %d: state/cell changed in transit", oid)
		}
		src.injectFocal(rec, st, cell, false)
		moved++
	}
	if moved < 2 {
		t.Fatalf("only %d focals exercised — weak test", moved)
	}
	var after bytes.Buffer
	if err := src.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("extract/encode/decode/inject round trip changed the snapshot")
	}
	if err := src.CheckInvariants(); err != nil {
		t.Errorf("invariants after round trip: %v", err)
	}

	if _, _, _, err := decodeFocalSlice([]byte{1, 2, 3}); err == nil {
		t.Error("truncated slice decoded without error")
	}
}

// TestClusterKillNodeDrains: killing a node drains its focals to the
// survivors via charge-free admin handoffs — durable state is
// byte-identical across the kill, invariants hold, and the cluster keeps
// matching the serial server afterwards. Killing the last node is refused.
func TestClusterKillNodeDrains(t *testing.T) {
	serial := newHarness(smallGrid(), Options{})
	cluster := newClusterHarness(smallGrid(), Options{}, 3)
	runScenario(serial)
	runScenario(cluster)
	cs := cluster.server.(*ClusterServer)

	var before bytes.Buffer
	if err := cs.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	if err := cs.KillNode(1); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	var after bytes.Buffer
	if err := cs.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("node kill changed the durable snapshot")
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after kill: %v", err)
	}
	spans := cs.Spans()
	if spans[1].Live || spans[1].Focals != 0 || spans[1].Queries != 0 {
		t.Errorf("killed node not drained: %+v", spans[1])
	}

	// The cluster must keep tracking the serial server after the kill.
	for step := 0; step < 4; step++ {
		serial.step(model.FromSeconds(30))
		cluster.step(model.FromSeconds(30))
	}
	for _, qid := range serial.server.QueryIDs() {
		if !idsEqual(serial.server.Result(qid), cluster.server.Result(qid)) {
			t.Errorf("query %d result diverged after kill", qid)
		}
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after post-kill steps: %v", err)
	}

	if err := cs.KillNode(1); err == nil {
		t.Error("killing a dead node should fail")
	}
	if err := cs.KillNode(0); err != nil {
		t.Fatalf("KillNode(0): %v", err)
	}
	if err := cs.KillNode(2); err == nil {
		t.Error("killing the last live node should be refused")
	}
}

// TestClusterRebalance: with the focal population crammed into one node's
// span, Rebalance shifts span boundaries toward the hotspot and migrates
// the now-misplaced focals, preserving durable state byte-for-byte.
func TestClusterRebalance(t *testing.T) {
	g := smallGrid()
	cs := NewClusterServer(g, Options{}, nullDown{}, 3)
	// All focals in high-index rows — node 2's initial span — so rebalanced
	// boundaries must cut through the hotspot and hand focals to node 1.
	for i := 0; i < 30; i++ {
		oid := model.ObjectID(i + 1)
		pos := geo.Pt(float64(i%10)*9+3, 72+float64(i%5)*5)
		cs.InstallQuery(oid, model.CircleRegion{R: 3}, matchAll, 100)
		cs.HandleUplink(msg.FocalInfoResponse{OID: oid, Pos: pos})
	}
	var before bytes.Buffer
	if err := cs.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	loBefore := cs.Spans()[2].Lo
	moved, err := cs.Rebalance()
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if loAfter := cs.Spans()[2].Lo; loAfter <= loBefore {
		t.Errorf("node 2 span did not shrink around the hotspot: lo %d -> %d", loBefore, loAfter)
	}
	if moved == 0 {
		t.Error("rebalance moved no focals — weak test")
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after rebalance: %v", err)
	}
	var after bytes.Buffer
	if err := cs.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("rebalance changed the durable snapshot")
	}
}

// TestClusterSnapshotCrossRestore: a router snapshot restores into a serial
// server and into a router with a different node count
// — same queries, descriptors, results and monitoring regions — and each
// re-snapshots byte-identically: MOBS stays implementation-independent.
func TestClusterSnapshotCrossRestore(t *testing.T) {
	cluster := newClusterHarness(smallGrid(), Options{}, 3)
	runScenario(cluster)
	// A pending installation must survive the roundtrip too.
	cluster.server.InstallQueryUntil(99, model.CircleRegion{R: 2}, matchAll, 50, model.FromSeconds(9999))

	var buf bytes.Buffer
	if err := cluster.server.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	serial, err := RestoreServer(smallGrid(), Options{}, nullDown{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	restoredAll := []ServerAPI{serial}
	cs := NewClusterServer(smallGrid(), Options{}, nullDown{}, 2)
	if err := cs.Restore(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatalf("restored router invariants: %v", err)
	}
	restoredAll = append(restoredAll, cs)
	if err := NewClusterServer(smallGrid(), Options{}, nullDown{}, 2).Restore(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated snapshot restored without error")
	}
	want := cluster.server.QueryIDs()
	for _, restored := range restoredAll {
		if got := restored.QueryIDs(); !qidsEqual(got, want) {
			t.Fatalf("restored QueryIDs %v, want %v", got, want)
		}
		for _, qid := range want {
			q0, _ := cluster.server.Query(qid)
			q1, ok := restored.Query(qid)
			if !ok || q0 != q1 {
				t.Errorf("query %d descriptor: %+v vs %+v (ok=%v)", qid, q0, q1, ok)
			}
			if !idsEqual(cluster.server.Result(qid), restored.Result(qid)) {
				t.Errorf("query %d result differs after restore", qid)
			}
			m0, _ := cluster.server.MonRegion(qid)
			m1, _ := restored.MonRegion(qid)
			if m0 != m1 {
				t.Errorf("query %d monitoring region: %+v vs %+v", qid, m0, m1)
			}
		}
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again.Bytes()) {
			t.Error("re-snapshot not byte-identical")
		}
	}
}
