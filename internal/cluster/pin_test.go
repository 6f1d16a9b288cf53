package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// tapConn records every byte a connection reads and writes.
type tapConn struct {
	net.Conn
	in, out bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

// TestSessionBytesPinned fixes the full byte stream, both directions, of a
// scripted router↔worker session that sends every opcode but opClose, plus
// an assignment, a handoff, checkpoint pulls and a heartbeat. Observability
// is off, so nothing time-dependent reaches the wire: a change to any op
// payload, reply or frame encoding fails here.
func TestSessionBytesPinned(t *testing.T) {
	rc, wc := net.Pipe()
	tap := &tapConn{Conn: rc}
	w := NewWorker(WorkerConfig{UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5.0})
	errc := make(chan error, 1)
	go func() { errc <- w.ServeConn(wc) }()
	rn, err := NewRemoteNode(tap, 0, &sinkDown{})
	if err != nil {
		t.Fatal(err)
	}

	st := model.MotionState{Pos: geo.Pt(52, 52), Vel: geo.Vec(0, 5), Tm: 1}
	rn.Assign(1, 0, 400)
	rn.UpsertFocal(1, st, 0)
	rn.CompleteInstall(1, model.Query{ID: 1, Focal: 1, Region: model.CircleRegion{R: 8}}, 15, 50, 0)
	rn.CompleteInstall(2, model.Query{ID: 2, Focal: 1, Region: model.RectRegion{W: 10, H: 6},
		Filter: model.Filter{Seed: 3, Permille: 900}}, 20, 0, 0)
	rn.ContainmentReport(msg.ContainmentReport{OID: 5, QID: 1, IsTarget: true}, 0)
	bm := msg.NewBitmap(2)
	bm.Set(1, true)
	rn.GroupContainmentReport(msg.GroupContainmentReport{OID: 6, Focal: 1, QIDs: []model.QueryID{1, 2}, Bitmap: bm}, 0)
	rn.VelocityReport(msg.VelocityReport{OID: 1, Pos: geo.Pt(52, 53), Vel: geo.Vec(1, 4), Tm: 2}, 0)
	next := grid.CellID{Col: 10, Row: 11}
	st2 := model.MotionState{Pos: geo.Pt(52, 57), Vel: geo.Vec(1, 4), Tm: 3}
	rn.FocalCellChange(1, st2, next, 0)
	rn.FreshQueryStates(nil, grid.CellID{Col: 0, Row: 0}, next)
	rn.Result(1)
	rn.ResultContains(1, 5)
	rn.ResultSize(2)
	rn.Query(2)
	rn.MonRegion(1)
	rn.NumQueries()
	rn.QueryIDs()
	rn.NearbyQueries(next)
	rn.FocalIDs()
	rn.FocalCell(1)
	rn.Ops()
	rn.DueExpiries(60)
	rn.RemoveQuery(1, 0)
	rn.ClearResults(7, 0)
	rn.DepartSweep(5, 0)
	d, err := rn.CheckpointDelta(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rn.SnapshotData(); err != nil {
		t.Fatal(err)
	}
	if err := rn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	slice, err := rn.ExtractFocal(1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.InjectFocal(slice, st2, grid.CellID{Col: 10, Row: 12}, true, true, 0); err != nil {
		t.Fatal(err)
	}
	if err := rn.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	rn.DepartFocal(1, 0)
	if _, err := rn.CheckpointDelta(d.Seq); err != nil {
		t.Fatal(err)
	}
	if err := rn.Err(); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if err := <-errc; err != nil {
		t.Fatalf("worker: %v", err)
	}

	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"router to worker", tap.out.Bytes(), "ac3a58168272865fd8dd6c051340158a43c23e2f50d5d5756c36286a851c9385"},
		{"worker to router", tap.in.Bytes(), "be4256ff2ead89c95ab46a44f9297c24787830047a4fd6314970e6ee5dc630cd"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s (%d bytes)", c.name, got, c.want, len(c.data))
		}
	}
}
