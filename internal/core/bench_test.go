package core

import (
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// nullDown swallows downlink traffic.
type nullDown struct{}

func (nullDown) Broadcast(grid.CellRange, msg.Message) {}
func (nullDown) Unicast(model.ObjectID, msg.Message)   {}

// nullUp swallows uplink traffic.
type nullUp struct{}

func (nullUp) Send(msg.Message) {}

// benchServer builds a server with n queries over distinct focal objects.
func benchServer(b *testing.B, opts Options, n int) (*Server, *grid.Grid) {
	b.Helper()
	g := grid.New(geo.NewRect(0, 0, 316, 316), 5)
	s := NewServer(g, opts, nullDown{})
	for i := 0; i < n; i++ {
		oid := model.ObjectID(i + 1)
		s.InstallQuery(oid, model.CircleRegion{R: 3}, model.Filter{Seed: uint64(i), Permille: 750}, 250)
		s.OnFocalInfoResponse(msg.FocalInfoResponse{
			OID: oid,
			Pos: geo.Pt(float64(i%300)+5, float64((i*7)%300)+5),
		})
	}
	return s, g
}

// BenchmarkServerVelocityReport measures the §3.4 hot path: FOT update plus
// per-query relay to the monitoring region.
func BenchmarkServerVelocityReport(b *testing.B) {
	s, _ := benchServer(b, Options{}, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oid := model.ObjectID(i%1000 + 1)
		s.OnVelocityReport(msg.VelocityReport{
			OID: oid,
			Pos: geo.Pt(float64(i%300)+5, float64((i*7)%300)+5),
			Vel: geo.Vec(float64(i%100), 50),
			Tm:  model.Time(float64(i) / 120000),
		})
	}
}

// BenchmarkServerCellChange measures the §3.5 focal path on jumps: each
// report moves its focal to a cell derived from the loop index, unrelated
// to the cell it is in, so both 3×3 monitoring regions are re-indexed
// whole, 9 + 9 cells, before the combined-region rebroadcast. For the
// adjacent crossing §3.5 describes, see BenchmarkServerCellChangeDiagonal.
func BenchmarkServerCellChange(b *testing.B) {
	s, g := benchServer(b, Options{}, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oid := model.ObjectID(i%1000 + 1)
		x := float64((i*5)%300) + 5
		y := float64((i*11)%300) + 5
		s.OnCellChangeReport(msg.CellChangeReport{
			OID:      oid,
			PrevCell: g.CellOf(geo.Pt(x, y)),
			NewCell:  g.CellOf(geo.Pt(x+5, y)),
			Pos:      geo.Pt(x+5, y),
		})
	}
}

// BenchmarkServerCellChangeDiagonal measures the §3.5 focal path on the
// geometry of benchmark/gen.go: queries of radius 1.5α, so 5×5-cell
// monitoring regions, and each focal moving one cell diagonally from where
// it is — there and back on alternate visits — so every relocation leaves 9
// cells and enters 9. (BenchmarkServerCellChange's focals jump to unrelated
// cells: its 3×3 regions are re-indexed whole, 9 + 9 cells.)
func BenchmarkServerCellChangeDiagonal(b *testing.B) {
	const n = 1000
	g := grid.New(geo.NewRect(0, 0, 316, 316), 5)
	s := NewServer(g, Options{}, nullDown{})
	for i := 0; i < n; i++ {
		oid := model.ObjectID(i + 1)
		s.InstallQuery(oid, model.CircleRegion{R: 7.5}, model.Filter{Seed: uint64(i), Permille: 750}, 250)
		s.OnFocalInfoResponse(msg.FocalInfoResponse{OID: oid, Pos: geo.Pt(float64(i%300)+5, float64((i*7)%300)+5)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oid := model.ObjectID(i%n + 1)
		prev := s.fot[oid].currCell
		step := 1 - 2*(i/n%2)
		next := grid.CellID{Col: prev.Col + step, Row: prev.Row + step}
		s.OnCellChangeReport(msg.CellChangeReport{OID: oid, PrevCell: prev, NewCell: next, Pos: cellCenter(g, next)})
	}
}

// BenchmarkServerContainmentReport measures the §3.6 differential result
// update.
func BenchmarkServerContainmentReport(b *testing.B) {
	s, _ := benchServer(b, Options{}, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OnContainmentReport(msg.ContainmentReport{
			OID: model.ObjectID(i%5000 + 1), QID: model.QueryID(i%1000 + 1),
			IsTarget: i%2 == 0,
		})
	}
}

// benchBackend installs nQueries queries over distinct focal objects on
// srv, over a 200×200-cell grid.
func benchBackend(srv ServerAPI, nQueries int) {
	for i := 0; i < nQueries; i++ {
		oid := model.ObjectID(i + 1)
		srv.InstallQuery(oid, model.CircleRegion{R: 3}, model.Filter{Seed: uint64(i), Permille: 750}, 250)
		srv.HandleUplink(msg.FocalInfoResponse{OID: oid, Pos: benchPos(i)})
	}
}

func benchGrid() *grid.Grid { return grid.New(geo.NewRect(0, 0, 1000, 1000), 5) }

func benchPos(i int) geo.Point {
	return geo.Pt(float64((i*13)%990)+5, float64((i*31)%990)+5)
}

// benchUplink returns the i-th message of a synthetic uplink mix over
// nObjects objects and nQueries queries: half cell changes (focal objects
// migrate, non-focals probe the RQI), a quarter containment reports, a
// quarter velocity reports.
func benchUplink(g *grid.Grid, i, nObjects, nQueries int) msg.Message {
	oid := model.ObjectID(i%nObjects + 1)
	switch i % 4 {
	case 0:
		return msg.ContainmentReport{
			OID: oid, QID: model.QueryID(i%nQueries + 1), IsTarget: i%8 < 4,
		}
	case 1:
		return msg.VelocityReport{OID: oid, Pos: benchPos(i), Vel: geo.Vec(30, 10)}
	default:
		x := float64((i*7)%985) + 5
		y := float64((i*17)%985) + 5
		return msg.CellChangeReport{
			OID: oid, PrevCell: g.CellOf(geo.Pt(x, y)), NewCell: g.CellOf(geo.Pt(x+5, y)),
			Pos: geo.Pt(x+5, y),
		}
	}
}

// benchUplinkThroughput measures single-goroutine HandleUplink throughput
// over the mixed workload. Against the serial server, the Clustered rows
// show the router-forwarding overhead: routing-table lookup, NodeHandle
// indirection, the router mutex on every uplink and the journaled handoff.
func benchUplinkThroughput(b *testing.B, srv ServerAPI, g *grid.Grid, nObjects int) {
	const nQueries = 1000
	benchBackend(srv, nQueries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.HandleUplink(benchUplink(g, i, nObjects, nQueries))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "uplinks/sec")
}

func benchUplinkSerial(b *testing.B, nObjects int) {
	g := benchGrid()
	benchUplinkThroughput(b, NewServer(g, Options{}, nullDown{}), g, nObjects)
}

func benchUplinkClustered(b *testing.B, nObjects int) {
	g := benchGrid()
	benchUplinkThroughput(b, NewClusterServer(g, Options{}, nullDown{}, 3), g, nObjects)
}

func BenchmarkUplinkSerial10k(b *testing.B)     { benchUplinkSerial(b, 10000) }
func BenchmarkUplinkSerial100k(b *testing.B)    { benchUplinkSerial(b, 100000) }
func BenchmarkUplinkClustered10k(b *testing.B)  { benchUplinkClustered(b, 10000) }
func BenchmarkUplinkClustered100k(b *testing.B) { benchUplinkClustered(b, 100000) }

// checkpointEvery is the telemetry round of BenchmarkUplinkClusteredCheckpointed10k
// in uplinks: a deployment pulls every node's checkpoint about once a
// second, and BenchmarkUplinkClustered10k's stream runs at 1.1–2.2 million
// uplinks a second on one goroutine (450–900 ns/op on a 2-vCPU Xeon), so
// 2^21 ops is one to two seconds of it.
const checkpointEvery = 1 << 21

// countingNode counts the focal slices and removals its checkpoint deltas
// carry to the router.
type countingNode struct {
	*NodeServer
	pulled *int
}

func (n countingNode) CheckpointDelta(since uint64) (CheckpointDelta, error) {
	d, err := n.NodeServer.CheckpointDelta(since)
	*n.pulled += len(d.Slices) + len(d.Removed)
	return d, err
}

// BenchmarkUplinkClusteredCheckpointed10k is BenchmarkUplinkClustered10k as
// a deployment runs it: the journaled router pulls every node's checkpoint
// once per telemetry round (checkpointEvery uplinks), so dirty tracking is
// on from the start and a handoff that pulls pays only for the marks since
// the last round. slices/op counts every slice and removal pulled, by the
// rounds and by handoffs.
func BenchmarkUplinkClusteredCheckpointed10k(b *testing.B) {
	const nObjects, nQueries = 10000, 1000
	g := benchGrid()
	cs := NewClusterServer(g, Options{}, nullDown{}, 3)
	pulled := 0
	for i, ns := range cs.local {
		cs.nodes[i] = countingNode{ns, &pulled}
	}
	benchBackend(cs, nQueries)
	if err := cs.Checkpoint(); err != nil { // a deployment's first round: tracking starts
		b.Fatal(err)
	}
	pulled = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.HandleUplink(benchUplink(g, i, nObjects, nQueries))
		if (i+1)%checkpointEvery == 0 {
			if err := cs.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "uplinks/sec")
	b.ReportMetric(float64(pulled)/float64(b.N), "slices/op")
}

// benchClient builds a client with n LQT entries bound to k focal objects.
func benchClient(b *testing.B, opts Options, n, k int) *Client {
	b.Helper()
	g := grid.New(geo.NewRect(0, 0, 316, 316), 5)
	pos := geo.Pt(150, 150)
	c := NewClient(g, opts, nullUp{}, 1, model.Props{Key: 1}, 250, pos)
	cell := g.CellOf(pos)
	for i := 0; i < n; i++ {
		focalPos := geo.Pt(150+float64(i%7), 150)
		c.OnDownlink(msg.QueryInstall{Queries: []msg.QueryState{{
			QID:         model.QueryID(i + 1),
			Focal:       model.ObjectID(i%k + 10),
			State:       model.MotionState{Pos: focalPos, Vel: geo.Vec(30, 0)},
			Region:      model.CircleRegion{R: float64(1 + i%5)},
			Filter:      model.Filter{Seed: 0, Permille: 1000},
			MonRegion:   g.MonitoringRegion(cell, 20),
			FocalMaxVel: 250,
		}}}, pos, geo.Vec(0, 0), 0)
	}
	if c.LQTSize() != n {
		b.Fatalf("LQT size = %d, want %d", c.LQTSize(), n)
	}
	return c
}

// BenchmarkClientEvaluate10 measures one §3.6 evaluation pass over a
// 10-entry LQT (the paper's observed maximum).
func BenchmarkClientEvaluate10(b *testing.B) {
	c := benchClient(b, Options{}, 10, 10)
	pos := geo.Pt(150, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TickEvaluate(pos, geo.Vec(0, 0), model.Time(float64(i)/120000))
	}
}

// BenchmarkClientEvaluate10Grouped: the same LQT with all queries on one
// focal object and grouping on — one distance computation per pass.
func BenchmarkClientEvaluate10Grouped(b *testing.B) {
	c := benchClient(b, Options{Grouping: true}, 10, 1)
	pos := geo.Pt(150, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TickEvaluate(pos, geo.Vec(0, 0), model.Time(float64(i)/120000))
	}
}

// BenchmarkClientEvaluateSafePeriod: distant queries mostly skip.
func BenchmarkClientEvaluateSafePeriod(b *testing.B) {
	c := benchClient(b, Options{SafePeriod: true}, 10, 10)
	pos := geo.Pt(250, 250) // 140 miles from every focal: long safe periods
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TickEvaluate(pos, geo.Vec(0, 0), model.Time(float64(i)/120000))
	}
}

// BenchmarkClientCellChange measures the §3.5 object-side path.
func BenchmarkClientCellChange(b *testing.B) {
	c := benchClient(b, Options{}, 10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := 150 + float64(i%2)*5 // oscillate across a cell border
		c.TickCellChange(geo.Pt(x, 150), geo.Vec(30, 0), model.Time(float64(i)/120000))
	}
}
