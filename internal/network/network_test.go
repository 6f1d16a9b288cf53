package network

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/msg"
)

func testGrid() *grid.Grid {
	return grid.New(geo.NewRect(0, 0, 100, 100), 5)
}

func TestDeploymentLayout(t *testing.T) {
	g := testGrid()
	d := NewDeployment(g, 10)
	if d.NumStations() != 100 { // 10×10 lattice over 100×100
		t.Fatalf("NumStations = %d, want 100", d.NumStations())
	}
	if d.Alen() != 10 {
		t.Fatalf("Alen = %v", d.Alen())
	}
	s := d.Station(0)
	if s.Center != geo.Pt(5, 5) {
		t.Errorf("station 0 center = %v, want (5,5)", s.Center)
	}
}

func TestDeploymentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for alen = 0")
		}
	}()
	NewDeployment(testGrid(), 0)
}

// Property (§2.2): the set of base stations covers the universe of
// discourse — every point in the UoD lies in at least one coverage circle.
func TestDeploymentCoversUoD(t *testing.T) {
	g := testGrid()
	for _, alen := range []float64{5, 10, 20, 40, 80, 120} {
		d := NewDeployment(g, alen)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
			covered := false
			for sid := 0; sid < d.NumStations(); sid++ {
				if d.Covers(StationID(sid), p) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("alen=%v: point %v uncovered", alen, p)
			}
		}
	}
}

// Property: Bmap is non-empty for every cell and lists exactly the stations
// an all-pairs circle–rectangle test finds, ascending; its inverse lists each
// station's cells ascending. The build itself tests only a lattice window
// around each cell.
func TestBmapCorrectness(t *testing.T) {
	for _, gm := range coverGeometries {
		g, d := coverDeployment(gm.side, gm.alpha, gm.alen)
		cellsOf := make([][]int32, d.NumStations())
		for idx := 0; idx < g.NumCells(); idx++ {
			c := g.CellAt(idx)
			var want []StationID
			for sid := 0; sid < d.NumStations(); sid++ {
				if d.Station(StationID(sid)).IntersectsRect(g.CellRect(c)) {
					want = append(want, StationID(sid))
					cellsOf[sid] = append(cellsOf[sid], int32(idx))
				}
			}
			if len(want) == 0 {
				t.Fatalf("%+v: Bmap empty for %v", gm, c)
			}
			if got := d.StationsForCell(c); !slices.Equal(got, want) {
				t.Fatalf("%+v: Bmap(%v) = %v, all-pairs %v", gm, c, got, want)
			}
		}
		for sid, want := range cellsOf {
			if got := d.CellsForStation(StationID(sid)); !slices.Equal(got, want) {
				t.Fatalf("%+v: cells of station %d = %v, all-pairs %v", gm, sid, got, want)
			}
		}
	}
}

func TestStationOfCoversPoint(t *testing.T) {
	g := testGrid()
	for _, alen := range []float64{5, 10, 25} {
		d := NewDeployment(g, alen)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 1000; i++ {
			p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
			sid := d.StationOf(p)
			if !d.Covers(sid, p) {
				t.Fatalf("alen=%v: StationOf(%v) = %d does not cover the point", alen, p, sid)
			}
		}
	}
	// Boundary and out-of-range points clamp to a valid station.
	d := NewDeployment(g, 10)
	for _, p := range []geo.Point{geo.Pt(0, 0), geo.Pt(100, 100), geo.Pt(-5, 50), geo.Pt(105, 50)} {
		sid := d.StationOf(p)
		if int(sid) < 0 || int(sid) >= d.NumStations() {
			t.Fatalf("StationOf(%v) = %d out of range", p, sid)
		}
	}
}

// Property: the greedy cover covers every cell of the region.
func TestCoverCoversRegion(t *testing.T) {
	g := testGrid()
	rng := rand.New(rand.NewSource(3))
	for _, alen := range []float64{5, 10, 20, 50} {
		d := NewDeployment(g, alen)
		for i := 0; i < 100; i++ {
			minC := grid.CellID{Col: rng.Intn(18), Row: rng.Intn(18)}
			maxC := grid.CellID{Col: minC.Col + rng.Intn(20-minC.Col), Row: minC.Row + rng.Intn(20-minC.Row)}
			region := grid.CellRange{Min: minC, Max: maxC}
			cover := d.Cover(region)
			if len(cover) == 0 {
				t.Fatalf("empty cover for %v", region)
			}
			region.ForEach(func(c grid.CellID) {
				cellRect := g.CellRect(c)
				for _, sid := range cover {
					if d.Station(sid).IntersectsRect(cellRect) {
						return
					}
				}
				t.Fatalf("alen=%v region=%v: cell %v not covered by %v", alen, region, c, cover)
			})
		}
	}
}

func TestCoverSingleStationWhenLarge(t *testing.T) {
	// With huge base stations, any monitoring region fits under one station
	// (the saturation effect of Fig. 8).
	g := testGrid()
	d := NewDeployment(g, 200)
	if d.NumStations() != 1 {
		t.Fatalf("NumStations = %d, want 1", d.NumStations())
	}
	region := grid.CellRange{Min: grid.CellID{Col: 0, Row: 0}, Max: grid.CellID{Col: 19, Row: 19}}
	cover := d.Cover(region)
	if len(cover) != 1 {
		t.Fatalf("cover size = %d, want 1", len(cover))
	}
}

func TestCoverShrinksWithStationSize(t *testing.T) {
	g := testGrid()
	region := grid.CellRange{Min: grid.CellID{Col: 4, Row: 4}, Max: grid.CellID{Col: 9, Row: 9}}
	small := NewDeployment(g, 5)
	large := NewDeployment(g, 40)
	if len(small.Cover(region)) <= len(large.Cover(region)) {
		t.Errorf("cover sizes: small alen %d, large alen %d — larger stations should need fewer broadcasts",
			len(small.Cover(region)), len(large.Cover(region)))
	}
}

func TestCoverIsReasonablySmall(t *testing.T) {
	// Greedy set cover should not use wildly more stations than the number
	// of stations strictly inside the region footprint.
	g := testGrid()
	d := NewDeployment(g, 10)
	region := grid.CellRange{Min: grid.CellID{Col: 0, Row: 0}, Max: grid.CellID{Col: 19, Row: 19}}
	cover := d.Cover(region)
	if len(cover) > d.NumStations() {
		t.Fatalf("cover %d larger than station count %d", len(cover), d.NumStations())
	}
	// A 100×100 UoD with alen=10 has 100 stations; covering everything
	// should need well under all of them because circles overlap.
	if len(cover) > 60 {
		t.Errorf("cover of whole UoD uses %d stations, expected ≤ 60", len(cover))
	}
}

func TestCoverEmptyRegionOutsideGrid(t *testing.T) {
	g := testGrid()
	d := NewDeployment(g, 10)
	region := grid.CellRange{Min: grid.CellID{Col: 50, Row: 50}, Max: grid.CellID{Col: 60, Row: 60}}
	if cover := d.Cover(region); cover != nil {
		t.Errorf("cover of out-of-grid region = %v, want nil", cover)
	}
}

func TestMeterCounts(t *testing.T) {
	var m Meter
	up := msg.VelocityReport{}
	down := msg.VelocityChange{}
	m.RecordUplink(up)
	m.RecordUplink(up)
	m.RecordDownlink(down, 3) // broadcast through 3 stations

	if m.UplinkMessages() != 2 {
		t.Errorf("UplinkMessages = %d", m.UplinkMessages())
	}
	if m.DownlinkMessages() != 3 {
		t.Errorf("DownlinkMessages = %d", m.DownlinkMessages())
	}
	if m.TotalMessages() != 5 {
		t.Errorf("TotalMessages = %d", m.TotalMessages())
	}
	if m.UplinkBytes() != int64(2*up.Size()) {
		t.Errorf("UplinkBytes = %d", m.UplinkBytes())
	}
	if m.DownlinkBytes() != int64(3*down.Size()) {
		t.Errorf("DownlinkBytes = %d", m.DownlinkBytes())
	}
	if m.CountByKind(msg.KindVelocityReport) != 2 {
		t.Errorf("CountByKind = %d", m.CountByKind(msg.KindVelocityReport))
	}
}

func TestMeterResetAdd(t *testing.T) {
	var a, b Meter
	a.RecordUplink(msg.PositionReport{})
	a.RecordDownlink(msg.QueryRemove{}, 2)
	a.AddTo(&b)
	a.AddTo(&b)
	if b.TotalMessages() != 2*a.TotalMessages() {
		t.Errorf("AddTo: %d, want %d", b.TotalMessages(), 2*a.TotalMessages())
	}
	a.Reset()
	if a.TotalMessages() != 0 || a.UplinkBytes() != 0 || a.DownlinkBytes() != 0 {
		t.Error("Reset left residue")
	}
}

func BenchmarkCover(b *testing.B) {
	g := testGrid()
	d := NewDeployment(g, 10)
	region := grid.CellRange{Min: grid.CellID{Col: 3, Row: 3}, Max: grid.CellID{Col: 8, Row: 8}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Cover(region)
	}
}

func BenchmarkNewDeployment(b *testing.B) {
	g := grid.New(geo.NewRect(0, 0, math.Sqrt(100000), math.Sqrt(100000)), 5) // Table 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewDeployment(g, 10)
	}
}

func BenchmarkStationOf(b *testing.B) {
	g := testGrid()
	d := NewDeployment(g, 10)
	p := geo.Pt(42, 57)
	for i := 0; i < b.N; i++ {
		_ = d.StationOf(p)
	}
}
