package network

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/cost"
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

// TestMeterCounts pins how traffic on the medium is metered: a broadcast to
// a monitoring region goes out once per base station of its cover, so it
// counts len(cover) downlink messages of len(cover) times the bytes.
func TestMeterCounts(t *testing.T) {
	g := testGrid()
	d := NewDeployment(g, 10)
	cover := d.Cover(grid.CellRange{Min: grid.CellID{Col: 4, Row: 4}, Max: grid.CellID{Col: 9, Row: 9}})
	if len(cover) < 2 {
		t.Fatalf("cover of %d stations; want a multi-station broadcast", len(cover))
	}

	var m cost.Ledger
	up := msg.VelocityReport{}
	down := msg.VelocityChange{}
	m.ChargeUplink(up.Kind(), up.Size())
	m.ChargeUplink(up.Kind(), up.Size())
	m.ChargeDownlink(down.Kind(), down.Size(), len(cover))

	s := m.Snap()
	if s.UplinkMsgs() != 2 {
		t.Errorf("UplinkMsgs = %d", s.UplinkMsgs())
	}
	if s.DownlinkMsgs() != int64(len(cover)) {
		t.Errorf("DownlinkMsgs = %d, want %d", s.DownlinkMsgs(), len(cover))
	}
	if s.UplinkMsgs()+s.DownlinkMsgs() != int64(2+len(cover)) {
		t.Errorf("total messages = %d", s.UplinkMsgs()+s.DownlinkMsgs())
	}
	if s.UplinkBytes() != int64(2*up.Size()) {
		t.Errorf("UplinkBytes = %d", s.UplinkBytes())
	}
	if s.DownlinkBytes() != int64(len(cover)*down.Size()) {
		t.Errorf("DownlinkBytes = %d", s.DownlinkBytes())
	}
	if n := s.UpMsgs[msg.KindVelocityReport] + s.DownMsgs[msg.KindVelocityReport]; n != 2 {
		t.Errorf("VelocityReport count = %d", n)
	}
}

// TestMeterResetAdd checks that traffic charged from concurrent workers into
// one ledger adds up (the parallel phase's uplinks need no merge step), and
// that Reset leaves no residue.
func TestMeterResetAdd(t *testing.T) {
	charge := func(l *cost.Ledger) {
		p, r := msg.PositionReport{}, msg.QueryRemove{}
		l.ChargeUplink(p.Kind(), p.Size())
		l.ChargeDownlink(r.Kind(), r.Size(), 2)
	}
	var a, b cost.Ledger
	charge(&a)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			charge(&b)
		}()
	}
	wg.Wait()

	sa, sb := a.Snap(), b.Snap()
	if got, want := sb.UplinkMsgs()+sb.DownlinkMsgs(), 2*(sa.UplinkMsgs()+sa.DownlinkMsgs()); got != want {
		t.Errorf("concurrent charges: %d messages, want %d", got, want)
	}
	if got, want := sb.UplinkBytes()+sb.DownlinkBytes(), 2*(sa.UplinkBytes()+sa.DownlinkBytes()); got != want {
		t.Errorf("concurrent charges: %d bytes, want %d", got, want)
	}
	a.Reset()
	if s := a.Snap(); s.UplinkMsgs()+s.DownlinkMsgs() != 0 || s.UplinkBytes() != 0 || s.DownlinkBytes() != 0 {
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
