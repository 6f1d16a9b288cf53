package grid

import (
	"math"
	"math/rand"
	"testing"

	"mobieyes/internal/geo"
)

func testGrid() *Grid {
	return New(geo.NewRect(0, 0, 100, 100), 5)
}

func TestNewDimensions(t *testing.T) {
	g := testGrid()
	if g.Cols() != 20 || g.Rows() != 20 {
		t.Fatalf("dims = %dx%d, want 20x20", g.Cols(), g.Rows())
	}
	if g.NumCells() != 400 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	if g.Alpha() != 5 {
		t.Fatalf("Alpha = %v", g.Alpha())
	}
}

func TestNewCeilDimensions(t *testing.T) {
	g := New(geo.NewRect(0, 0, 101, 99), 5)
	if g.Cols() != 21 {
		t.Errorf("Cols = %d, want ⌈101/5⌉ = 21", g.Cols())
	}
	if g.Rows() != 20 {
		t.Errorf("Rows = %d, want ⌈99/5⌉ = 20", g.Rows())
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero alpha":     func() { New(geo.NewRect(0, 0, 1, 1), 0) },
		"negative alpha": func() { New(geo.NewRect(0, 0, 1, 1), -1) },
		"empty uod":      func() { New(geo.NewRect(0, 0, 0, 1), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCellOf(t *testing.T) {
	g := testGrid()
	cases := []struct {
		p    geo.Point
		want CellID
	}{
		{geo.Pt(0, 0), CellID{0, 0}},
		{geo.Pt(4.999, 4.999), CellID{0, 0}},
		{geo.Pt(5, 5), CellID{1, 1}},
		{geo.Pt(99.9, 99.9), CellID{19, 19}},
		{geo.Pt(100, 100), CellID{19, 19}}, // clamped boundary
		{geo.Pt(-3, 50), CellID{0, 10}},    // clamped outside
		{geo.Pt(200, -1), CellID{19, 0}},   // clamped outside
		{geo.Pt(52.5, 12.5), CellID{10, 2}},
	}
	for _, c := range cases {
		if got := g.CellOf(c.p); got != c.want {
			t.Errorf("CellOf(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestHugeAndInfiniteInputsClamp: positions and radii far past the UoD clamp
// to the border like any other outside value. Converting the float index to
// int before clamping sent 1e30 and ±Inf to cell 0 on amd64.
func TestHugeAndInfiniteInputsClamp(t *testing.T) {
	g := testGrid()
	inf := math.Inf(1)
	for _, c := range []struct {
		p    geo.Point
		want CellID
	}{
		{geo.Pt(1e30, 1e30), CellID{19, 19}},
		{geo.Pt(-1e30, -1e30), CellID{0, 0}},
		{geo.Pt(1e30, -1e30), CellID{19, 0}},
		{geo.Pt(inf, inf), CellID{19, 19}},
		{geo.Pt(-inf, -inf), CellID{0, 0}},
		{geo.Pt(-inf, inf), CellID{0, 19}},
	} {
		if got := g.CellOf(c.p); got != c.want {
			t.Errorf("CellOf(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	whole := CellRange{Min: CellID{0, 0}, Max: CellID{19, 19}}
	for _, c := range []struct {
		r    float64
		want CellRange
	}{
		{3, CellRange{Min: CellID{9, 9}, Max: CellID{11, 11}}},
		{1e17, whole},
		{1e30, whole},
		{inf, whole},
	} {
		if got := g.MonitoringRegion(CellID{10, 10}, c.r); got != c.want {
			t.Errorf("MonitoringRegion(cell(10,10), %v) = %v, want %v", c.r, got, c.want)
		}
	}
	// Offsets whose index fits an int map exactly as convert-then-clamp did.
	clampInt := func(v, n int) int { return min(max(v, 0), n-1) }
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		p := geo.Pt((rng.Float64()-0.5)*1e6, (rng.Float64()-0.5)*300)
		want := CellID{
			clampInt(int(math.Floor(p.X/5)), 20),
			clampInt(int(math.Floor(p.Y/5)), 20),
		}
		if got := g.CellOf(p); got != want {
			t.Fatalf("CellOf(%v) = %v, convert-then-clamp gave %v", p, got, want)
		}
	}
}

func TestCellOfNonZeroOrigin(t *testing.T) {
	g := New(geo.NewRect(-50, -50, 100, 100), 10)
	if got := g.CellOf(geo.Pt(-50, -50)); got != (CellID{0, 0}) {
		t.Errorf("CellOf origin = %v", got)
	}
	if got := g.CellOf(geo.Pt(0, 0)); got != (CellID{5, 5}) {
		t.Errorf("CellOf(0,0) = %v", got)
	}
}

// Property: every point inside the UoD lies inside the rect of its cell.
func TestCellOfRoundTrip(t *testing.T) {
	g := testGrid()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		c := g.CellOf(p)
		if !g.Valid(c) {
			t.Fatalf("invalid cell %v for %v", c, p)
		}
		if !g.CellRect(c).Contains(p) {
			t.Fatalf("cell rect %v does not contain %v", g.CellRect(c), p)
		}
	}
}

func TestCellIndexRoundTrip(t *testing.T) {
	g := testGrid()
	for row := 0; row < g.Rows(); row++ {
		for col := 0; col < g.Cols(); col++ {
			c := CellID{col, row}
			idx := g.CellIndex(c)
			if idx < 0 || idx >= g.NumCells() {
				t.Fatalf("index %d out of range for %v", idx, c)
			}
			if back := g.CellAt(idx); back != c {
				t.Fatalf("CellAt(CellIndex(%v)) = %v", c, back)
			}
		}
	}
}

func TestCellRect(t *testing.T) {
	g := testGrid()
	r := g.CellRect(CellID{3, 7})
	want := geo.NewRect(15, 35, 5, 5)
	if r != want {
		t.Errorf("CellRect = %v, want %v", r, want)
	}
}

func TestBoundingBox(t *testing.T) {
	g := testGrid()
	bb := g.BoundingBox(CellID{2, 2}, 3)
	// Cell (2,2) spans [10,15]×[10,15]; bbox = [7,18]×[7,18].
	want := geo.NewRect(7, 7, 11, 11)
	if bb != want {
		t.Errorf("BoundingBox = %v, want %v", bb, want)
	}
}

// Property (paper definition): the bounding box covers the query circle for
// any focal position inside the cell.
func TestBoundingBoxCoversQueryRegion(t *testing.T) {
	g := testGrid()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		cell := CellID{rng.Intn(20), rng.Intn(20)}
		cr := g.CellRect(cell)
		r := rng.Float64() * 8
		// Random focal position inside the cell.
		fp := geo.Pt(cr.LX+rng.Float64()*cr.W(), cr.LY+rng.Float64()*cr.H())
		region := geo.NewCircle(fp, r)
		bb := g.BoundingBox(cell, r)
		if !bb.ContainsRect(region.BoundingRect()) {
			t.Fatalf("bbox %v does not cover query region %v (cell %v)", bb, region, cell)
		}
	}
}

func TestMonitoringRegion(t *testing.T) {
	g := testGrid()
	// Cell (4,4) spans [20,25]². Radius 3 → bbox [17,28]², which intersects
	// cells with cols/rows 3..5.
	mr := g.MonitoringRegion(CellID{4, 4}, 3)
	want := CellRange{Min: CellID{3, 3}, Max: CellID{5, 5}}
	if mr != want {
		t.Errorf("MonitoringRegion = %v, want %v", mr, want)
	}
	if mr.NumCells() != 9 {
		t.Errorf("NumCells = %d, want 9", mr.NumCells())
	}
}

func TestMonitoringRegionClipped(t *testing.T) {
	g := testGrid()
	mr := g.MonitoringRegion(CellID{0, 0}, 3)
	want := CellRange{Min: CellID{0, 0}, Max: CellID{1, 1}}
	if mr != want {
		t.Errorf("MonitoringRegion at corner = %v, want %v", mr, want)
	}
}

func TestMonitoringRegionBoundaryAligned(t *testing.T) {
	g := testGrid()
	// Radius 0: bbox is exactly the cell [10,15]². Its high edge touches
	// cells at col/row 3, so the closed-interval intersection includes them.
	mr := g.MonitoringRegion(CellID{2, 2}, 0)
	want := CellRange{Min: CellID{2, 2}, Max: CellID{3, 3}}
	if mr != want {
		t.Errorf("MonitoringRegion radius 0 = %v, want %v", mr, want)
	}
}

// Property (paper §2.3): the monitoring region covers every object that can
// be inside the query region while the focal object stays in its cell.
func TestMonitoringRegionCoversTargets(t *testing.T) {
	g := testGrid()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		cell := CellID{rng.Intn(20), rng.Intn(20)}
		cr := g.CellRect(cell)
		r := rng.Float64()*6 + 0.1
		fp := geo.Pt(cr.LX+rng.Float64()*cr.W(), cr.LY+rng.Float64()*cr.H())
		mr := g.MonitoringRegion(cell, r)
		// Random target inside the query region (and inside the UoD).
		ang := rng.Float64() * 2 * math.Pi
		dist := rng.Float64() * r
		tp := geo.Pt(fp.X+dist*math.Cos(ang), fp.Y+dist*math.Sin(ang))
		if !g.UoD().Contains(tp) {
			continue
		}
		if !mr.Contains(g.CellOf(tp)) {
			t.Fatalf("target %v (cell %v) outside monitoring region %v (focal %v, r=%v)",
				tp, g.CellOf(tp), mr, fp, r)
		}
	}
}

func TestCellRangeOps(t *testing.T) {
	a := CellRange{Min: CellID{1, 1}, Max: CellID{3, 3}}
	b := CellRange{Min: CellID{3, 3}, Max: CellID{5, 5}}
	c := CellRange{Min: CellID{4, 0}, Max: CellID{5, 2}}

	if !a.Intersects(b) {
		t.Error("a should intersect b (shared corner cell)")
	}
	if a.Intersects(c) {
		t.Error("a should not intersect c")
	}
	u := a.Union(b)
	if u != (CellRange{Min: CellID{1, 1}, Max: CellID{5, 5}}) {
		t.Errorf("Union = %v", u)
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal misbehaves")
	}

	count := 0
	a.ForEach(func(CellID) { count++ })
	if count != 9 || count != a.NumCells() {
		t.Errorf("ForEach visited %d cells, NumCells = %d", count, a.NumCells())
	}
}

func TestCellRangeContains(t *testing.T) {
	cr := CellRange{Min: CellID{2, 3}, Max: CellID{4, 6}}
	if !cr.Contains(CellID{2, 3}) || !cr.Contains(CellID{4, 6}) || !cr.Contains(CellID{3, 4}) {
		t.Error("range should contain its corners and interior")
	}
	for _, c := range []CellID{{1, 3}, {5, 3}, {2, 2}, {2, 7}} {
		if cr.Contains(c) {
			t.Errorf("range should not contain %v", c)
		}
	}
}

func TestCellsIntersecting(t *testing.T) {
	g := testGrid()
	cr := g.CellsIntersecting(geo.NewRect(12, 12, 6, 6)) // [12,18]²
	want := CellRange{Min: CellID{2, 2}, Max: CellID{3, 3}}
	if cr != want {
		t.Errorf("CellsIntersecting = %v, want %v", cr, want)
	}
	// Fully outside rect clamps to border cells rather than panicking.
	out := g.CellsIntersecting(geo.NewRect(200, 200, 5, 5))
	if !g.Valid(out.Min) || !g.Valid(out.Max) {
		t.Errorf("clipped range invalid: %v", out)
	}
}

func TestRegionRect(t *testing.T) {
	g := testGrid()
	cr := CellRange{Min: CellID{1, 2}, Max: CellID{3, 4}}
	r := g.RegionRect(cr)
	want := geo.NewRect(5, 10, 15, 15)
	if r != want {
		t.Errorf("RegionRect = %v, want %v", r, want)
	}
}

// Property: CellsIntersecting agrees with a brute-force scan over all cells.
func TestCellsIntersectingBruteForce(t *testing.T) {
	g := New(geo.NewRect(0, 0, 50, 50), 5)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 300; i++ {
		r := geo.NewRect(rng.Float64()*60-5, rng.Float64()*60-5, rng.Float64()*20, rng.Float64()*20)
		got := g.CellsIntersecting(r)
		for row := 0; row < g.Rows(); row++ {
			for col := 0; col < g.Cols(); col++ {
				c := CellID{col, row}
				inRange := got.Contains(c)
				intersects := g.CellRect(c).Intersects(r)
				// The clipped range may include border cells that do not
				// intersect (when r lies outside the UoD); only flag cells
				// that intersect but were excluded.
				if intersects && !inRange {
					t.Fatalf("cell %v intersects %v but not in range %v", c, r, got)
				}
			}
		}
	}
}

func BenchmarkCellOf(b *testing.B) {
	g := testGrid()
	p := geo.Pt(52.5, 12.5)
	for i := 0; i < b.N; i++ {
		_ = g.CellOf(p)
	}
}

func BenchmarkMonitoringRegion(b *testing.B) {
	g := testGrid()
	for i := 0; i < b.N; i++ {
		_ = g.MonitoringRegion(CellID{4, 4}, 3)
	}
}
