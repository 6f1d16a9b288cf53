// Package grid implements the grid decomposition of the universe of
// discourse defined in §2.2 of the MobiEyes paper: the UoD rectangle is
// mapped onto a grid G of α×α cells, and the paper's Pmap (position → cell),
// bounding box and monitoring region constructions are provided as methods.
//
// Cells are addressed by integer indices (Col, Row) with (0, 0) at the
// lower-left corner of the UoD. The paper indexes from 1; we use 0-based
// indices internally, which changes nothing observable.
package grid

import (
	"fmt"
	"math"

	"mobieyes/internal/geo"
)

// CellID identifies a grid cell by column (x) and row (y).
type CellID struct {
	Col, Row int
}

// String implements fmt.Stringer.
func (c CellID) String() string { return fmt.Sprintf("cell(%d,%d)", c.Col, c.Row) }

// Grid partitions a universe of discourse into α×α cells.
type Grid struct {
	uod   geo.Rect
	alpha float64
	cols  int // N = ⌈W/α⌉
	rows  int // M = ⌈H/α⌉
}

// New returns a grid over the universe of discourse u with cell side alpha.
// It panics if alpha is not positive or u has non-positive extent, since a
// grid is a system-level configuration object and such values are programmer
// errors, not runtime conditions.
func New(u geo.Rect, alpha float64) *Grid {
	if alpha <= 0 {
		panic(fmt.Sprintf("grid: non-positive cell side %v", alpha))
	}
	if u.W() <= 0 || u.H() <= 0 {
		panic(fmt.Sprintf("grid: degenerate universe of discourse %v", u))
	}
	return &Grid{
		uod:   u,
		alpha: alpha,
		cols:  int(math.Ceil(u.W() / alpha)),
		rows:  int(math.Ceil(u.H() / alpha)),
	}
}

// UoD returns the universe of discourse.
func (g *Grid) UoD() geo.Rect { return g.uod }

// Alpha returns the cell side length α.
func (g *Grid) Alpha() float64 { return g.alpha }

// Cols returns the number of grid columns (N in the paper).
func (g *Grid) Cols() int { return g.cols }

// Rows returns the number of grid rows (M in the paper).
func (g *Grid) Rows() int { return g.rows }

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return g.cols * g.rows }

// CellOf is the paper's Pmap: it maps a position to the cell containing it.
// Positions outside the UoD are clamped to the nearest border cell, so that
// objects that drift slightly past the boundary (floating point, or bounce
// handling in the workload) still resolve to a valid cell.
func (g *Grid) CellOf(p geo.Point) CellID {
	return CellID{g.band(p.X-g.uod.LX, g.cols), g.band(p.Y-g.uod.LY, g.rows)}
}

// band maps an offset from the UoD's low edge to the index of the row or
// column of cells containing it, clamped to [0, n). It clamps in float and
// converts last: Go leaves the int conversion of an out-of-range float
// implementation-defined (amd64 yields math.MinInt64), which sent huge and
// infinite offsets to band 0. NaN lands in band 0.
func (g *Grid) band(off float64, n int) int {
	f := math.Floor(off / g.alpha)
	switch {
	case f >= float64(n-1):
		return n - 1
	case f > 0:
		return int(f)
	}
	return 0
}

// Valid reports whether c addresses a cell inside the grid.
func (g *Grid) Valid(c CellID) bool {
	return c.Col >= 0 && c.Col < g.cols && c.Row >= 0 && c.Row < g.rows
}

// CellRect returns the rectangle covered by cell c, i.e. the paper's
// A_{i,j} = Rect(X + i·α, Y + j·α, α, α).
func (g *Grid) CellRect(c CellID) geo.Rect {
	return geo.NewRect(
		g.uod.LX+float64(c.Col)*g.alpha,
		g.uod.LY+float64(c.Row)*g.alpha,
		g.alpha, g.alpha,
	)
}

// CellIndex returns a dense index for c suitable for array-backed tables
// such as the reverse query index RQI.
func (g *Grid) CellIndex(c CellID) int { return c.Row*g.cols + c.Col }

// CellAt is the inverse of CellIndex.
func (g *Grid) CellAt(idx int) CellID {
	return CellID{Col: idx % g.cols, Row: idx / g.cols}
}

// BoundingBox returns the paper's bound_box(q) for a circular query region
// of radius r whose focal object currently resides in cell rc:
// Rect(rc.lx − r, rc.ly − r, α + 2r, α + 2r). It covers every position the
// query region can reach while the focal object stays inside rc.
func (g *Grid) BoundingBox(rc CellID, r float64) geo.Rect {
	cr := g.CellRect(rc)
	b := geo.NewRect(cr.LX-r, cr.LY-r, g.alpha+2*r, g.alpha+2*r)
	if math.IsInf(r, 1) {
		// The high edges came out as −∞ + ∞ = NaN; the box reaches everywhere.
		b.HX, b.HY = r, r
	}
	return b
}

// CellRange is a rectangular span of grid cells, inclusive on both ends.
// It is the compact representation of a monitoring region: because a
// monitoring region is the set of cells intersecting an axis-aligned
// bounding box, it is always a contiguous rectangle of cells.
type CellRange struct {
	Min, Max CellID
}

// Contains reports whether c lies inside the range.
func (cr CellRange) Contains(c CellID) bool {
	return c.Col >= cr.Min.Col && c.Col <= cr.Max.Col &&
		c.Row >= cr.Min.Row && c.Row <= cr.Max.Row
}

// NumCells returns the number of cells spanned.
func (cr CellRange) NumCells() int {
	return (cr.Max.Col - cr.Min.Col + 1) * (cr.Max.Row - cr.Min.Row + 1)
}

// Intersects reports whether two cell ranges share at least one cell.
func (cr CellRange) Intersects(o CellRange) bool {
	return cr.Min.Col <= o.Max.Col && o.Min.Col <= cr.Max.Col &&
		cr.Min.Row <= o.Max.Row && o.Min.Row <= cr.Max.Row
}

// Union returns the smallest cell range containing both cr and o.
func (cr CellRange) Union(o CellRange) CellRange {
	u := cr
	if o.Min.Col < u.Min.Col {
		u.Min.Col = o.Min.Col
	}
	if o.Min.Row < u.Min.Row {
		u.Min.Row = o.Min.Row
	}
	if o.Max.Col > u.Max.Col {
		u.Max.Col = o.Max.Col
	}
	if o.Max.Row > u.Max.Row {
		u.Max.Row = o.Max.Row
	}
	return u
}

// Equal reports whether two cell ranges span exactly the same cells.
func (cr CellRange) Equal(o CellRange) bool { return cr == o }

// ForEach calls fn for every cell in the range, row by row.
func (cr CellRange) ForEach(fn func(CellID)) {
	for row := cr.Min.Row; row <= cr.Max.Row; row++ {
		for col := cr.Min.Col; col <= cr.Max.Col; col++ {
			fn(CellID{col, row})
		}
	}
}

// String implements fmt.Stringer.
func (cr CellRange) String() string {
	return fmt.Sprintf("cells[%d..%d, %d..%d]", cr.Min.Col, cr.Max.Col, cr.Min.Row, cr.Max.Row)
}

// CellsIntersecting returns the range of cells whose rectangles intersect r,
// clipped to the grid.
func (g *Grid) CellsIntersecting(r geo.Rect) CellRange {
	// A rect whose high edge lies exactly on a cell boundary still
	// intersects the next cell (closed intervals), so only pull back when
	// the computed index exceeds the grid.
	return CellRange{
		Min: CellID{g.band(r.LX-g.uod.LX, g.cols), g.band(r.LY-g.uod.LY, g.rows)},
		Max: CellID{g.band(r.HX-g.uod.LX, g.cols), g.band(r.HY-g.uod.LY, g.rows)},
	}
}

// MonitoringRegion returns the paper's mon_region(q): the set of grid cells
// intersecting the bounding box of a circular query of radius r whose focal
// object resides in cell rc. The result covers every object that can become
// a target of the query while the focal object stays in rc.
func (g *Grid) MonitoringRegion(rc CellID, r float64) CellRange {
	return g.CellsIntersecting(g.BoundingBox(rc, r))
}

// RegionRect returns the rectangle covered by a cell range.
func (g *Grid) RegionRect(cr CellRange) geo.Rect {
	lo := g.CellRect(cr.Min)
	hi := g.CellRect(cr.Max)
	return geo.RectFromCorners(geo.Pt(lo.LX, lo.LY), geo.Pt(hi.HX, hi.HY))
}
