// Package network models the wireless infrastructure of the MobiEyes system
// (§2.2): a set of base stations whose circular coverage areas jointly cover
// the universe of discourse, the grid-cell-to-base-station mapping Bmap, and
// the minimal-broadcast set cover the server uses to reach a monitoring
// region. The transports meter messages and bytes on the medium in a
// cost.Ledger (internal/obs/cost).
//
// The deployment follows the paper's alen parameter ("base station side
// length"): stations sit on a square lattice with spacing alen, each
// covering the circumscribed circle of its alen×alen square, so the UoD is
// fully covered with modest overlap between neighbors.
package network

import (
	"fmt"
	"math"
	"slices"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/obs/cost"
)

// StationID identifies a base station within a deployment.
type StationID int

// Deployment is a fixed layout of base stations over a grid's universe of
// discourse, with the Bmap (cell → covering stations) precomputed.
type Deployment struct {
	g        *grid.Grid
	alen     float64
	cols     int
	rows     int
	stations []geo.Circle
	byCell   [][]StationID // Bmap, indexed by grid.CellIndex
	cellsOf  [][]int32     // inverse Bmap: station → intersecting cell indices

	// acct, when attached by SetAccountant, charges every greedy set-cover
	// computation as a server-side computation unit (nil = off).
	acct *cost.Accountant
}

// NewDeployment lays out base stations with lattice spacing alen over g's
// universe of discourse. It panics if alen is not positive.
func NewDeployment(g *grid.Grid, alen float64) *Deployment {
	if alen <= 0 {
		panic(fmt.Sprintf("network: non-positive base station side %v", alen))
	}
	u := g.UoD()
	cols := int(math.Ceil(u.W() / alen))
	rows := int(math.Ceil(u.H() / alen))
	d := &Deployment{g: g, alen: alen, cols: cols, rows: rows}
	radius := alen * math.Sqrt2 / 2 // circumscribes the alen×alen square
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			center := geo.Pt(u.LX+(float64(c)+0.5)*alen, u.LY+(float64(r)+0.5)*alen)
			d.stations = append(d.stations, geo.NewCircle(center, radius))
		}
	}
	// Precompute Bmap: for each grid cell, the stations whose coverage
	// intersects the cell (§2.2: Bmap(i,j) = {b : b ∩ A_{i,j} ≠ ∅}). A
	// station's center lies in its lattice square, so only stations whose
	// square lies within one radius of the cell can intersect it: each cell
	// tests a constant-size window of the lattice, rows then columns, which
	// keeps every list ascending.
	d.byCell = make([][]StationID, g.NumCells())
	d.cellsOf = make([][]int32, len(d.stations))
	for idx := range d.byCell {
		rect := g.CellRect(g.CellAt(idx))
		c0, c1 := latticeSpan(rect.LX-u.LX-radius, rect.HX-u.LX+radius, alen, cols)
		r0, r1 := latticeSpan(rect.LY-u.LY-radius, rect.HY-u.LY+radius, alen, rows)
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				if sid := r*cols + c; d.stations[sid].IntersectsRect(rect) {
					d.byCell[idx] = append(d.byCell[idx], StationID(sid))
					d.cellsOf[sid] = append(d.cellsOf[sid], int32(idx))
				}
			}
		}
	}
	return d
}

// latticeSpan returns, clamped to [0, n), the indices i of the lattice
// squares [i·alen, (i+1)·alen] that meet [a, b] (offsets from the UoD's lower
// edge) and one more on each side, so that rounding in the intersection test
// cannot reach a station outside the span.
func latticeSpan(a, b, alen float64, n int) (lo, hi int) {
	lo = int(math.Ceil(a/alen)) - 2
	hi = int(math.Floor(b/alen)) + 1
	return max(lo, 0), min(hi, n-1)
}

// SetAccountant attaches a cost accountant (nil = off; the default): each
// Cover call charges one set-cover computation unit. Attach before use; the
// charge goes through an atomic counter, so concurrent Cover calls are fine.
func (d *Deployment) SetAccountant(a *cost.Accountant) { d.acct = a }

// CellsForStation returns the dense indices of the grid cells a station's
// coverage intersects — the inverse of the Bmap, used to deliver broadcasts
// at cell granularity.
func (d *Deployment) CellsForStation(id StationID) []int32 { return d.cellsOf[id] }

// NumStations returns the number of base stations.
func (d *Deployment) NumStations() int { return len(d.stations) }

// Station returns the coverage circle of a station.
func (d *Deployment) Station(id StationID) geo.Circle { return d.stations[id] }

// Alen returns the lattice spacing.
func (d *Deployment) Alen() float64 { return d.alen }

// StationsForCell is the paper's Bmap: the non-empty set of stations whose
// coverage intersects the given grid cell.
func (d *Deployment) StationsForCell(c grid.CellID) []StationID {
	return d.byCell[d.g.CellIndex(c)]
}

// StationOf returns the station whose center is nearest to p among those
// covering p — the station a moving object at p uplinks through.
func (d *Deployment) StationOf(p geo.Point) StationID {
	// The lattice makes the nearest-center station an O(1) lookup; it
	// always covers p because its circle circumscribes its square.
	u := d.g.UoD()
	c := int((p.X - u.LX) / d.alen)
	r := int((p.Y - u.LY) / d.alen)
	if c < 0 {
		c = 0
	} else if c >= d.cols {
		c = d.cols - 1
	}
	if r < 0 {
		r = 0
	} else if r >= d.rows {
		r = d.rows - 1
	}
	return StationID(r*d.cols + c)
}

// coverStackWords is the size, in 64-bit words, of the uncovered-cell bitmap
// Cover keeps on the stack: regions of up to 256 cells (16×16).
const coverStackWords = 4

// Cover returns a small set of stations whose coverage jointly intersects
// every cell of region, computed with the classic greedy set-cover
// heuristic over the Bmap (§3.3: "the server uses the mapping Bmap to
// determine the minimal set of base stations that covers the monitoring
// region"). The greedy runs on the precomputed lists alone: the candidates
// are the stations Bmap lists for the region's cells, a candidate's gain is
// the number of still-uncovered region cells in its inverse list, and ties
// go to the lowest station ID. Cells outside the grid are ignored. Cover
// allocates only its result and is safe for concurrent use.
func (d *Deployment) Cover(region grid.CellRange) []StationID {
	d.acct.Compute(cost.UnitSetCover, 1)
	rc, ok := d.clip(region)
	if !ok {
		return nil
	}
	// The uncovered cells, one bit each, row-major from rc.Min.
	n := rc.NumCells()
	var stack [coverStackWords]uint64
	unc := stack[:]
	if words := (n + 63) / 64; words <= len(stack) {
		unc = stack[:words]
	} else {
		unc = make([]uint64, words)
	}
	for b := 0; b < n; b++ {
		unc[b>>6] |= 1 << (b & 63)
	}
	var candBuf [128]StationID
	cands := candBuf[:0]
	for row := rc.Min.Row; row <= rc.Max.Row; row++ {
		for idx := row*d.g.Cols() + rc.Min.Col; idx <= row*d.g.Cols()+rc.Max.Col; idx++ {
			for _, sid := range d.byCell[idx] {
				cands = insertStation(cands, sid)
			}
		}
	}

	var coverBuf [64]StationID
	cover := coverBuf[:0]
	for left := n; left > 0; {
		// Candidates are ascending, so the first maximum is the lowest
		// station ID among the ties. A candidate that covers nothing new
		// never will again and is dropped.
		best, bestCount := StationID(-1), 0
		live := cands[:0]
		for _, sid := range cands {
			count := d.regionCells(sid, rc, unc, false)
			if count == 0 {
				continue
			}
			live = append(live, sid)
			if count > bestCount {
				best, bestCount = sid, count
			}
		}
		cands = live
		if best == -1 {
			// Cannot happen while the deployment covers the UoD; guard
			// against infinite loops regardless.
			break
		}
		cover = append(cover, best)
		left -= d.regionCells(best, rc, unc, true)
	}
	return append([]StationID(nil), d.pruneCover(cover, rc)...)
}

// clip returns region clipped to the grid, and whether any cell remains.
func (d *Deployment) clip(region grid.CellRange) (grid.CellRange, bool) {
	rc := grid.CellRange{
		Min: grid.CellID{Col: max(region.Min.Col, 0), Row: max(region.Min.Row, 0)},
		Max: grid.CellID{Col: min(region.Max.Col, d.g.Cols()-1), Row: min(region.Max.Row, d.g.Rows()-1)},
	}
	return rc, rc.Min.Col <= rc.Max.Col && rc.Min.Row <= rc.Max.Row
}

// insertStation adds sid to the ascending set s.
func insertStation(s []StationID, sid StationID) []StationID {
	if len(s) == 0 || s[len(s)-1] < sid {
		return append(s, sid)
	}
	i, found := slices.BinarySearch(s, sid)
	if found {
		return s
	}
	return slices.Insert(s, i, sid)
}

// regionCells counts the cells of station sid's inverse Bmap list that lie
// in rc and are still set in unc, the uncovered bitmap of rc; take clears
// them as well.
func (d *Deployment) regionCells(sid StationID, rc grid.CellRange, unc []uint64, take bool) int {
	cols, w := d.g.Cols(), rc.Max.Col-rc.Min.Col+1
	count := 0
	for _, ci := range d.cellsOf[sid] {
		c := grid.CellID{Col: int(ci) % cols, Row: int(ci) / cols}
		if !rc.Contains(c) {
			continue
		}
		b := (c.Row-rc.Min.Row)*w + c.Col - rc.Min.Col
		if bit := uint64(1) << (b & 63); unc[b>>6]&bit != 0 {
			count++
			if take {
				unc[b>>6] &^= bit
			}
		}
	}
	return count
}

// pruneCover drops stations the rest of the cover makes redundant: greedy
// picks can be subsumed by the union of later picks (the classic greedy
// set-cover artifact), and "minimal set of base stations" should at least
// mean no member is removable. Each station, in pick order, is tested
// against the cover with it and the stations already dropped removed;
// survivors form an irredundant cover of rc. It filters cover in place.
func (d *Deployment) pruneCover(cover []StationID, rc grid.CellRange) []StationID {
	if len(cover) <= 1 {
		return cover
	}
	out := cover[:0]
	for i, sid := range cover {
		// out holds the survivors so far and never overtakes i, so the
		// stations still to test are intact.
		if d.needed(sid, rc, out, cover[i+1:]) {
			out = append(out, sid)
		}
	}
	return out
}

// needed reports whether some cell of rc that station sid covers is covered
// by none of the stations in kept and rest.
func (d *Deployment) needed(sid StationID, rc grid.CellRange, kept, rest []StationID) bool {
	cols := d.g.Cols()
	for _, ci := range d.cellsOf[sid] {
		if !rc.Contains(grid.CellID{Col: int(ci) % cols, Row: int(ci) / cols}) {
			continue
		}
		if !slices.ContainsFunc(d.byCell[ci], func(s StationID) bool {
			return slices.Contains(kept, s) || slices.Contains(rest, s)
		}) {
			return true
		}
	}
	return false
}

// Covers reports whether station id's coverage contains point p.
func (d *Deployment) Covers(id StationID, p geo.Point) bool {
	return d.stations[id].Contains(p)
}
