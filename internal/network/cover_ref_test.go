package network

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
)

// referenceCover is the original set-cover implementation, kept as the test
// oracle for Cover: maps of uncovered cells and candidate stations, and a
// circle–rectangle test per (candidate, uncovered cell) on every greedy
// round. Cover must return exactly what it returns, order included.
func (d *Deployment) referenceCover(region grid.CellRange) []StationID {
	// Collect the cells to cover and the candidate stations.
	type cellKey = grid.CellID
	uncovered := make(map[cellKey]struct{}, region.NumCells())
	candSet := make(map[StationID]struct{})
	region.ForEach(func(c grid.CellID) {
		if !d.g.Valid(c) {
			return
		}
		uncovered[c] = struct{}{}
		for _, sid := range d.StationsForCell(c) {
			candSet[sid] = struct{}{}
		}
	})
	if len(uncovered) == 0 {
		return nil
	}
	cands := make([]StationID, 0, len(candSet))
	for sid := range candSet {
		cands = append(cands, sid)
	}

	var cover []StationID
	for len(uncovered) > 0 {
		best, bestCount := StationID(-1), 0
		for _, sid := range cands {
			count := 0
			circ := d.stations[sid]
			for c := range uncovered {
				if circ.IntersectsRect(d.g.CellRect(c)) {
					count++
				}
			}
			if count > bestCount || (count == bestCount && count > 0 && (best == -1 || sid < best)) {
				best, bestCount = sid, count
			}
		}
		if best == -1 {
			// Cannot happen while the deployment covers the UoD; guard
			// against infinite loops regardless.
			break
		}
		cover = append(cover, best)
		circ := d.stations[best]
		for c := range uncovered {
			if circ.IntersectsRect(d.g.CellRect(c)) {
				delete(uncovered, c)
			}
		}
	}
	return d.referencePruneCover(cover, region)
}

// referencePruneCover is the original irredundance pass behind
// referenceCover.
func (d *Deployment) referencePruneCover(cover []StationID, region grid.CellRange) []StationID {
	if len(cover) <= 1 {
		return cover
	}
	var cells []grid.CellID
	region.ForEach(func(c grid.CellID) {
		if d.g.Valid(c) {
			cells = append(cells, c)
		}
	})
	removed := make([]bool, len(cover))
	for i := range cover {
		redundant := true
		for _, c := range cells {
			rect := d.g.CellRect(c)
			coveredByOther := false
			for j, sid := range cover {
				if j == i || removed[j] {
					continue
				}
				if d.stations[sid].IntersectsRect(rect) {
					coveredByOther = true
					break
				}
			}
			if !coveredByOther && d.stations[cover[i]].IntersectsRect(rect) {
				redundant = false
				break
			}
		}
		if redundant {
			removed[i] = true
		}
	}
	out := cover[:0]
	for i, sid := range cover {
		if !removed[i] {
			out = append(out, sid)
		}
	}
	return out
}

// coverGeometries are the deployments the oracle comparisons run on: the
// α/alen ratios of the experiments, plus a universe side (97) that is a
// multiple of neither α nor alen, so border cells and border stations are
// partial.
var coverGeometries = []struct {
	side, alpha, alen float64
}{
	{316.2, 5, 10}, // Table 1
	{100, 1, 7},
	{100, 2.5, 11},
	{97, 10, 7},
}

// TestCoverMatchesReference: Cover returns exactly the original greedy's
// stations in the original order, on random ranges of every shape — inside
// the grid, hanging off each border, entirely off the grid, inverted, and
// single cells.
func TestCoverMatchesReference(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	for _, gm := range coverGeometries {
		g, d := coverDeployment(gm.side, gm.alpha, gm.alen)
		t.Run(fmt.Sprintf("side=%v/alpha=%v/alen=%v", gm.side, gm.alpha, gm.alen), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(gm.alpha*100 + gm.alen)))
			for i := 0; i < n; i++ {
				region := randomCoverRange(rng, g, i)
				got, want := d.Cover(region), d.referenceCover(region)
				if !slices.Equal(got, want) {
					t.Fatalf("range %v: Cover %v, reference %v", region, got, want)
				}
			}
		})
	}
}

func coverDeployment(side, alpha, alen float64) (*grid.Grid, *Deployment) {
	g := grid.New(geo.NewRect(0, 0, side, side), alpha)
	return g, NewDeployment(g, alen)
}

// randomCoverRange draws the i-th test range, anchored anywhere within three
// cells of the grid: mostly monitoring-region-sized (up to 6×6 cells), with
// every tenth a single cell, every tenth up to 14×14, every tenth entirely
// off the grid on a random side, and every fiftieth inverted (Min past Max).
func randomCoverRange(rng *rand.Rand, g *grid.Grid, i int) grid.CellRange {
	cols, rows := g.Cols(), g.Rows()
	c0 := rng.Intn(cols+6) - 3
	r0 := rng.Intn(rows+6) - 3
	var w, h int
	switch {
	case i%10 == 0: // single cell
	case i%10 == 3:
		w, h = rng.Intn(14), rng.Intn(14)
	case i%50 == 5: // inverted
		w, h = -1-rng.Intn(3), rng.Intn(4)
	case i%10 == 5: // entirely off the grid
		w, h = rng.Intn(6), rng.Intn(6)
		switch rng.Intn(4) {
		case 0:
			c0 = -w - 1 - rng.Intn(3)
		case 1:
			c0 = cols + rng.Intn(3)
		case 2:
			r0 = -h - 1 - rng.Intn(3)
		default:
			r0 = rows + rng.Intn(3)
		}
	default:
		w, h = rng.Intn(6), rng.Intn(6)
	}
	return grid.CellRange{
		Min: grid.CellID{Col: c0, Row: r0},
		Max: grid.CellID{Col: c0 + w, Row: r0 + h},
	}
}

// TestCoverAllocations: the result slice is Cover's only allocation for
// regions up to 14×14 cells; Table 1's monitoring regions are a few cells
// wide.
func TestCoverAllocations(t *testing.T) {
	_, d := coverDeployment(316.2, 5, 10)
	for side := 1; side <= 14; side++ {
		region := grid.CellRange{
			Min: grid.CellID{Col: 20, Row: 30},
			Max: grid.CellID{Col: 20 + side - 1, Row: 30 + side - 1},
		}
		if a := testing.AllocsPerRun(100, func() { _ = d.Cover(region) }); a > 1 {
			t.Errorf("%d×%d region: %v allocations per Cover, want ≤ 1", side, side, a)
		}
	}
}

// TestCoverConcurrent: Cover is safe to call from several goroutines at once
// (a Deployment is read-only once built) and returns what a serial call
// returns.
func TestCoverConcurrent(t *testing.T) {
	g, d := coverDeployment(316.2, 5, 10)
	rng := rand.New(rand.NewSource(9))
	regions := make([]grid.CellRange, 2000)
	want := make([][]StationID, len(regions))
	for i := range regions {
		regions[i] = randomCoverRange(rng, g, i)
		want[i] = d.Cover(regions[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range regions {
				i := (k + w*len(regions)/4) % len(regions)
				if got := d.Cover(regions[i]); !slices.Equal(got, want[i]) {
					errs <- fmt.Sprintf("goroutine %d, range %v: %v, serial %v", w, regions[i], got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
