// Package load is an open-loop, coordinated-omission-safe load generator for
// the MobiEyes server backends. Operations are issued on a fixed arrival
// schedule derived from the target rate — op i is due at start + i/rate — and
// each op's latency is measured from its *scheduled* time, not from when a
// worker got around to issuing it. A backend stall therefore charges every op
// that should have run during the stall with its full queueing delay, instead
// of silently pausing the clock the way closed-loop benchmarks do (the
// coordinated-omission error; see EXPERIMENTS.md).
//
// The generator drives any core.ServerAPI backend — the serial server, the
// router over in-process shards or journaled nodes, and the real TCP stack via
// internal/remote — and emits a time-series Report (one sample per interval:
// throughput, latency quantiles, backlog, GC pause, goroutines) plus an
// optional per-stage pipeline decomposition derived from the causal-tracing
// flight recorder (obs.LatencyView).
package load

import (
	"math"
	"sync"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// workloadAlpha is the grid cell side (miles); matches the paper's default.
const workloadAlpha = 5.0

// splitmix64 is the op-stream PRNG: one multiply-xor chain per draw, so
// every (seed, object, op-sequence) triple yields an independent value.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// objState is one simulated device's mutable state. Ops round-robin over
// objects, so with more workers than objects two workers can hold ops for
// the same object concurrently; the per-object mutex keeps each device's
// motion history internally consistent (message contents stay deterministic
// per (seed, object, sequence); only the interleaving across objects varies
// with scheduling).
type objState struct {
	mu   sync.Mutex
	pos  geo.Point
	vel  geo.Vector
	cell grid.CellID
	seq  uint64
	in   bool // last reported containment state
}

// Workload generates the deterministic op stream: a seeded population of
// moving objects on a grid sized to ~4 objects per cell, the first Queries
// objects focal. Safe for concurrent Op calls.
type Workload struct {
	G       *grid.Grid
	UoD     geo.Rect
	Radius  float64 // query region radius
	n       int
	queries int
	seed    uint64
	objs    []objState
	qids    []model.QueryID // filled by the runner after installation
}

// NewWorkload builds a workload of n objects (the first queries of them
// focal) with deterministic initial placement from seed.
func NewWorkload(n, queries int, seed uint64) *Workload {
	if n < 1 {
		n = 1
	}
	if queries < 1 {
		queries = 1
	}
	if queries > n {
		queries = n
	}
	// ~4 objects per cell, at least a 4×4 grid so monitoring regions have
	// room to move.
	cols := int(math.Ceil(math.Sqrt(float64(n) / 4)))
	if cols < 4 {
		cols = 4
	}
	side := float64(cols) * workloadAlpha
	uod := geo.NewRect(0, 0, side, side)
	w := &Workload{
		G:       grid.New(uod, workloadAlpha),
		UoD:     uod,
		Radius:  workloadAlpha * 1.5,
		n:       n,
		queries: queries,
		seed:    seed,
		objs:    make([]objState, n),
	}
	for i := range w.objs {
		o := &w.objs[i]
		r := splitmix64(seed ^ uint64(i+1))
		o.pos = geo.Point{
			X: float64(r%100000) / 100000 * side,
			Y: float64(splitmix64(r)%100000) / 100000 * side,
		}
		o.vel = w.randVel(splitmix64(r + 1))
		o.cell = w.G.CellOf(o.pos)
	}
	return w
}

// NumObjects returns the population size.
func (w *Workload) NumObjects() int { return w.n }

// NumQueries returns the number of focal objects / installed queries.
func (w *Workload) NumQueries() int { return w.queries }

// randVel draws a bounded velocity vector (≤ ~50 mph per axis).
func (w *Workload) randVel(r uint64) geo.Vector {
	return geo.Vector{
		X: float64(int64(r%1000)-500) / 10,
		Y: float64(int64(splitmix64(r)%1000)-500) / 10,
	}
}

// invalidCell is the "no previous cell" marker a join report carries.
var invalidCell = grid.CellID{Col: -1, Row: -1}

// Join returns object oid's join report: a cell-change with an invalid
// previous cell, carrying the object's initial motion state.
func (w *Workload) Join(oid model.ObjectID) msg.Message {
	o := &w.objs[oid-1]
	o.mu.Lock()
	defer o.mu.Unlock()
	return msg.CellChangeReport{
		OID: oid, PrevCell: invalidCell, NewCell: o.cell,
		Pos: o.pos, Vel: o.vel, Tm: 0,
	}
}

// FocalInfo returns object oid's motion state as a FocalInfoResponse — the
// runner sends it right after installing a query on oid, completing the
// §3.3 pending installation without a FocalInfoRequest round trip.
func (w *Workload) FocalInfo(oid model.ObjectID) msg.Message {
	o := &w.objs[oid-1]
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seq++
	return msg.FocalInfoResponse{OID: oid, Pos: o.pos, Vel: o.vel, Tm: w.tm(o)}
}

// SetQueryIDs records the installed query identifiers so containment
// reports can target them.
func (w *Workload) SetQueryIDs(qids []model.QueryID) { w.qids = qids }

// tm is the object's synthetic protocol clock: strictly increasing per
// object so motion-state freshness checks always accept the report.
func (w *Workload) tm(o *objState) model.Time {
	return model.Time(float64(o.seq) * 1e-3)
}

// Op generates the i-th operation of the run. Ops round-robin over objects;
// the per-(object, sequence) draw decides the message kind:
//
//   - focal objects (oid ≤ queries) mostly report velocity-vector changes
//     (the §3.4 dead-reckoning path) and occasionally cross cells (§3.5,
//     the expensive path: monitoring-region relocation + broadcast);
//   - non-focal objects mostly cross cells and occasionally flip a
//     containment report (§3.6, the differential result path).
func (w *Workload) Op(i uint64) msg.Message {
	oid := model.ObjectID(i%uint64(w.n)) + 1
	o := &w.objs[oid-1]
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seq++
	r := splitmix64(w.seed ^ uint64(oid)<<24 ^ o.seq)
	focal := int(oid) <= w.queries
	switch {
	case focal && r%10 < 6:
		o.vel = w.randVel(r >> 8)
		return msg.VelocityReport{OID: oid, Pos: o.pos, Vel: o.vel, Tm: w.tm(o)}
	case !focal && r%10 >= 8 && len(w.qids) > 0:
		o.in = !o.in
		qid := w.qids[(int(oid)-1)%len(w.qids)]
		return msg.ContainmentReport{OID: oid, QID: qid, IsTarget: o.in}
	default:
		return w.cellChange(oid, o, r>>8)
	}
}

// cellChange moves the object to a neighboring cell (bouncing at the grid
// border) and returns the corresponding report.
func (w *Workload) cellChange(oid model.ObjectID, o *objState, r uint64) msg.Message {
	prev := o.cell
	dx := int(r%3) - 1
	dy := int(splitmix64(r)%3) - 1
	c := grid.CellID{Col: prev.Col + dx, Row: prev.Row + dy}
	if c.Col < 0 {
		c.Col = 1
	} else if c.Col >= w.G.Cols() {
		c.Col = w.G.Cols() - 2
	}
	if c.Row < 0 {
		c.Row = 1
	} else if c.Row >= w.G.Rows() {
		c.Row = w.G.Rows() - 2
	}
	o.cell = c
	o.pos = w.G.CellRect(c).Center()
	return msg.CellChangeReport{
		OID: oid, PrevCell: prev, NewCell: c,
		Pos: o.pos, Vel: o.vel, Tm: w.tm(o),
	}
}
