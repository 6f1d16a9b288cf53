package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// Population shared by every op-stream workload: 10,000 objects on a 50×50
// grid of α = 5 mile cells (≈4 objects per cell), circular queries of radius
// 1.5α. Objects 1..queries are focal, one query each.
const (
	numObjects  = 10000
	gridSide    = 50
	cellAlpha   = 5.0
	queryRadius = 1.5 * cellAlpha
	// focalMaxVel bounds the generated speeds (≤ 50 mph per axis).
	focalMaxVel = 75.0
)

// streamSpec is the traffic mix of one op stream. Two workloads with equal
// specs and seeds see byte-identical messages.
type streamSpec struct {
	queries int
	// focalOnly restricts the issuing objects to the focal ones.
	focalOnly bool
	// focalVelPct of a focal object's ops are VelocityReports, the rest
	// CellChangeReports; nonFocalCellPct of a non-focal object's ops are
	// CellChangeReports, the rest ContainmentReports.
	focalVelPct, nonFocalCellPct uint64
}

var (
	// mixStream is Table 1's population (10 % focal) with device-like
	// traffic: fewer than one op in ten causes a broadcast.
	mixStream = streamSpec{queries: 1000, focalVelPct: 60, nonFocalCellPct: 80}
	// focalStream has only focal objects talking, so every op broadcasts.
	focalStream = streamSpec{queries: 2500, focalOnly: true, focalVelPct: 70}
)

func uod() geo.Rect { return geo.NewRect(0, 0, gridSide*cellAlpha, gridSide*cellAlpha) }

// splitmix64 is the stream PRNG: every (seed, object, sequence) triple draws
// an independent value, so an object's messages do not depend on how the
// issuers interleave.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// object is one simulated device. It is only ever advanced by the issuer
// that owns it (oid mod issuers), which preserves per-object message order.
type object struct {
	pos  geo.Point
	vel  geo.Vector
	cell grid.CellID
	seq  uint64
	in   bool // last reported containment
}

// generator produces the deterministic op stream of one workload run. The
// program under test only ever sees the messages it returns.
type generator struct {
	spec streamSpec
	seed uint64
	g    *grid.Grid
	objs []object
}

func newGenerator(spec streamSpec, seed uint64) *generator {
	gen := &generator{spec: spec, seed: seed, g: grid.New(uod(), cellAlpha), objs: make([]object, numObjects)}
	side := gridSide * cellAlpha
	for i := range gen.objs {
		o := &gen.objs[i]
		r := splitmix64(seed ^ uint64(i+1)*0xD1342543DE82EF95)
		o.pos = geo.Pt(unit(r)*side, unit(splitmix64(r))*side)
		o.vel = randVel(splitmix64(r + 1))
		o.cell = gen.g.CellOf(o.pos)
	}
	return gen
}

// unit maps a draw to [0, 1).
func unit(r uint64) float64 { return float64(r>>11) / (1 << 53) }

func randVel(r uint64) geo.Vector {
	return geo.Vec(unit(r)*100-50, unit(splitmix64(r))*100-50)
}

func (gen *generator) isFocal(oid model.ObjectID) bool { return int(oid) <= gen.spec.queries }

// issuing returns the objects that issue ops, in canonical round-robin order.
func (gen *generator) issuing() []model.ObjectID {
	n := numObjects
	if gen.spec.focalOnly {
		n = gen.spec.queries
	}
	oids := make([]model.ObjectID, n)
	for i := range oids {
		oids[i] = model.ObjectID(i + 1)
	}
	return oids
}

// owned returns issuer k's share of the issuing objects (oid mod issuers),
// in canonical order.
func (gen *generator) owned(k, issuers int) []model.ObjectID {
	var own []model.ObjectID
	for _, oid := range gen.issuing() {
		if int(oid)%issuers == k {
			own = append(own, oid)
		}
	}
	return own
}

// tm is the object's protocol clock, strictly increasing per object.
func (o *object) tm() model.Time { return model.Time(float64(o.seq) * 1e-3) }

var noCell = grid.CellID{Col: -1, Row: -1}

// join is oid's first message: a cell change from no cell.
func (gen *generator) join(oid model.ObjectID) msg.Message {
	o := &gen.objs[oid-1]
	return msg.CellChangeReport{OID: oid, PrevCell: noCell, NewCell: o.cell, Pos: o.pos, Vel: o.vel, Tm: o.tm()}
}

// focalInfo answers the FocalInfoRequest of an installation on oid.
func (gen *generator) focalInfo(oid model.ObjectID) msg.Message {
	o := &gen.objs[oid-1]
	o.seq++
	return msg.FocalInfoResponse{OID: oid, Pos: o.pos, Vel: o.vel, Tm: o.tm()}
}

// next advances oid by one op and returns its message.
func (gen *generator) next(oid model.ObjectID) msg.Message {
	o := &gen.objs[oid-1]
	o.seq++
	r := splitmix64(gen.seed ^ uint64(oid)<<32 ^ o.seq)
	pick := r % 100
	r = splitmix64(r)
	if gen.isFocal(oid) {
		if pick < gen.spec.focalVelPct {
			o.vel = randVel(r)
			return msg.VelocityReport{OID: oid, Pos: o.pos, Vel: o.vel, Tm: o.tm()}
		}
		return gen.cellChange(oid, o, r)
	}
	if pick < gen.spec.nonFocalCellPct {
		return gen.cellChange(oid, o, r)
	}
	o.in = !o.in
	qid := model.QueryID((int(oid)-1)%gen.spec.queries + 1)
	return msg.ContainmentReport{OID: oid, QID: qid, IsTarget: o.in}
}

// cellChange moves the object to one of its eight neighbouring cells,
// reflecting at the border.
func (gen *generator) cellChange(oid model.ObjectID, o *object, r uint64) msg.Message {
	d := int(r % 8)
	if d >= 4 {
		d++ // skip (0, 0)
	}
	dx, dy := d%3-1, d/3-1
	prev := o.cell
	c := grid.CellID{Col: prev.Col + dx, Row: prev.Row + dy}
	if c.Col < 0 || c.Col >= gen.g.Cols() {
		c.Col = prev.Col - dx
	}
	if c.Row < 0 || c.Row >= gen.g.Rows() {
		c.Row = prev.Row - dy
	}
	o.cell = c
	o.pos = gen.g.CellRect(c).Center()
	return msg.CellChangeReport{OID: oid, PrevCell: prev, NewCell: c, Pos: o.pos, Vel: o.vel, Tm: o.tm()}
}

// record returns the first n ops of the canonical stream: round-robin over
// the issuing objects.
func (gen *generator) record(n int) []msg.Message {
	order := gen.issuing()
	ops := make([]msg.Message, n)
	for i := range ops {
		ops[i] = gen.next(order[i%len(order)])
	}
	return ops
}

// streamHash is the SHA-256 of the wire encoding of the first n ops of
// (spec, seed)'s canonical stream.
func streamHash(spec streamSpec, seed uint64, n int) string {
	h := sha256.New()
	for _, m := range newGenerator(spec, seed).record(n) {
		h.Write(wire.Encode(m))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkLegal reports the first protocol rule a message breaks given the
// object's state before it: a cell change must leave the object's current
// cell for a neighbouring one, and Tm must strictly increase.
func checkLegal(g *grid.Grid, cell grid.CellID, lastTm model.Time, m msg.Message) error {
	switch v := m.(type) {
	case msg.CellChangeReport:
		dx, dy := v.NewCell.Col-v.PrevCell.Col, v.NewCell.Row-v.PrevCell.Row
		switch {
		case v.PrevCell != cell:
			return fmt.Errorf("object %d: PrevCell %v is not its cell %v", v.OID, v.PrevCell, cell)
		case !g.Valid(v.NewCell) || dx < -1 || dx > 1 || dy < -1 || dy > 1 || (dx == 0 && dy == 0):
			return fmt.Errorf("object %d: %v -> %v is not a neighbouring move", v.OID, v.PrevCell, v.NewCell)
		case g.CellOf(v.Pos) != v.NewCell:
			return fmt.Errorf("object %d: position %v outside new cell %v", v.OID, v.Pos, v.NewCell)
		case v.Tm <= lastTm:
			return fmt.Errorf("object %d: Tm %v not after %v", v.OID, v.Tm, lastTm)
		}
	case msg.VelocityReport:
		if v.Tm <= lastTm {
			return fmt.Errorf("object %d: Tm %v not after %v", v.OID, v.Tm, lastTm)
		}
		if g.CellOf(v.Pos) != cell {
			return fmt.Errorf("object %d: position %v outside its cell %v", v.OID, v.Pos, cell)
		}
	case msg.ContainmentReport:
	default:
		return fmt.Errorf("unexpected %v in the op stream", m.Kind())
	}
	return nil
}
