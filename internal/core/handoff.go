package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// focalSliceVersion versions the encoded focal-slice format carried by
// cluster Handoff frames (and used verbatim for in-process node transfers,
// so the byte-mediated path is what the differential oracle exercises).
const focalSliceVersion = uint16(1)

// focalSliceHeaderLen is the fixed prefix of a focal slice: version, oid,
// motion state (5 floats), max velocity, current cell, query count.
const focalSliceHeaderLen = 2 + 4 + 6*8 + 2*4 + 4

// encodeFocalSlice serializes a detached focal record — the FOT row plus
// every bound query's SQT row and result set — into the self-contained byte
// slice a Handoff frame carries. Query rows reuse the snapshot idiom: each
// is a length-prefixed wire-encoded QueryInstall holding one QueryState, so
// regions, filters and monitoring regions round-trip bit-exactly.
func encodeFocalSlice(rec focalRecord) []byte {
	fe := rec.fe
	// Size the buffer once: per query only the region's wire size and the
	// result count vary. One scratch slice serves every result's sort.
	size, maxRes := focalSliceHeaderLen, 0
	for _, e := range rec.entries {
		qi := msg.QueryInstall{Queries: []msg.QueryState{{Region: e.query.Region}}}
		size += 4 + qi.Size() + 8 + 4 + 4*len(e.result)
		maxRes = max(maxRes, len(e.result))
	}
	b := make([]byte, 0, size)
	res := make([]model.ObjectID, 0, maxRes)
	states := make([]msg.QueryState, 1)
	le := binary.LittleEndian
	u32 := func(v uint32) { b = le.AppendUint32(b, v) }
	f64 := func(v float64) { b = le.AppendUint64(b, math.Float64bits(v)) }
	b = le.AppendUint16(b, focalSliceVersion)
	u32(uint32(rec.oid))
	f64(fe.state.Pos.X)
	f64(fe.state.Pos.Y)
	f64(fe.state.Vel.X)
	f64(fe.state.Vel.Y)
	f64(float64(fe.state.Tm))
	f64(fe.maxVel)
	u32(uint32(int32(fe.currCell.Col)))
	u32(uint32(int32(fe.currCell.Row)))
	u32(uint32(len(fe.queries)))
	for i, qid := range fe.queries {
		e := rec.entries[i]
		states[0] = msg.QueryState{
			QID:         qid,
			Focal:       rec.oid,
			State:       fe.state,
			Region:      e.query.Region,
			Filter:      e.query.Filter,
			MonRegion:   e.monRegion,
			FocalMaxVel: fe.maxVel,
		}
		enc := wire.Encode(msg.QueryInstall{Queries: states})
		u32(uint32(len(enc)))
		b = append(b, enc...)
		f64(float64(e.expiry))
		res = res[:0]
		for oid := range e.result {
			res = append(res, oid)
		}
		sortOIDs(res)
		u32(uint32(len(res)))
		for _, oid := range res {
			u32(uint32(oid))
		}
	}
	return b
}

func sortOIDs(ids []model.ObjectID) { slices.Sort(ids) }

// cursor reads the little-endian encodings of focal slices and snapshots.
// Reading past the end sets a sticky error and yields zeros.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err == nil && n > len(c.b)-c.off {
		c.err = errors.New("core: truncated encoding")
	}
	if c.err != nil {
		return make([]byte, 8)
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

func (c *cursor) u32() uint32   { return binary.LittleEndian.Uint32(c.take(4)) }
func (c *cursor) f64() float64  { return math.Float64frombits(binary.LittleEndian.Uint64(c.take(8))) }
func (c *cursor) chunk() []byte { return c.take(int(c.u32())) }

// decodeQueryRecord decodes one query record of a focal slice or a
// snapshot's pending table: a wire QueryInstall holding exactly one query.
func decodeQueryRecord(raw []byte) (msg.QueryState, error) {
	m, err := wire.Decode(raw)
	if err != nil {
		return msg.QueryState{}, err
	}
	qi, ok := m.(msg.QueryInstall)
	if !ok || len(qi.Queries) != 1 {
		return msg.QueryState{}, errors.New("core: malformed query record")
	}
	return qi.Queries[0], nil
}

// decodeFocalSlice parses an encoded focal slice back into a detached focal
// record plus the motion state and grid cell it was extracted at. The
// record is ready for injectFocal.
func decodeFocalSlice(b []byte) (focalRecord, model.MotionState, grid.CellID, error) {
	fail := func(what string) (focalRecord, model.MotionState, grid.CellID, error) {
		return focalRecord{}, model.MotionState{}, grid.CellID{}, fmt.Errorf("core: focal slice: %s", what)
	}
	if len(b) < focalSliceHeaderLen {
		return fail("truncated header")
	}
	c := cursor{b: b}
	if v := binary.LittleEndian.Uint16(c.take(2)); v != focalSliceVersion {
		return fail(fmt.Sprintf("unsupported version %d", v))
	}
	rec := focalRecord{oid: model.ObjectID(c.u32())}
	var st model.MotionState
	st.Pos = geo.Pt(c.f64(), c.f64())
	st.Vel = geo.Vec(c.f64(), c.f64())
	st.Tm = model.Time(c.f64())
	maxVel := c.f64()
	cell := grid.CellID{Col: int(int32(c.u32())), Row: int(int32(c.u32()))}
	n := int(c.u32())
	if n > (len(b)-c.off)/4 {
		return fail("implausible query count")
	}
	fe := &fotEntry{state: st, maxVel: maxVel, currCell: cell}
	rec.fe = fe
	rec.entries = make([]*sqtEntry, 0, n)
	for i := 0; i < n; i++ {
		raw, expiry, nRes := c.chunk(), model.Time(c.f64()), int(c.u32())
		if c.err != nil || nRes > (len(b)-c.off)/4 {
			return fail("truncated query record")
		}
		qs, err := decodeQueryRecord(raw)
		if err != nil {
			return focalRecord{}, model.MotionState{}, grid.CellID{}, err
		}
		result := make(map[model.ObjectID]struct{}, nRes)
		for j := 0; j < nRes; j++ {
			result[model.ObjectID(c.u32())] = struct{}{}
		}
		fe.queries = append(fe.queries, qs.QID)
		rec.entries = append(rec.entries, &sqtEntry{
			query:     model.Query{ID: qs.QID, Focal: qs.Focal, Region: qs.Region, Filter: qs.Filter},
			currCell:  cell,
			monRegion: qs.MonRegion,
			result:    result,
			expiry:    expiry,
		})
	}
	if c.off != len(b) {
		return fail("trailing bytes")
	}
	return rec, st, cell, nil
}

var errNoFocal = errors.New("core: node does not own that focal object")

// focalRecord is a focal object's complete server-side state — its FOT row
// and the SQT rows of every query bound to it — detached from one node for
// handoff into another.
type focalRecord struct {
	oid model.ObjectID
	fe  *fotEntry
	// entries are the SQT rows of fe.queries, in the same order.
	entries []*sqtEntry
}

// extractFocal detaches oid's FOT row and every bound query from s's tables
// (SQT, RQI) without emitting any messages or charging any cost:
// moving rows between nodes is not a protocol event. The caller must know oid
// is present and re-inject the record elsewhere with injectFocal.
func (s *Server) extractFocal(oid model.ObjectID) focalRecord {
	fe := s.fot[oid]
	rec := focalRecord{oid: oid, fe: fe, entries: make([]*sqtEntry, 0, len(fe.queries))}
	for _, qid := range fe.queries {
		e := s.sqt[qid]
		s.rqiRemove(e, e.monRegion)
		delete(s.sqt, qid)
		rec.entries = append(rec.entries, e)
	}
	delete(s.fot, oid)
	s.markDirty(oid)
	return rec
}

// injectFocal installs a migrated focal record with the given motion state
// and current cell. The rows enter the tables as they left the source —
// same monitoring regions, uncharged — and nothing is sent, matching the
// serial OnFocalInfoResponse. With relocate set (a §3.5 cell crossing) every
// query is then relocated exactly as the serial server does it in-table, so
// a migrated relocation broadcasts and costs what a serial one does: the
// cells whose RQI membership changed, not the two whole regions re-indexed.
func (s *Server) injectFocal(rec focalRecord, st model.MotionState, cell grid.CellID, relocate bool) {
	fe := rec.fe
	fe.state = st
	fe.currCell = cell
	s.fot[rec.oid] = fe
	s.markDirty(rec.oid)
	for i, qid := range fe.queries {
		e := rec.entries[i]
		e.fe = fe
		e.currCell = cell
		s.sqt[qid] = e
		s.rqiAdd(e, e.monRegion)
	}
	if relocate {
		for _, e := range rec.entries {
			s.relocateQuery(e, cell)
		}
	}
}
