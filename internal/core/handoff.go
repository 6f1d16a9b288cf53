package core

import (
	"errors"
	"fmt"
	"slices"

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
	w := wire.NewWriter(make([]byte, 0, size))
	res := make([]model.ObjectID, 0, maxRes)
	states := make([]msg.QueryState, 1)
	w.U16(focalSliceVersion)
	w.OID(rec.oid)
	w.MotionState(fe.state)
	w.F64(fe.maxVel)
	w.Cell(fe.currCell)
	w.U32(uint32(len(fe.queries)))
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
		w.Blob(wire.Encode(msg.QueryInstall{Queries: states}))
		w.Time(e.expiry)
		res = res[:0]
		for oid := range e.result {
			res = append(res, oid)
		}
		sortOIDs(res)
		w.U32(uint32(len(res)))
		for _, oid := range res {
			w.OID(oid)
		}
	}
	return w.Bytes()
}

func sortOIDs(ids []model.ObjectID) { slices.Sort(ids) }

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
// record plus the motion state and grid cell it was extracted at. Every
// query is bound to the row's oid, whatever its record names (a canonical
// slice names the same one). The record is ready for injectFocal once
// checkFocalRecord accepts it.
func decodeFocalSlice(b []byte) (focalRecord, model.MotionState, grid.CellID, error) {
	fail := func(err error) (focalRecord, model.MotionState, grid.CellID, error) {
		return focalRecord{}, model.MotionState{}, grid.CellID{}, fmt.Errorf("core: focal slice: %w", err)
	}
	r := wire.NewReader(b)
	if v := r.U16(); r.Err() == nil && v != focalSliceVersion {
		return fail(fmt.Errorf("unsupported version %d", v))
	}
	rec := focalRecord{oid: r.OID()}
	st := r.MotionState()
	fe := &fotEntry{state: st, maxVel: r.F64(), currCell: r.Cell()}
	n := int(r.U32())
	if n > len(r.Rest())/4 {
		return fail(wire.ErrTruncated)
	}
	rec.fe = fe
	rec.entries = make([]*sqtEntry, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		raw, expiry := r.Blob(), r.Time()
		results := r.Raw(4 * int(r.U32()))
		if r.Err() != nil {
			break
		}
		qs, err := decodeQueryRecord(raw)
		if err != nil {
			return fail(err)
		}
		rr := wire.NewReader(results)
		result := make(map[model.ObjectID]struct{}, len(results)/4)
		for range len(results) / 4 {
			result[rr.OID()] = struct{}{}
		}
		fe.queries = append(fe.queries, qs.QID)
		rec.entries = append(rec.entries, &sqtEntry{
			query:     model.Query{ID: qs.QID, Focal: rec.oid, Region: qs.Region, Filter: qs.Filter},
			currCell:  fe.currCell,
			monRegion: qs.MonRegion,
			result:    result,
			expiry:    expiry,
		})
	}
	if err := r.Done(); err != nil {
		return fail(err)
	}
	return rec, st, fe.currCell, nil
}

// checkFocalRecord refuses a decoded focal slice that would corrupt the
// tables of a server on g: its cell and every monitoring region lie on g,
// it lists at least one query (a FOT row lives only as long as its
// queries), and its qids strictly ascend. Snapshot restore and handoff
// injection both run it.
func checkFocalRecord(g *grid.Grid, rec focalRecord) error {
	if !g.Valid(rec.fe.currCell) {
		return fmt.Errorf("focal %d: %v is off the grid", rec.oid, rec.fe.currCell)
	}
	if len(rec.entries) == 0 {
		return fmt.Errorf("focal %d lists no query", rec.oid)
	}
	for j, e := range rec.entries {
		if j > 0 && e.query.ID <= rec.entries[j-1].query.ID {
			return fmt.Errorf("focal %d: queries not strictly ascending", rec.oid)
		}
		if !g.Valid(e.monRegion.Min) || !g.Valid(e.monRegion.Max) {
			return fmt.Errorf("query %d: monitoring region %v is off the grid", e.query.ID, e.monRegion)
		}
	}
	return nil
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
