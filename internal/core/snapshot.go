package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// A snapshot (MOBS v2, DESIGN.md §13 "Snapshots") is the magic, a u16
// version and the u32 query-ID counter; then the pending installations —
// u32 n, each u32 qid, u32 focal, u32 length + wire QueryInstall (identity,
// region, filter), f64 max velocity, f64 expiry — ascending by focal, then
// in arrival order; then the focal section — u32 n, then n × (u32 length +
// focal slice), ascending by oid, one slice per FOT row. The slices are the
// handoff encoding, so every installed query travels inside its focal's
// slice with its monitoring region, expiry and result set. All integers are
// little-endian.
const (
	snapshotMagic   = "MOBS"
	snapshotVersion = uint16(2)
)

// appendSnapshot appends a whole snapshot: header and pending section from
// the query book, then the focal section of focals.
func appendSnapshot(b []byte, book *queryBook, focals [][]byte) []byte {
	w := wire.NewWriter(b)
	w.Raw([]byte(snapshotMagic))
	w.U16(snapshotVersion)
	w.QID(book.next)
	recs := book.records()
	w.U32(uint32(len(recs)))
	for _, p := range recs {
		writePendingRecord(&w, p)
	}
	writeFocalSection(&w, focals)
	return w.Bytes()
}

func writePendingRecord(w *wire.Writer, p bookedInstall) {
	w.QID(p.qid)
	w.OID(p.query.Focal)
	w.Blob(wire.Encode(msg.QueryInstall{Queries: []msg.QueryState{{
		QID:    p.qid,
		Focal:  p.query.Focal,
		Region: p.query.Region,
		Filter: p.query.Filter,
	}}}))
	w.F64(p.maxVel)
	w.Time(p.expiry)
}

// writeFocalSection writes the focal section holding focals, which must be
// ascending by oid. A node's section is its NodeHandle.SnapshotData.
func writeFocalSection(w *wire.Writer, focals [][]byte) {
	w.U32(uint32(len(focals)))
	for _, f := range focals {
		w.Blob(f)
	}
}

// focalSlices encodes every FOT row of s, ascending by oid.
func (s *Server) focalSlices() [][]byte {
	oids := s.focalIDs()
	out := make([][]byte, len(oids))
	for i, oid := range oids {
		out[i] = s.encodeFocalState(oid)
	}
	return out
}

// Snapshot serializes the server's durable state: the query-ID counter,
// the pending installations and every FOT row as a focal slice, which
// carries the row's queries (identity, region, filter, monitoring region,
// expiry) and their result sets. A server restored from it resumes
// mediating exactly where this one stopped — the moving objects keep their
// LQTs and notice nothing; pending installations re-issue their
// FocalInfoRequests.
func (s *Server) Snapshot(w io.Writer) error {
	_, err := w.Write(appendSnapshot(nil, &s.book, s.focalSlices()))
	return err
}

// snapshot is a decoded, validated snapshot.
type snapshot struct {
	nextQID model.QueryID
	pending []bookedInstall
	focals  [][]byte // focal slices, ascending by oid
}

// splitFocalSection splits a focal section into its slices.
func splitFocalSection(b []byte) ([][]byte, error) {
	r := wire.NewReader(b)
	n := int(r.U32())
	if n > len(b)/4 {
		return nil, errors.New("core: implausible focal count in snapshot")
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		f := r.Blob()
		if r.Err() == nil && len(f) < focalSliceHeaderLen {
			return nil, errors.New("core: truncated focal slice in snapshot")
		}
		out = append(out, f)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: snapshot focal section: %w", err)
	}
	return out, nil
}

// readSnapshot reads a snapshot for grid g. A snapshot is outside input,
// so it is accepted only if restoring it builds tables that pass
// CheckInvariants and re-snapshot to the same bytes: every focal slice
// passes checkFocalRecord, oids strictly ascend, qids (pending ones
// included) are unique and below the counter, and each record is the
// canonical encoding of what it decodes to — query records agree with their
// focal row, results are sorted and unrepeated.
func readSnapshot(g *grid.Grid, r io.Reader) (snapshot, error) {
	var snap snapshot
	data, err := io.ReadAll(r)
	if err != nil {
		return snap, fmt.Errorf("core: reading snapshot: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return snap, errors.New("core: not a server snapshot")
	}
	c := wire.NewReader(data[len(snapshotMagic):])
	if v := c.U16(); c.Err() == nil && v != snapshotVersion {
		return snap, fmt.Errorf("core: unsupported snapshot version %d", v)
	}
	snap.nextQID = c.QID()
	if c.Err() == nil && snap.nextQID < 1 {
		return snap, fmt.Errorf("core: snapshot query counter %d is not positive", snap.nextQID)
	}
	seen := make(map[model.QueryID]bool)
	checkQID := func(qid model.QueryID) error {
		if qid < 1 || qid >= snap.nextQID {
			return fmt.Errorf("core: snapshot query %d outside [1, %d)", qid, snap.nextQID)
		}
		if seen[qid] {
			return fmt.Errorf("core: snapshot holds query %d twice", qid)
		}
		seen[qid] = true
		return nil
	}

	nPending := c.U32()
	for i := uint32(0); i < nPending && c.Err() == nil; i++ {
		start := c.Rest()
		qid, focal := c.QID(), c.OID()
		raw := c.Blob()
		maxVel, expiry := c.F64(), c.Time()
		if c.Err() != nil {
			break
		}
		qs, err := decodeQueryRecord(raw)
		if err != nil {
			return snap, fmt.Errorf("core: snapshot pending install %d: %w", qid, err)
		}
		p := bookedInstall{pendingInstall{qid, model.Query{ID: qid, Focal: focal, Region: qs.Region, Filter: qs.Filter}, maxVel}, expiry}
		if p.expiry == 0 {
			p.expiry = 0 // the book keeps no zero expiry, so −0 would come back as +0
		}
		var canon wire.Writer
		writePendingRecord(&canon, p)
		if !bytes.Equal(canon.Bytes(), start[:len(start)-len(c.Rest())]) {
			return snap, fmt.Errorf("core: snapshot pending install %d is not in canonical form", qid)
		}
		if k := len(snap.pending); k > 0 && focal < snap.pending[k-1].query.Focal {
			return snap, errors.New("core: snapshot pending installs not ascending by focal")
		}
		if err := checkQID(qid); err != nil {
			return snap, err
		}
		snap.pending = append(snap.pending, p)
	}
	if err := c.Err(); err != nil {
		return snap, fmt.Errorf("core: snapshot: %w", err)
	}

	if snap.focals, err = splitFocalSection(c.Rest()); err != nil {
		return snap, err
	}
	for i, f := range snap.focals {
		rec, _, _, err := decodeFocalSlice(f)
		if err != nil {
			return snap, fmt.Errorf("core: snapshot focal %d: %w", i, err)
		}
		if i > 0 && rec.oid <= sliceOID(snap.focals[i-1]) {
			return snap, fmt.Errorf("core: snapshot focal %d: oids not strictly ascending", rec.oid)
		}
		if err := checkFocalRecord(g, rec); err != nil {
			return snap, fmt.Errorf("core: snapshot %w", err)
		}
		for _, e := range rec.entries {
			if err := checkQID(e.query.ID); err != nil {
				return snap, err
			}
		}
		if !bytes.Equal(encodeFocalSlice(rec), f) {
			return snap, fmt.Errorf("core: snapshot focal %d is not in canonical form", rec.oid)
		}
	}
	return snap, nil
}

// RestoreServer rebuilds a server from a snapshot written by any server
// implementation. The grid and options must match the snapshotting
// deployment. Each focal slice is injected exactly as crash replay injects
// a journaled one — same monitoring regions, nothing sent, nothing charged
// — and pending installations re-issue their FocalInfoRequests through down.
func RestoreServer(g *grid.Grid, opts Options, down Downlink, r io.Reader) (*Server, error) {
	snap, err := readSnapshot(g, r)
	if err != nil {
		return nil, err
	}
	s := NewServer(g, opts, down)
	for _, f := range snap.focals {
		rec, st, cell, _ := decodeFocalSlice(f) // readSnapshot decoded it already
		s.injectFocal(rec, st, cell, false)
	}
	for _, focal := range s.book.restore(snap.nextQID, snap.pending) {
		s.unicast(focal, msg.FocalInfoRequest{OID: focal})
	}
	return s, nil
}
