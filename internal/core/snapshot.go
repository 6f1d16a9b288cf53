package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

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
	le := binary.LittleEndian
	b = append(b, snapshotMagic...)
	b = le.AppendUint16(b, snapshotVersion)
	b = le.AppendUint32(b, uint32(book.next))
	recs := book.records()
	b = le.AppendUint32(b, uint32(len(recs)))
	for _, p := range recs {
		b = appendPendingRecord(b, p)
	}
	return appendFocalSection(b, focals)
}

func appendPendingRecord(b []byte, p bookedInstall) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(p.qid))
	b = le.AppendUint32(b, uint32(p.query.Focal))
	enc := wire.Encode(msg.QueryInstall{Queries: []msg.QueryState{{
		QID:    p.qid,
		Focal:  p.query.Focal,
		Region: p.query.Region,
		Filter: p.query.Filter,
	}}})
	b = le.AppendUint32(b, uint32(len(enc)))
	b = append(b, enc...)
	b = le.AppendUint64(b, math.Float64bits(p.maxVel))
	return le.AppendUint64(b, math.Float64bits(float64(p.expiry)))
}

// appendFocalSection appends the focal section holding focals, which must
// be ascending by oid. A node's section is its NodeHandle.SnapshotData.
func appendFocalSection(b []byte, focals [][]byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(len(focals)))
	for _, f := range focals {
		b = le.AppendUint32(b, uint32(len(f)))
		b = append(b, f...)
	}
	return b
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
	c := cursor{b: b}
	n := int(c.u32())
	if n > len(b)/4 {
		return nil, errors.New("core: implausible focal count in snapshot")
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n && c.err == nil; i++ {
		f := c.chunk()
		if c.err == nil && len(f) < focalSliceHeaderLen {
			return nil, errors.New("core: truncated focal slice in snapshot")
		}
		out = append(out, f)
	}
	if c.err == nil && c.off != len(b) {
		return nil, errors.New("core: trailing bytes after snapshot")
	}
	return out, c.err
}

// readSnapshot reads a snapshot for grid g. A snapshot is outside input,
// so it is accepted only if restoring it builds tables that pass
// CheckInvariants and re-snapshot to the same bytes: cells and monitoring
// regions lie on g, oids strictly ascend, qids (pending ones included) are
// unique and below the counter, and each record is the canonical encoding
// of what it decodes to — query records agree with their focal row, results
// are sorted and unrepeated.
func readSnapshot(g *grid.Grid, r io.Reader) (snapshot, error) {
	var snap snapshot
	data, err := io.ReadAll(r)
	if err != nil {
		return snap, fmt.Errorf("core: reading snapshot: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return snap, errors.New("core: not a server snapshot")
	}
	c := cursor{b: data, off: len(snapshotMagic)}
	if v := binary.LittleEndian.Uint16(c.take(2)); c.err == nil && v != snapshotVersion {
		return snap, fmt.Errorf("core: unsupported snapshot version %d", v)
	}
	snap.nextQID = model.QueryID(c.u32())
	if c.err == nil && snap.nextQID < 1 {
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

	nPending := c.u32()
	for i := uint32(0); i < nPending && c.err == nil; i++ {
		start := c.off
		qid, focal := model.QueryID(c.u32()), model.ObjectID(c.u32())
		raw := c.chunk()
		maxVel, expiry := c.f64(), model.Time(c.f64())
		if c.err != nil {
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
		if !bytes.Equal(appendPendingRecord(nil, p), data[start:c.off]) {
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
	if c.err != nil {
		return snap, c.err
	}

	if snap.focals, err = splitFocalSection(data[c.off:]); err != nil {
		return snap, err
	}
	for i, f := range snap.focals {
		rec, _, cell, err := decodeFocalSlice(f)
		if err != nil {
			return snap, fmt.Errorf("core: snapshot focal %d: %w", i, err)
		}
		if i > 0 && rec.oid <= sliceOID(snap.focals[i-1]) {
			return snap, fmt.Errorf("core: snapshot focal %d: oids not strictly ascending", rec.oid)
		}
		if !g.Valid(cell) {
			return snap, fmt.Errorf("core: snapshot focal %d: %v is off the grid", rec.oid, cell)
		}
		if len(rec.entries) == 0 {
			// A FOT row lives only as long as its queries (CheckInvariants).
			return snap, fmt.Errorf("core: snapshot focal %d lists no query", rec.oid)
		}
		for j, e := range rec.entries {
			if j > 0 && e.query.ID <= rec.entries[j-1].query.ID {
				return snap, fmt.Errorf("core: snapshot focal %d: queries not strictly ascending", rec.oid)
			}
			if !g.Valid(e.monRegion.Min) || !g.Valid(e.monRegion.Max) {
				return snap, fmt.Errorf("core: snapshot query %d: monitoring region %v is off the grid", e.query.ID, e.monRegion)
			}
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
