package core

import (
	"bufio"
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

// Snapshot format identifiers.
const (
	snapshotMagic   = "MOBS"
	snapshotVersion = uint16(1)
)

// snapQuery is one installed query in a snapshot: the wire QueryState
// carries everything describing the query (identity, focal motion state,
// region, filter, monitoring region).
type snapQuery struct {
	state  msg.QueryState
	expiry model.Time
	result []model.ObjectID // sorted
}

// snapPending is one installation still waiting on a FocalInfoRequest.
type snapPending struct {
	qid    model.QueryID
	query  model.Query
	maxVel float64
	expiry model.Time
}

// snapData is the durable state shared by both server implementations.
type snapData struct {
	nextQID model.QueryID
	queries []snapQuery // ascending by QID
	pending []snapPending
}

// writeSnapshot serializes d in the stable MOBS format.
func writeSnapshot(w io.Writer, d snapData) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU16 := func(v uint16) { var b [2]byte; le.PutUint16(b[:], v); bw.Write(b[:]) }
	writeU32 := func(v uint32) { var b [4]byte; le.PutUint32(b[:], v); bw.Write(b[:]) }
	writeU64 := func(v uint64) { var b [8]byte; le.PutUint64(b[:], v); bw.Write(b[:]) }
	writeF := func(v float64) { writeU64(math.Float64bits(v)) }
	writeBytes := func(b []byte) {
		writeU32(uint32(len(b)))
		bw.Write(b)
	}

	writeU16(snapshotVersion)
	writeU32(uint32(d.nextQID))

	writeU32(uint32(len(d.queries)))
	for _, q := range d.queries {
		writeBytes(wire.Encode(msg.QueryInstall{Queries: []msg.QueryState{q.state}}))
		writeF(float64(q.expiry))
		writeU32(uint32(len(q.result)))
		for _, oid := range q.result {
			writeU32(uint32(oid))
		}
	}

	writeU32(uint32(len(d.pending)))
	for _, p := range d.pending {
		writeU32(uint32(p.qid))
		writeU32(uint32(p.query.Focal))
		writeBytes(wire.Encode(msg.QueryInstall{Queries: []msg.QueryState{{
			QID:    p.qid,
			Focal:  p.query.Focal,
			Region: p.query.Region,
			Filter: p.query.Filter,
		}}}))
		writeF(p.maxVel)
		writeF(float64(p.expiry))
	}
	return bw.Flush()
}

// readSnapshot parses the MOBS format back into records.
func readSnapshot(r io.Reader) (snapData, error) {
	var d snapData
	br := bufio.NewReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return d, fmt.Errorf("core: reading snapshot magic: %w", err)
	}
	if string(head) != snapshotMagic {
		return d, errors.New("core: not a server snapshot")
	}
	le := binary.LittleEndian
	readU16 := func() (uint16, error) {
		var b [2]byte
		_, err := io.ReadFull(br, b[:])
		return le.Uint16(b[:]), err
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		_, err := io.ReadFull(br, b[:])
		return le.Uint32(b[:]), err
	}
	readF := func() (float64, error) {
		var b [8]byte
		_, err := io.ReadFull(br, b[:])
		return math.Float64frombits(le.Uint64(b[:])), err
	}
	readBytes := func() ([]byte, error) {
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if n > 1<<20 {
			return nil, fmt.Errorf("core: implausible snapshot chunk of %d bytes", n)
		}
		b := make([]byte, n)
		_, err = io.ReadFull(br, b)
		return b, err
	}
	readQueryState := func() (msg.QueryState, error) {
		raw, err := readBytes()
		if err != nil {
			return msg.QueryState{}, err
		}
		m, err := wire.Decode(raw)
		if err != nil {
			return msg.QueryState{}, err
		}
		qi, ok := m.(msg.QueryInstall)
		if !ok || len(qi.Queries) != 1 {
			return msg.QueryState{}, errors.New("core: malformed query record in snapshot")
		}
		return qi.Queries[0], nil
	}

	ver, err := readU16()
	if err != nil {
		return d, err
	}
	if ver != snapshotVersion {
		return d, fmt.Errorf("core: unsupported snapshot version %d", ver)
	}
	nextQID, err := readU32()
	if err != nil {
		return d, err
	}
	d.nextQID = model.QueryID(nextQID)

	nQueries, err := readU32()
	if err != nil {
		return d, err
	}
	for i := uint32(0); i < nQueries; i++ {
		var q snapQuery
		q.state, err = readQueryState()
		if err != nil {
			return d, fmt.Errorf("core: snapshot query %d: %w", i, err)
		}
		expiry, err := readF()
		if err != nil {
			return d, err
		}
		q.expiry = model.Time(expiry)
		nRes, err := readU32()
		if err != nil {
			return d, err
		}
		q.result = make([]model.ObjectID, 0, nRes)
		for j := uint32(0); j < nRes; j++ {
			oid, err := readU32()
			if err != nil {
				return d, err
			}
			q.result = append(q.result, model.ObjectID(oid))
		}
		d.queries = append(d.queries, q)
	}

	nPending, err := readU32()
	if err != nil {
		return d, err
	}
	for i := uint32(0); i < nPending; i++ {
		var p snapPending
		qidRaw, err := readU32()
		if err != nil {
			return d, err
		}
		focalRaw, err := readU32()
		if err != nil {
			return d, err
		}
		qs, err := readQueryState()
		if err != nil {
			return d, err
		}
		p.maxVel, err = readF()
		if err != nil {
			return d, err
		}
		expiry, err := readF()
		if err != nil {
			return d, err
		}
		p.qid = model.QueryID(qidRaw)
		p.expiry = model.Time(expiry)
		focal := model.ObjectID(focalRaw)
		p.query = model.Query{ID: p.qid, Focal: focal, Region: qs.Region, Filter: qs.Filter}
		d.pending = append(d.pending, p)
	}
	return d, nil
}

// snapshotData collects the server's durable state as records. Queries are
// ascending by QID, pending installs ascending by focal then arrival order.
func (s *Server) snapshotData() snapData {
	d := snapData{nextQID: s.nextQID}
	for _, qid := range s.QueryIDs() {
		e := s.sqt[qid]
		d.queries = append(d.queries, snapQuery{
			state:  e.wireState(),
			expiry: e.expiry,
			result: s.Result(qid),
		})
	}
	var pendingFocals []model.ObjectID
	for focal := range s.pending {
		pendingFocals = append(pendingFocals, focal)
	}
	sortOIDs(pendingFocals)
	for _, focal := range pendingFocals {
		for _, p := range s.pending[focal] {
			d.pending = append(d.pending, snapPending{
				qid:    p.qid,
				query:  p.query,
				maxVel: p.maxVel,
				expiry: s.expiries[p.qid],
			})
		}
	}
	return d
}

// Snapshot serializes the server's durable state: every installed query
// (identity, focal motion state, region, filter, monitoring region, expiry)
// and its current result set, plus the query-ID counter. The reverse query
// index and FOT are reconstructed on restore.
//
// A restored server resumes mediating exactly where the old one stopped —
// moving objects keep their LQTs and notice nothing. Pending installations
// (waiting on a FocalInfoRequest) are re-issued on restore.
func (s *Server) Snapshot(w io.Writer) error {
	return writeSnapshot(w, s.snapshotData())
}

// restoreQuery rebuilds one installed query's rows in s's FOT, SQT and RQI
// without any messaging: the moving objects still hold their LQTs.
func (s *Server) restoreQuery(q snapQuery) {
	qs := q.state
	fe, ok := s.fot[qs.Focal]
	if !ok {
		fe = &fotEntry{state: qs.State, currCell: s.g.CellOf(qs.State.Pos)}
		s.fot[qs.Focal] = fe
	}
	if qs.FocalMaxVel > fe.maxVel {
		fe.maxVel = qs.FocalMaxVel
	}
	fe.queries = insertSortedQID(fe.queries, qs.QID)
	s.markDirty(qs.Focal)
	result := make(map[model.ObjectID]struct{}, len(q.result))
	for _, oid := range q.result {
		result[oid] = struct{}{}
	}
	e := &sqtEntry{
		query:     model.Query{ID: qs.QID, Focal: qs.Focal, Region: qs.Region, Filter: qs.Filter},
		fe:        fe,
		currCell:  fe.currCell,
		monRegion: qs.MonRegion,
		result:    result,
		expiry:    q.expiry,
	}
	s.sqt[qs.QID] = e
	s.chargeRQI(s.rqiAdd(e, qs.MonRegion))
	if q.expiry != 0 {
		s.expiries[qs.QID] = q.expiry
	}
}

// RestoreServer rebuilds a server from a snapshot. The grid and options
// must match the snapshotting server's deployment. Pending installations
// re-issue their FocalInfoRequests through down.
func RestoreServer(g *grid.Grid, opts Options, down Downlink, r io.Reader) (*Server, error) {
	d, err := readSnapshot(r)
	if err != nil {
		return nil, err
	}
	s := NewServer(g, opts, down)
	s.nextQID = d.nextQID
	for _, q := range d.queries {
		s.restoreQuery(q)
	}
	for _, p := range d.pending {
		focal := p.query.Focal
		s.pending[focal] = append(s.pending[focal], pendingInstall{
			qid:    p.qid,
			query:  p.query,
			maxVel: p.maxVel,
		})
		if p.expiry != 0 {
			s.expiries[p.qid] = p.expiry
		}
		if len(s.pending[focal]) == 1 {
			s.unicast(focal, msg.FocalInfoRequest{OID: focal})
		}
	}
	return s, nil
}
