package core

import (
	"fmt"
	"slices"

	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
)

// fotEntry is one row of the focal object table FOT = (oid, pos, vel, tm),
// §3.2, plus the focal object's maximum velocity (shipped to clients for
// safe-period computation) and the number of queries bound to the object.
type fotEntry struct {
	state    model.MotionState
	maxVel   float64
	queries  []model.QueryID // queries whose focal object this is, sorted
	currCell grid.CellID
}

// sqtEntry is one row of the server-side moving query table
// SQT = (qid, oid, region, curr_cell, mon_region, filter, {result}), §3.2.
type sqtEntry struct {
	query model.Query
	// fe is the FOT row of query.Focal — s.fot[query.Focal] by pointer, set
	// wherever a row enters the SQT — so building the query's wire state from
	// an RQI posting list needs no table look-up.
	fe        *fotEntry
	currCell  grid.CellID
	monRegion grid.CellRange
	result    map[model.ObjectID]struct{}
	// expiry is the time after which the query is uninstalled; zero means
	// no expiry. The paper's motivating queries carry durations ("during
	// next 2 hours", "during the next 20 minutes").
	expiry model.Time
}

// Server is the MobiEyes server: a mediator between moving objects that
// tracks significant position changes of focal objects and relays them to
// the monitoring regions of the affected queries.
type Server struct {
	sendPath
	g    *grid.Grid
	opts Options

	fot map[model.ObjectID]*fotEntry
	sqt map[model.QueryID]*sqtEntry
	// rqi is the reverse query index, indexed by grid cell index: per cell,
	// the posting list of the SQT rows whose monitoring region contains the
	// cell. Edits leave a list unordered; freshQueryStates puts a list back
	// in query-ID order when it reads it (DESIGN.md §13).
	rqi [][]*sqtEntry
	// rqiCount tracks the total number of (cell, query) entries across rqi,
	// maintained incrementally by rqiEdit so reporting it is O(1).
	rqiCount int
	// book holds the qid counter and the installs pending on a
	// FocalInfoRequest; it stays empty on a router node.
	book queryBook

	// dirty holds the focal oids whose encoded slice (encodeFocalState) may
	// have changed since the last NodeServer.CheckpointDelta pull — marked
	// wherever an FOT row, a bound SQT row or a result set is written. nil
	// means not tracking: nothing has pulled a checkpoint from this server,
	// marking costs a nil check, and the first pull is a full scan that
	// starts tracking (DESIGN.md §15).
	dirty map[model.ObjectID]struct{}

	// onResult, when set, receives every differential result change.
	onResult func(ResultEvent)

	// ops counts elementary server-side operations (table updates, RQI
	// touches, broadcasts); a deterministic proxy for server load used by
	// tests, complementing the wall-clock measurement of the experiments.
	// It is an obs counter (atomic underneath) so Instrument can expose the
	// same counter over /metrics and scrapes never race dispatch. upl counts
	// uplink messages dispatched through HandleUplink.
	ops *obs.Counter
	upl *obs.Counter

	// obsm is the optional extended instrumentation (latency histograms,
	// broadcast metrics), attached by Instrument; nil means uninstrumented.
	obsm *serverObs

	// Causal tracing (see internal/obs/trace and DESIGN.md §11): sendPath's
	// rec is the flight recorder attached by SetTracer; actor names this
	// server in events ("server", or "nodeN" under the router). curTrace is
	// the trace ID of the dispatch in flight; owned by the single dispatch
	// goroutine (or the router lock when running as a node). sendPath's
	// acct is the cost accountant attached by SetAccountant: table work and
	// RQI touches are charged as computation units, and the broadcast and
	// unicast funnels attribute traffic per query/object (DESIGN.md §12).
	actor    string
	curTrace trace.ID

	// freshBuf is the scratch every QueryInstall and LQP VelocityChange
	// state list is built in: the downlink borrows it for the duration of
	// one send (see Downlink), so a send allocates no list. No two sends
	// overlap, so one buffer serves them all. Owned, like curTrace, by
	// whoever serializes dispatch.
	freshBuf []msg.QueryState
}

// NewServer returns a MobiEyes server over grid g, sending through down.
func NewServer(g *grid.Grid, opts Options, down Downlink) *Server {
	return &Server{
		sendPath: sendPath{down: down},
		g:        g,
		opts:     opts,
		fot:      make(map[model.ObjectID]*fotEntry),
		sqt:      make(map[model.QueryID]*sqtEntry),
		rqi:      make([][]*sqtEntry, g.NumCells()),
		book:     newQueryBook(),
		ops:      obs.NewCounter(),
		upl:      obs.NewCounter(),
	}
}

// Ops returns the cumulative deterministic operation count.
func (s *Server) Ops() int64 { return s.ops.Value() }

// SetAccountant attaches a cost accountant (nil = off; the default). See the
// acct field and internal/obs/cost for what is attributed where.
func (s *Server) SetAccountant(a *cost.Accountant) {
	s.acct = a
	a.SetMode(s.opts.Mode.String())
}

// NumQueries returns the number of installed queries.
func (s *Server) NumQueries() int { return len(s.sqt) }

// markDirty records that oid's encoded focal slice may have changed.
func (s *Server) markDirty(oid model.ObjectID) {
	if s.dirty != nil {
		s.dirty[oid] = struct{}{}
	}
}

// InstallQuery starts installation of a moving query (§3.3). The request
// is the paper's (oid, region, filter) triple plus the focal object's
// maximum velocity. The returned query identifier is assigned immediately;
// if the focal object is not yet in the FOT, installation completes
// asynchronously once the focal object answers the server's
// FocalInfoRequest.
func (s *Server) InstallQuery(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64) model.QueryID {
	return s.InstallQueryUntil(focal, region, filter, focalMaxVel, 0)
}

// InstallQueryUntil installs a query that expires at the given time — the
// duration-bound form of the paper's motivating examples ("give me … during
// the next 2 hours"). ExpireQueries removes it once the deadline passes; a
// zero expiry means none, as for InstallQuery.
func (s *Server) InstallQueryUntil(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64, expiry model.Time) model.QueryID {
	qid := s.book.mint()
	root := s.beginRoot(focal, qid, "InstallQuery")
	defer s.endRoot(root)
	q := model.Query{ID: qid, Focal: focal, Region: region, Filter: filter}
	if _, ok := s.fot[focal]; ok {
		s.completeInstall(qid, q, focalMaxVel, expiry)
		s.syncTableGauges()
		return qid
	}
	// §3.3 step 3: the focal object is unknown — request its motion state.
	if s.book.park(pendingInstall{qid, q, focalMaxVel}, expiry) {
		s.unicast(focal, msg.FocalInfoRequest{OID: focal})
	}
	s.ops.Add(1)
	return qid
}

// ExpireQueries removes every query whose expiry has passed and returns the
// removed identifiers (sorted). Call it with the current time whenever the
// clock advances; the engines do so once per step.
func (s *Server) ExpireQueries(now model.Time) []model.QueryID {
	root := s.beginRoot(0, 0, "ExpireQueries")
	defer s.endRoot(root)
	expired := append(s.dueInstalled(now), s.book.due(now)...)
	slices.Sort(expired)
	for _, qid := range expired {
		s.RemoveQuery(qid)
	}
	return expired
}

// dueInstalled returns the installed queries whose expiry is set and at or
// before now, unsorted.
func (s *Server) dueInstalled(now model.Time) []model.QueryID {
	var due []model.QueryID
	for qid, e := range s.sqt {
		if e.expiry != 0 && e.expiry <= now {
			due = append(due, qid)
		}
	}
	return due
}

// OnFocalInfoResponse receives a prospective focal object's motion state
// and completes any pending installations for it. A response with nothing
// to complete and no FOT row to refresh is stale — the installs it answers
// were removed, expired or departed since — and is ignored: a row without
// queries would let a later install complete from its old state.
func (s *Server) OnFocalInfoResponse(m msg.FocalInfoResponse) {
	if _, focal := s.fot[m.OID]; !focal && !s.book.waiting(m.OID) {
		return
	}
	s.upsertFocal(m.OID, model.MotionState{Pos: m.Pos, Vel: m.Vel, Tm: m.Tm})
	for _, p := range s.book.take(m.OID) {
		s.completeInstall(p.qid, p.query, p.maxVel, p.expiry)
	}
}

// upsertFocal creates or refreshes the FOT entry for oid from a reported
// motion state, recomputing curr_cell from the position.
func (s *Server) upsertFocal(oid model.ObjectID, st model.MotionState) *fotEntry {
	fe, ok := s.fot[oid]
	if ok {
		fe.state = st
		fe.currCell = s.g.CellOf(st.Pos)
	} else {
		fe = &fotEntry{state: st, currCell: s.g.CellOf(st.Pos)}
		s.fot[oid] = fe
	}
	s.markDirty(oid)
	s.ev(trace.KindTable, oid, 0, "FOT upsert")
	s.ops.Add(1)
	s.acct.Compute(cost.UnitTableOp, 1)
	return fe
}

// completeInstall performs §3.3 steps 2 and 4: create the SQT entry (with
// its expiry; zero means none), index it in the RQI, notify the focal
// object, and broadcast the query to its monitoring region.
func (s *Server) completeInstall(qid model.QueryID, q model.Query, focalMaxVel float64, expiry model.Time) {
	fe := s.fot[q.Focal]
	if focalMaxVel > fe.maxVel {
		fe.maxVel = focalMaxVel
	}
	fe.queries = insertSortedQID(fe.queries, qid)
	s.markDirty(q.Focal)

	currCell := fe.currCell
	monRegion := s.g.MonitoringRegion(currCell, q.Region.EnclosingRadius())
	e := &sqtEntry{
		query:     q,
		fe:        fe,
		currCell:  currCell,
		monRegion: monRegion,
		result:    make(map[model.ObjectID]struct{}),
		expiry:    expiry,
	}
	s.sqt[qid] = e
	s.chargeRQI(s.rqiAdd(e, monRegion))
	s.ev(trace.KindTable, q.Focal, qid, "SQT insert")

	// Tell the object it is now focal (sets hasMQ)…
	s.unicast(q.Focal, msg.FocalNotify{OID: q.Focal, QID: qid, Install: true})
	// …and ship the query to every object in the monitoring region.
	s.broadcast(monRegion, msg.QueryInstall{Queries: s.lendState(e)})
	s.ops.Add(3)
	s.acct.Compute(cost.UnitTableOp, 1)
}

// RemoveQuery uninstalls a query: it is dropped from SQT and RQI, the
// monitoring region is told to forget it, and the focal object's hasMQ is
// cleared when its last query goes away.
func (s *Server) RemoveQuery(qid model.QueryID) bool {
	e, ok := s.sqt[qid]
	if !ok {
		// A query still waiting on its focal leaves the book, so a late
		// FocalInfoResponse no longer installs it.
		return s.book.drop(qid)
	}
	s.removeQuery(e)
	return true
}

// removeQuery uninstalls the installed query e — RemoveQuery without the
// book, which is all a router node runs.
func (s *Server) removeQuery(e *sqtEntry) {
	qid := e.query.ID
	root := s.beginRoot(e.query.Focal, qid, "RemoveQuery")
	defer s.endRoot(root)
	for _, oid := range s.Result(qid) {
		s.notifyResult(qid, oid, false)
	}
	s.chargeRQI(s.rqiRemove(e, e.monRegion))
	delete(s.sqt, qid)
	fe := s.fot[e.query.Focal]
	fe.queries = removeSortedQID(fe.queries, qid)
	s.markDirty(e.query.Focal)
	s.ev(trace.KindTable, e.query.Focal, qid, "SQT delete")
	s.broadcast(e.monRegion, msg.QueryRemove{QIDs: []model.QueryID{qid}})
	if len(fe.queries) == 0 {
		s.unicast(e.query.Focal, msg.FocalNotify{OID: e.query.Focal, QID: qid, Install: false})
		delete(s.fot, e.query.Focal)
	}
	s.ops.Add(3)
	s.acct.Compute(cost.UnitTableOp, 1)
	s.syncTableGauges()
}

// OnVelocityReport handles a focal object's significant velocity-vector
// change (§3.4): update the FOT, then relay the new motion state to the
// monitoring region of every query bound to the object. With grouping on,
// queries sharing a monitoring region share one broadcast; under lazy
// propagation the broadcast carries full query state.
func (s *Server) OnVelocityReport(m msg.VelocityReport) {
	fe, ok := s.fot[m.OID]
	if !ok {
		return // not a focal object (stale report after query removal)
	}
	fe.state = model.MotionState{Pos: m.Pos, Vel: m.Vel, Tm: m.Tm}
	s.markDirty(m.OID)
	s.ev(trace.KindTable, m.OID, 0, "FOT refresh")
	s.ops.Add(1)
	s.acct.Compute(cost.UnitTableOp, 1)
	s.relayFocalState(fe)
}

// relayFocalState broadcasts fe's current motion state to the monitoring
// regions of its queries.
func (s *Server) relayFocalState(fe *fotEntry) {
	if len(fe.queries) == 0 {
		return
	}
	focal := s.sqt[fe.queries[0]].query.Focal
	if s.opts.Grouping {
		// One broadcast per distinct monitoring region (§4.1: MQs with
		// matching monitoring regions are grouped).
		for _, group := range s.groupsByMonRegion(fe) {
			s.broadcastVelocityChange(focal, fe, group)
		}
	} else {
		for _, qid := range fe.queries {
			s.broadcastVelocityChange(focal, fe, []model.QueryID{qid})
		}
	}
}

// broadcastVelocityChange sends one VelocityChange covering the given
// queries (all bound to focal, all with the same monitoring region).
func (s *Server) broadcastVelocityChange(focal model.ObjectID, fe *fotEntry, qids []model.QueryID) {
	region := s.sqt[qids[0]].monRegion
	vc := msg.VelocityChange{Focal: focal, State: fe.state}
	if s.opts.Mode == LazyPropagation {
		// §3.5: expand the notification with region and filter so objects
		// that changed cells silently can self-install.
		states := s.freshBuf[:0]
		for _, qid := range qids {
			states = append(states, s.sqt[qid].wireState())
		}
		s.freshBuf, vc.Queries = states, states
	}
	s.broadcast(region, vc)
	s.ops.Add(1)
}

// groupsByMonRegion partitions fe's queries into groups with identical
// monitoring regions, each group sorted by query ID. Ordering is
// deterministic: groups appear in ascending order of their smallest QID.
func (s *Server) groupsByMonRegion(fe *fotEntry) [][]model.QueryID {
	var groups [][]model.QueryID
	byRegion := make(map[grid.CellRange]int)
	for _, qid := range fe.queries { // fe.queries is sorted
		r := s.sqt[qid].monRegion
		if gi, ok := byRegion[r]; ok {
			groups[gi] = append(groups[gi], qid)
		} else {
			byRegion[r] = len(groups)
			groups = append(groups, []model.QueryID{qid})
		}
	}
	return groups
}

// OnCellChangeReport handles an object crossing into a new grid cell
// (§3.5). For focal objects the affected queries' monitoring regions are
// recomputed and re-broadcast; for non-focal objects (eager propagation)
// the server ships the newly relevant queries one-to-one.
func (s *Server) OnCellChangeReport(m msg.CellChangeReport) {
	// An invalid previous cell marks a (re)join: the object is about to
	// re-report its containment status from scratch, so any result entry it
	// still occupies is stale and must be dropped first (a report lost while
	// the object was disconnected would otherwise survive forever).
	if !s.g.Valid(m.PrevCell) {
		s.clearObjectFromResults(m.OID)
	}
	// The report carries the object's motion state; if installs are pending
	// on this object (its FocalInfoRequest may have been lost in transit),
	// complete them from the piggybacked state.
	if s.book.waiting(m.OID) {
		s.OnFocalInfoResponse(msg.FocalInfoResponse{OID: m.OID, Pos: m.Pos, Vel: m.Vel, Tm: m.Tm})
	}
	s.focalCellChange(m.OID, model.MotionState{Pos: m.Pos, Vel: m.Vel, Tm: m.Tm}, m.NewCell)
	// Ship the newly nearby queries. Under eager propagation every object
	// reports cell changes and receives this; under lazy propagation only
	// focal objects report, and they get the same treatment for free.
	s.sendNewNearbyQueries(m.OID, m.PrevCell, m.NewCell)
	s.ops.Add(1)
}

// clearObjectFromResults drops oid from every query result, with leave
// notifications — the server side of the rejoin handshake.
func (s *Server) clearObjectFromResults(oid model.ObjectID) {
	s.departSweep(oid)
	s.ops.Add(1)
}

// departSweep drops oid from every query result, with leave notifications.
func (s *Server) departSweep(oid model.ObjectID) {
	for qid, e := range s.sqt {
		if _, in := e.result[oid]; in {
			delete(e.result, oid)
			s.notifyResult(qid, oid, false)
		}
	}
}

// departFocal removes every query oid is the focal of, and its FOT row, and
// returns the removed qids.
func (s *Server) departFocal(oid model.ObjectID) []model.QueryID {
	fe, ok := s.fot[oid]
	if !ok {
		return nil
	}
	// removeQuery mutates fe.queries; iterate over a copy.
	qids := slices.Clone(fe.queries)
	for _, qid := range qids {
		s.removeQuery(s.sqt[qid])
	}
	delete(s.fot, oid)
	s.markDirty(oid)
	return qids
}

// focalCellChange applies a focal object's move to newCell: the FOT row is
// refreshed and every bound query relocated; a non-focal oid is a no-op.
// NodeServer.FocalCellChange enters here directly.
func (s *Server) focalCellChange(oid model.ObjectID, st model.MotionState, newCell grid.CellID) {
	fe, ok := s.fot[oid]
	if !ok {
		return
	}
	fe.state = st
	fe.currCell = newCell
	s.markDirty(oid)
	for _, qid := range fe.queries {
		s.relocateQuery(s.sqt[qid], newCell)
	}
}

// relocateQuery updates one query after its focal object moved to newCell:
// the SQT row is refreshed, the RQI changes only in the cells the monitoring
// region left or entered, and the union of old and new monitoring regions
// receives the query's new state (§3.5).
func (s *Server) relocateQuery(e *sqtEntry, newCell grid.CellID) {
	oldRegion := e.monRegion
	newRegion := s.g.MonitoringRegion(newCell, e.query.Region.EnclosingRadius())
	e.currCell = newCell
	if newRegion != oldRegion {
		s.chargeRQI(s.rqiMove(e, oldRegion, newRegion))
		e.monRegion = newRegion
		s.ev(trace.KindTable, e.query.Focal, e.query.ID, "RQI relocate")
	}
	s.broadcast(oldRegion.Union(newRegion), msg.QueryInstall{Queries: s.lendState(e)})
	s.ops.Add(2)
	s.acct.Compute(cost.UnitTableOp, 1)
}

// sendNewNearbyQueries computes RQI(newCell) \ RQI(prevCell) and sends those
// queries to the object one-to-one, in the lent s.freshBuf.
func (s *Server) sendNewNearbyQueries(oid model.ObjectID, prevCell, newCell grid.CellID) {
	s.freshBuf = s.freshQueryStates(s.freshBuf[:0], prevCell, newCell)
	if len(s.freshBuf) == 0 {
		return
	}
	s.unicast(oid, msg.QueryInstall{Queries: s.freshBuf})
	s.ops.Add(1)
}

// lendState returns e's wire state as a one-element list in s.freshBuf,
// for a send that lends it (see Downlink).
func (s *Server) lendState(e *sqtEntry) []msg.QueryState {
	s.freshBuf = append(s.freshBuf[:0], e.wireState())
	return s.freshBuf
}

// freshQueryStates appends to dst the wire states of RQI(newCell) \
// RQI(prevCell), ascending by query ID — the queries an object entering
// newCell from prevCell has not seen yet. The router collects this across
// nodes.
//
// A row of RQI(newCell) is in RQI(prevCell) exactly when its monitoring
// region contains prevCell (the RQI ↔ SQT agreement CheckInvariants
// enforces), so the difference is one pass over one posting list; an invalid
// prevCell (a rejoin) is in no cell's list. The list is sorted in place
// first, so the pass runs in query-ID order.
func (s *Server) freshQueryStates(dst []msg.QueryState, prevCell, newCell grid.CellID) []msg.QueryState {
	if !s.g.Valid(newCell) {
		return dst
	}
	rejoin := !s.g.Valid(prevCell)
	list := s.rqi[s.g.CellIndex(newCell)]
	sortRows(list)
	for _, e := range list {
		if rejoin || !e.monRegion.Contains(prevCell) {
			dst = append(dst, e.wireState())
		}
	}
	return dst
}

// sortRows insertion-sorts rows ascending by query ID: rows already in
// order cost one comparison each, and a row an edit put out of place costs
// one move per row it passes.
func sortRows(rows []*sqtEntry) {
	for i := 1; i < len(rows); i++ {
		e, j := rows[i], i
		for ; j > 0 && rows[j-1].query.ID > e.query.ID; j-- {
			rows[j] = rows[j-1]
		}
		rows[j] = e
	}
}

// OnContainmentReport applies a differential result update (§3.6).
func (s *Server) OnContainmentReport(m msg.ContainmentReport) {
	e, ok := s.sqt[m.QID]
	if !ok {
		return
	}
	if m.IsTarget {
		if _, had := e.result[m.OID]; !had {
			e.result[m.OID] = struct{}{}
			s.notifyResult(m.QID, m.OID, true)
		}
	} else if _, had := e.result[m.OID]; had {
		delete(e.result, m.OID)
		s.notifyResult(m.QID, m.OID, false)
	}
	s.ops.Add(1)
	s.acct.Compute(cost.UnitTableOp, 1)
}

// OnGroupContainmentReport applies a grouped result update: one bitmap bit
// per query in the group (§4.1). A group is keyed by its focal object, so a
// listed query with another focal is ignored.
func (s *Server) OnGroupContainmentReport(m msg.GroupContainmentReport) {
	for i, qid := range m.QIDs {
		e, ok := s.sqt[qid]
		if !ok || e.query.Focal != m.Focal {
			continue
		}
		if m.Bitmap.Get(i) {
			if _, had := e.result[m.OID]; !had {
				e.result[m.OID] = struct{}{}
				s.notifyResult(qid, m.OID, true)
			}
		} else if _, had := e.result[m.OID]; had {
			delete(e.result, m.OID)
			s.notifyResult(qid, m.OID, false)
		}
	}
	s.ops.Add(int64(len(m.QIDs)))
	s.acct.Compute(cost.UnitTableOp, int64(len(m.QIDs)))
}

// OnDepartureReport handles an object leaving the system: it is dropped
// from every query result (with leave notifications) and every query it was
// focal of is removed.
func (s *Server) OnDepartureReport(m msg.DepartureReport) {
	s.departSweep(m.OID)
	s.departFocal(m.OID)
	s.book.depart(m.OID)
	s.ops.Add(1)
}

// HandleUplink dispatches any uplink message to its handler. It panics on
// message kinds the MobiEyes server does not consume (such as the naïve
// baseline's position reports), which would indicate miswired transports.
// Every dispatch is counted; when instrumented, the table-size gauges are
// refreshed afterwards. Timing an uplink is its transport's job.
func (s *Server) HandleUplink(m msg.Message) { s.HandleUplinkTraced(m, 0) }

// HandleUplinkTraced is HandleUplink with an inbound trace ID: this is the
// uplink ingress point of the tracing layer. A zero tid starts a fresh
// trace when a recorder is attached (and stays zero — fully untraced —
// when not); everything the dispatch causes (table mutations, broadcasts,
// result flips) is tagged with the resulting ID.
func (s *Server) HandleUplinkTraced(m msg.Message, tid trace.ID) {
	s.upl.Add(1)
	if s.acct != nil || s.rec != nil {
		tid = uplinkIngress(m, tid, s.actor, s.acct, s.rec)
	}
	prev := s.curTrace
	s.curTrace = tid
	s.dispatchUplink(m)
	s.curTrace = prev
	s.syncTableGauges()
}

func (s *Server) dispatchUplink(m msg.Message) {
	switch mm := m.(type) {
	case msg.VelocityReport:
		s.OnVelocityReport(mm)
	case msg.CellChangeReport:
		s.OnCellChangeReport(mm)
	case msg.ContainmentReport:
		s.OnContainmentReport(mm)
	case msg.GroupContainmentReport:
		s.OnGroupContainmentReport(mm)
	case msg.FocalInfoResponse:
		s.OnFocalInfoResponse(mm)
	case msg.DepartureReport:
		s.OnDepartureReport(mm)
	default:
		panic(fmt.Sprintf("core: server cannot handle %v", m.Kind()))
	}
}

// Result returns the current result set of a query as a sorted slice, or
// nil if the query is unknown.
func (s *Server) Result(qid model.QueryID) []model.ObjectID {
	e, ok := s.sqt[qid]
	if !ok {
		return nil
	}
	out := make([]model.ObjectID, 0, len(e.result))
	for oid := range e.result {
		out = append(out, oid)
	}
	sortOIDs(out)
	return out
}

// ResultContains reports whether oid is currently in qid's result.
func (s *Server) ResultContains(qid model.QueryID, oid model.ObjectID) bool {
	e, ok := s.sqt[qid]
	if !ok {
		return false
	}
	_, in := e.result[oid]
	return in
}

// ResultSize returns |result| for a query (0 for unknown queries).
func (s *Server) ResultSize(qid model.QueryID) int {
	e, ok := s.sqt[qid]
	if !ok {
		return 0
	}
	return len(e.result)
}

// QueryIDs returns all installed query IDs in ascending order.
func (s *Server) QueryIDs() []model.QueryID {
	out := make([]model.QueryID, 0, len(s.sqt))
	for qid := range s.sqt {
		out = append(out, qid)
	}
	slices.Sort(out)
	return out
}

// Query returns the descriptor of an installed query.
func (s *Server) Query(qid model.QueryID) (model.Query, bool) {
	e, ok := s.sqt[qid]
	if !ok {
		return model.Query{}, false
	}
	return e.query, true
}

// MonRegion returns the current monitoring region of a query.
func (s *Server) MonRegion(qid model.QueryID) (grid.CellRange, bool) {
	e, ok := s.sqt[qid]
	if !ok {
		return grid.CellRange{}, false
	}
	return e.monRegion, true
}

// NearbyQueries returns RQI(cell): the queries whose monitoring regions
// intersect the given cell, ascending.
func (s *Server) NearbyQueries(cell grid.CellID) []model.QueryID {
	if !s.g.Valid(cell) {
		return nil
	}
	list := s.rqi[s.g.CellIndex(cell)]
	out := make([]model.QueryID, len(list))
	for i, e := range list {
		out[i] = e.query.ID
	}
	slices.Sort(out)
	return out
}

// wireState builds the wire representation of a query for clients.
func (e *sqtEntry) wireState() msg.QueryState {
	return msg.QueryState{
		QID:         e.query.ID,
		Focal:       e.query.Focal,
		State:       e.fe.state,
		Region:      e.query.Region,
		Filter:      e.query.Filter,
		MonRegion:   e.monRegion,
		FocalMaxVel: e.fe.maxVel,
	}
}

// noCells is the empty cell range: it contains nothing and iterates nothing.
var noCells = grid.CellRange{Min: grid.CellID{Col: 0, Row: 0}, Max: grid.CellID{Col: -1, Row: -1}}

// rqiAdd indexes e under every cell of region; rqiRemove drops it from them;
// rqiMove re-indexes e from one monitoring region to another, touching only
// the posting lists of from ∖ to and to ∖ from. All three return the number
// of cells whose membership changed and charge nothing: see chargeRQI.
func (s *Server) rqiAdd(e *sqtEntry, region grid.CellRange) int {
	return s.rqiEdit(e, region, noCells, true)
}

func (s *Server) rqiRemove(e *sqtEntry, region grid.CellRange) int {
	return s.rqiEdit(e, region, noCells, false)
}

func (s *Server) rqiMove(e *sqtEntry, from, to grid.CellRange) int {
	return s.rqiEdit(e, from, to, false) + s.rqiEdit(e, to, from, true)
}

// rqiEdit adds e to (add) or deletes it from the posting list of every
// valid cell of in ∖ out, and returns how many lists changed. An edit keeps
// no order: an add appends, because every caller adds a row that is absent —
// a fresh or decoded row, or one moving into to ∖ from — and a delete finds
// the row by identity and fills its slot with the list's last.
func (s *Server) rqiEdit(e *sqtEntry, in, out grid.CellRange, add bool) int {
	changed := 0
	for row := in.Min.Row; row <= in.Max.Row; row++ {
		for col := in.Min.Col; col <= in.Max.Col; col++ {
			c := grid.CellID{Col: col, Row: row}
			if out.Contains(c) || !s.g.Valid(c) {
				continue
			}
			list := &s.rqi[s.g.CellIndex(c)]
			if add {
				*list = append(*list, e)
				s.rqiCount++
				changed++
			} else if i := slices.Index(*list, e); i >= 0 {
				last := len(*list) - 1
				(*list)[i] = (*list)[last]
				(*list)[last] = nil
				*list = (*list)[:last]
				s.rqiCount--
				changed++
			}
		}
	}
	return changed
}

// chargeRQI charges n RQI touches to the ops counter and the cost ledger. A
// touch is one monitoring-region cell that changed membership — gained or
// lost a query — because of a protocol event (install, removal, §3.5
// relocation); moving rows between nodes re-indexes them uncharged.
func (s *Server) chargeRQI(n int) {
	s.ops.Add(int64(n))
	s.acct.Compute(cost.UnitRQITouch, int64(n))
}

// focalIDs returns the oids of every FOT row, ascending.
func (s *Server) focalIDs() []model.ObjectID {
	out := make([]model.ObjectID, 0, len(s.fot))
	for oid := range s.fot {
		out = append(out, oid)
	}
	sortOIDs(out)
	return out
}

func insertSortedQID(qs []model.QueryID, qid model.QueryID) []model.QueryID {
	i, _ := slices.BinarySearch(qs, qid)
	return slices.Insert(qs, i, qid)
}

func removeSortedQID(qs []model.QueryID, qid model.QueryID) []model.QueryID {
	if i, ok := slices.BinarySearch(qs, qid); ok {
		return slices.Delete(qs, i, i+1)
	}
	return qs
}

// CheckInvariants validates the server's internal consistency: every SQT
// entry is indexed exactly once in each RQI cell of its monitoring region and
// nowhere else, every posting list holds the live SQT rows themselves,
// every SQT row points at its focal's live FOT row, every focal-object record
// lists exactly its live queries, every FOT cell and monitoring region lies
// on the grid, and the query book is consistent with the SQT. It returns the
// first violation found, or nil. Intended for tests and debugging; it walks
// every table.
func (s *Server) CheckInvariants() error {
	// RQI ↔ SQT agreement: every row sits in each cell of its monitoring
	// region, every listed row is live and inside its region, and the lists
	// hold as many entries as the regions have cells — so no row is listed
	// twice.
	want := 0
	for qid, e := range s.sqt {
		if e.query.ID != qid {
			return fmt.Errorf("core: SQT row %d carries query ID %d", qid, e.query.ID)
		}
		if e.fe == nil || e.fe != s.fot[e.query.Focal] {
			return fmt.Errorf("core: query %d does not point at the FOT row of its focal %d", qid, e.query.Focal)
		}
		if !slices.Contains(e.fe.queries, qid) {
			return fmt.Errorf("core: query %d not listed under its focal %d", qid, e.query.Focal)
		}
		if !s.g.Valid(e.monRegion.Min) || !s.g.Valid(e.monRegion.Max) {
			return fmt.Errorf("core: query %d: monitoring region %v is off the grid", qid, e.monRegion)
		}
		missing := false
		e.monRegion.ForEach(func(c grid.CellID) {
			if !slices.Contains(s.rqi[s.g.CellIndex(c)], e) {
				missing = true
			}
		})
		if missing {
			return fmt.Errorf("core: query %d missing from RQI cells of its monitoring region", qid)
		}
		want += e.monRegion.NumCells()
	}
	entries := 0
	for idx, list := range s.rqi {
		entries += len(list)
		for _, e := range list {
			qid := e.query.ID
			live, ok := s.sqt[qid]
			if !ok {
				return fmt.Errorf("core: RQI cell %d lists unknown query %d", idx, qid)
			}
			if live != e {
				return fmt.Errorf("core: RQI cell %d holds a stale row of query %d", idx, qid)
			}
			if !e.monRegion.Contains(s.g.CellAt(idx)) {
				return fmt.Errorf("core: RQI cell %d lists query %d outside its monitoring region", idx, qid)
			}
		}
	}
	if entries != s.rqiCount {
		return fmt.Errorf("core: incremental RQI entry count %d, actual %d", s.rqiCount, entries)
	}
	if entries != want {
		return fmt.Errorf("core: RQI holds %d entries, the monitoring regions cover %d cells: a row is listed twice", entries, want)
	}
	// FOT ↔ SQT agreement. A focal's row lives exactly as long as it has a
	// query: removing the last one deletes it, and a stale FocalInfoResponse
	// creates none.
	for oid, fe := range s.fot {
		if len(fe.queries) == 0 {
			return fmt.Errorf("core: focal %d has a FOT row but no query", oid)
		}
		if !s.g.Valid(fe.currCell) {
			return fmt.Errorf("core: focal %d: %v is off the grid", oid, fe.currCell)
		}
		for _, qid := range fe.queries {
			e, ok := s.sqt[qid]
			if !ok {
				return fmt.Errorf("core: focal %d lists unknown query %d", oid, qid)
			}
			if e.query.Focal != oid {
				return fmt.Errorf("core: query %d listed under focal %d but bound to %d", qid, oid, e.query.Focal)
			}
		}
	}
	return s.book.check(func(qid model.QueryID) bool { _, ok := s.sqt[qid]; return ok })
}
