package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/cost"
)

// lqtEntry is one row of the local query table
// LQT = (qid, pos, vel, tm, region, mon_region, isTarget) of §3.2, extended
// with the processing-time field ptm of the safe-period optimization (§4.2).
type lqtEntry struct {
	qs       msg.QueryState
	isTarget bool
	ptm      model.Time // earliest time the entry must be evaluated again
}

// lqtTable is the local query table, ascending by query ID. An object holds
// a handful of queries, so a sorted slice serves look-ups (binary search) and
// walks alike, and iterates deterministically without a sort.
type lqtTable []*lqtEntry

// find returns the position of qid in t, or where it would be inserted, and
// its entry (nil when qid is not installed).
func (t lqtTable) find(qid model.QueryID) (int, *lqtEntry) {
	i, ok := slices.BinarySearchFunc(t, qid, func(e *lqtEntry, qid model.QueryID) int {
		return cmp.Compare(e.qs.QID, qid)
	})
	if !ok {
		return i, nil
	}
	return i, t[i]
}

// Client is the moving-object side of MobiEyes. One Client instance runs on
// (or, in simulation, stands for) each moving object. The owner feeds it
// position samples through the Tick* methods and delivers downlink messages
// through OnDownlink; the client emits protocol messages through its Uplink.
type Client struct {
	g    *grid.Grid
	opts Options
	up   Uplink

	oid    model.ObjectID
	props  model.Props
	maxVel float64

	lqt      lqtTable
	currCell grid.CellID
	hasMQ    bool
	// lastRelayed is the dead-reckoning state: what the rest of the system
	// believes about this object's motion (valid while hasMQ).
	lastRelayed model.MotionState

	// evals counts query evaluations (distance computations against a
	// focal prediction); the deterministic measure behind Fig. 13.
	evals int64
	// skipped counts evaluations suppressed by the safe-period check.
	skipped int64

	// groupCache holds the LQT's entries bucketed by focal object (each
	// bucket sorted by query ID, buckets sorted by focal ID); it is
	// rebuilt lazily when LQT membership changes. Grouped evaluation runs
	// every tick while the LQT changes rarely, so caching this structure
	// keeps the §4.1 optimization a net win on the device.
	groupCache []focalGroup
	groupDirty bool

	// acct is the cost accountant attached by SetAccountant (nil = off):
	// dead-reckoning checks, containment evaluations and LQT scans are
	// charged as object-side computation units (the paper's Figs. 10–13
	// axes). Charges go through atomic counters, so clients ticked in
	// parallel may share one accountant.
	acct *cost.Accountant

	// lastEvalVel is the own velocity observed at the previous evaluation;
	// predictive skip times assume constant velocities, so a change voids
	// every ptm.
	lastEvalVel    geo.Vector
	lastEvalVelSet bool
	// curVel is the velocity passed to the current TickEvaluate, used by
	// the predictive skip computation.
	curVel geo.Vector
}

// focalGroup is one grouped-evaluation bucket. entries is ascending by query
// ID (the reporting order); evalOrder is descending by enclosing radius (the
// §4.1 evaluation order: once outside some radius, outside all smaller ones).
type focalGroup struct {
	focal     model.ObjectID
	entries   []*lqtEntry
	evalOrder []*lqtEntry
}

// NewClient returns the MobiEyes client for one moving object. startPos
// determines the initial current grid cell.
func NewClient(g *grid.Grid, opts Options, up Uplink, oid model.ObjectID, props model.Props, maxVel float64, startPos geo.Point) *Client {
	return &Client{
		g:        g,
		opts:     opts,
		up:       up,
		oid:      oid,
		props:    props,
		maxVel:   maxVel,
		currCell: g.CellOf(startPos),
	}
}

// OID returns the object identifier this client runs on.
func (c *Client) OID() model.ObjectID { return c.oid }

// SetAccountant attaches a cost accountant (nil = off; the default).
func (c *Client) SetAccountant(a *cost.Accountant) { c.acct = a }

// LQTSize returns the number of queries currently installed in the LQT —
// the per-object computation measure of Figs. 10–12.
func (c *Client) LQTSize() int { return len(c.lqt) }

// HasMQ reports whether the object is currently a focal object.
func (c *Client) HasMQ() bool { return c.hasMQ }

// Evals returns the cumulative number of query evaluations performed.
func (c *Client) Evals() int64 { return c.evals }

// SkippedEvals returns the number of evaluations suppressed by safe
// periods.
func (c *Client) SkippedEvals() int64 { return c.skipped }

// CurrCell returns the client's current grid cell as of the last tick.
func (c *Client) CurrCell() grid.CellID { return c.currCell }

// OnDownlink processes a message received from a base station broadcast or
// a one-to-one delivery. pos and now are the object's position and clock at
// receipt, used to decide relevance (is my current cell inside the query's
// monitoring region?) and to answer focal-info requests.
func (c *Client) OnDownlink(m msg.Message, pos geo.Point, vel geo.Vector, now model.Time) {
	switch mm := m.(type) {
	case msg.QueryInstall:
		for _, qs := range mm.Queries {
			c.applyQueryState(qs, now)
		}
	case msg.QueryRemove:
		for _, qid := range mm.QIDs {
			c.removeQuery(qid)
		}
	case msg.VelocityChange:
		c.onVelocityChange(mm, now)
	case msg.FocalNotify:
		if mm.OID != c.oid {
			return
		}
		if mm.Install {
			if !c.hasMQ {
				c.hasMQ = true
				// From now on the system predicts our position from the
				// state last relayed; if none was relayed yet (the install
				// path through FocalInfoResponse sets it), start from now.
				if c.lastRelayed == (model.MotionState{}) {
					c.lastRelayed = model.MotionState{Pos: pos, Vel: vel, Tm: now}
				}
			}
		} else {
			// The server sends the uninstall notification only when the
			// object's last query is removed.
			c.hasMQ = false
			c.lastRelayed = model.MotionState{}
		}
	case msg.FocalInfoRequest:
		if mm.OID != c.oid {
			return
		}
		st := model.MotionState{Pos: pos, Vel: vel, Tm: now}
		c.lastRelayed = st
		c.up.Send(msg.FocalInfoResponse{OID: c.oid, Pos: pos, Vel: vel, Tm: now})
	default:
		panic(fmt.Sprintf("core: client cannot handle %v", m.Kind()))
	}
}

// applyQueryState is the §3.3/§3.5 install-or-remove logic: install or
// update the query if our current cell is inside its monitoring region and
// the filter accepts us; remove it otherwise.
func (c *Client) applyQueryState(qs msg.QueryState, now model.Time) {
	if !qs.MonRegion.Contains(c.currCell) {
		c.removeQuery(qs.QID)
		return
	}
	if !qs.Filter.Matches(c.props) {
		return
	}
	i, e := c.lqt.find(qs.QID)
	if e != nil {
		e.qs = qs
		e.ptm = 0 // focal state changed: previous safe period is void
		return
	}
	c.lqt = slices.Insert(c.lqt, i, &lqtEntry{qs: qs})
	c.groupDirty = true
}

// removeQuery drops a query from the LQT. If the object was inside the
// query's region, a leave report keeps the server's result exact: an object
// outside a query's monitoring region cannot be inside its spatial region,
// so leaving the monitoring region implies leaving the result.
func (c *Client) removeQuery(qid model.QueryID) {
	i, e := c.lqt.find(qid)
	if e == nil {
		return
	}
	c.leave(e)
	c.lqt = slices.Delete(c.lqt, i, i+1)
}

// leave sends the leave report owed for an entry being dropped from the LQT.
func (c *Client) leave(e *lqtEntry) {
	if e.isTarget {
		c.up.Send(msg.ContainmentReport{OID: c.oid, QID: e.qs.QID, IsTarget: false})
	}
	c.groupDirty = true
}

// onVelocityChange refreshes the dead-reckoning state of installed queries
// bound to the reporting focal object; under lazy propagation it also
// self-installs queries carried in the expanded notification (§3.5).
func (c *Client) onVelocityChange(m msg.VelocityChange, now model.Time) {
	if c.opts.Mode == LazyPropagation && len(m.Queries) > 0 {
		for _, qs := range m.Queries {
			c.applyQueryState(qs, now)
		}
		return
	}
	for _, e := range c.lqt {
		if e.qs.Focal == m.Focal {
			e.qs.State = m.State
			e.ptm = 0
		}
	}
}

// Join announces the client to the server as a newly arrived object: the
// server responds with the queries whose monitoring regions cover the
// object's starting cell. Without it, an object appearing mid-run would
// stay ignorant of standing queries until its first cell crossing — and
// even then would only learn queries new to the crossed cell. Call once,
// after construction, when the population is dynamic.
func (c *Client) Join(pos geo.Point, vel geo.Vector, now model.Time) {
	c.up.Send(msg.CellChangeReport{
		OID:      c.oid,
		PrevCell: grid.CellID{Col: -1, Row: -1}, // invalid: no previous cell
		NewCell:  c.currCell,
		Pos:      pos, Vel: vel, Tm: now,
	})
}

// Resync re-announces the client's full state to the server after a
// transport reconnect. It sends, in order: a rejoin cell-change report
// (invalid previous cell) that re-registers the object and makes the server
// drop any stale result entries; a velocity report refreshing the FOT row
// when the object is focal; and a containment report for every query the
// object currently believes it is a target of. On an ordered transport the
// server's clear-then-re-report sequence reconstructs the exact
// pre-disconnect state regardless of what was lost in transit.
func (c *Client) Resync(pos geo.Point, vel geo.Vector, now model.Time) {
	c.up.Send(msg.CellChangeReport{
		OID:      c.oid,
		PrevCell: grid.CellID{Col: -1, Row: -1}, // invalid: rejoin
		NewCell:  c.currCell,
		Pos:      pos, Vel: vel, Tm: now,
	})
	if c.hasMQ {
		c.lastRelayed = model.MotionState{Pos: pos, Vel: vel, Tm: now}
		c.up.Send(msg.VelocityReport{OID: c.oid, Pos: pos, Vel: vel, Tm: now})
	}
	for _, e := range c.lqt {
		if e.isTarget {
			c.up.Send(msg.ContainmentReport{OID: c.oid, QID: e.qs.QID, IsTarget: true})
		}
	}
}

// Depart announces that the object is leaving the system and clears the
// local query table. The server removes the object from all results and
// tears down its queries.
func (c *Client) Depart() {
	c.up.Send(msg.DepartureReport{OID: c.oid})
	c.lqt = nil
	c.hasMQ = false
	c.lastRelayed = model.MotionState{}
}

// TickCellChange is phase one of an object's time step: detect a grid-cell
// crossing and react per §3.5 — drop now-irrelevant queries, and notify the
// server when eager propagation demands it (or when we are focal, in any
// mode).
func (c *Client) TickCellChange(pos geo.Point, vel geo.Vector, now model.Time) {
	newCell := c.g.CellOf(pos)
	if newCell == c.currCell {
		return
	}
	prev := c.currCell
	c.currCell = newCell
	// Remove queries whose monitoring region no longer covers us,
	// compacting the LQT in place; leave reports go out in QID order.
	c.lqt = slices.DeleteFunc(c.lqt, func(e *lqtEntry) bool {
		if e.qs.MonRegion.Contains(newCell) {
			return false
		}
		c.leave(e)
		return true
	})
	if c.opts.Mode == EagerPropagation || c.hasMQ {
		c.up.Send(msg.CellChangeReport{
			OID: c.oid, PrevCell: prev, NewCell: newCell,
			Pos: pos, Vel: vel, Tm: now,
		})
		if c.hasMQ {
			// The report piggybacks our motion state and the server relays
			// it to the monitoring regions, so the system's belief is now
			// current — no separate velocity report needed this step.
			c.lastRelayed = model.MotionState{Pos: pos, Vel: vel, Tm: now}
		}
	}
}

// TickDeadReckoning is phase two: when focal, compare the true position
// with the position the system predicts from the last relayed state, and
// relay a velocity report when the deviation exceeds Δ (§3.4).
func (c *Client) TickDeadReckoning(pos geo.Point, vel geo.Vector, now model.Time) {
	if !c.hasMQ {
		return
	}
	c.acct.Compute(cost.UnitDeadReckoning, 1)
	if c.lastRelayed.NeedsRelay(pos, now, c.opts.DeadReckoningThreshold) {
		st := model.MotionState{Pos: pos, Vel: vel, Tm: now}
		c.lastRelayed = st
		c.up.Send(msg.VelocityReport{OID: c.oid, Pos: pos, Vel: vel, Tm: now})
	}
}

// TickEvaluate is phase three: process every query in the LQT (§3.6) —
// predict the focal object's position, decide containment, and report
// changes differentially. Safe periods (§4.2) skip evaluations that cannot
// change the outcome; grouping (§4.1) shares one distance computation among
// queries with the same focal object and batches grouped reports into query
// bitmaps.
func (c *Client) TickEvaluate(pos geo.Point, vel geo.Vector, now model.Time) {
	if len(c.lqt) == 0 {
		return
	}
	c.acct.Compute(cost.UnitLQTScan, int64(len(c.lqt)))
	if c.opts.Predictive {
		if !c.lastEvalVelSet || vel != c.lastEvalVel {
			// Our own trajectory changed: every predicted entry time is
			// void.
			for _, e := range c.lqt {
				e.ptm = 0
			}
			c.lastEvalVel = vel
			c.lastEvalVelSet = true
		}
		c.curVel = vel
	}
	if c.opts.Grouping {
		c.evaluateGrouped(pos, now)
		return
	}
	for _, e := range c.lqt {
		inside, evaluated := c.evaluateEntry(e, pos, now)
		if !evaluated {
			continue
		}
		if inside != e.isTarget {
			e.isTarget = inside
			c.up.Send(msg.ContainmentReport{OID: c.oid, QID: e.qs.QID, IsTarget: inside})
		}
	}
}

// evaluateEntry decides containment for one LQT entry, honoring the safe
// period. The second return value reports whether an evaluation happened.
func (c *Client) evaluateEntry(e *lqtEntry, pos geo.Point, now model.Time) (inside, evaluated bool) {
	if c.skipsEnabled() && e.ptm > now {
		c.skipped++
		return false, false
	}
	focalPos := e.qs.State.PredictAt(now)
	c.evals++
	c.acct.Compute(cost.UnitContainment, 1)
	inside = e.qs.Region.Contains(focalPos, pos)
	if !inside {
		c.schedule(e, pos, focalPos, now)
	}
	return inside, true
}

// skipsEnabled reports whether any skip optimization is active.
func (c *Client) skipsEnabled() bool { return c.opts.SafePeriod || c.opts.Predictive }

// schedule sets e.ptm — the earliest time the entry must be re-evaluated —
// using the exact predictive entry time or the paper's worst-case safe
// period, whichever optimization is enabled.
func (c *Client) schedule(e *lqtEntry, pos, focalPos geo.Point, now model.Time) {
	er := e.qs.Region.EnclosingRadius()
	if c.opts.Predictive {
		d := pos.Sub(focalPos)
		w := geo.Vec(c.curVel.X-e.qs.State.Vel.X, c.curVel.Y-e.qs.State.Vel.Y)
		if et, ok := model.EntryTime(d, w, er); ok {
			e.ptm = now + model.Time(et)
		} else {
			e.ptm = model.Time(math.Inf(1))
		}
		return
	}
	if c.opts.SafePeriod {
		sp := model.SafePeriod(pos.Dist(focalPos), er, c.maxVel, e.qs.FocalMaxVel)
		e.ptm = now + model.Time(sp)
	}
}

// evaluateGrouped implements the §4.1 object-side grouping: one predicted
// focal position and one distance computation per focal object, shared by
// all of its queries; matching-monitoring-region groups of two or more
// queries report via a query bitmap.
func (c *Client) evaluateGrouped(pos geo.Point, now model.Time) {
	if c.groupDirty {
		c.rebuildGroupCache()
	}
	for i := range c.groupCache {
		c.evaluateFocalGroup(&c.groupCache[i], pos, now)
	}
}

// rebuildGroupCache re-buckets the LQT by focal object: a stable sort by
// focal keeps each bucket in QID order.
func (c *Client) rebuildGroupCache() {
	byFocal := slices.Clone(c.lqt)
	slices.SortStableFunc(byFocal, func(a, b *lqtEntry) int { return cmp.Compare(a.qs.Focal, b.qs.Focal) })
	c.groupCache = c.groupCache[:0]
	for len(byFocal) > 0 {
		f := byFocal[0].qs.Focal
		n := 1
		for n < len(byFocal) && byFocal[n].qs.Focal == f {
			n++
		}
		entries := byFocal[:n:n]
		order := slices.Clone(entries)
		slices.SortStableFunc(order, func(a, b *lqtEntry) int {
			return cmp.Compare(b.qs.Region.EnclosingRadius(), a.qs.Region.EnclosingRadius())
		})
		c.groupCache = append(c.groupCache, focalGroup{focal: f, entries: entries, evalOrder: order})
		byFocal = byFocal[n:]
	}
	c.groupDirty = false
}

// evaluateFocalGroup evaluates all queries bound to one focal object.
// The focal position is predicted once; each query then needs only a
// containment check. Entries are visited in the cached descending
// enclosing-radius order, so that — as the paper notes — smaller radii need
// consideration only when the object is inside the larger region; isTarget
// transitions are still honored for all of them. The pass allocates nothing
// unless a containment status changed.
func (c *Client) evaluateFocalGroup(g *focalGroup, pos geo.Point, now model.Time) {
	// First pass: find the freshest recorded focal state among due entries
	// (states can differ transiently when an entry installed later).
	var freshest *lqtEntry
	for _, e := range g.evalOrder {
		if c.skipsEnabled() && e.ptm > now {
			continue
		}
		if freshest == nil || e.qs.State.Tm > freshest.qs.State.Tm {
			freshest = e
		}
	}
	if freshest == nil {
		c.skipped += int64(len(g.evalOrder))
		return
	}
	focalPos := freshest.qs.State.PredictAt(now)
	c.evals++
	c.acct.Compute(cost.UnitContainment, 1)
	dist := pos.Dist(focalPos)

	var changed map[*lqtEntry]bool
	for _, e := range g.evalOrder {
		if c.skipsEnabled() && e.ptm > now {
			c.skipped++
			continue
		}
		inside := dist <= e.qs.Region.EnclosingRadius() && e.qs.Region.Contains(focalPos, pos)
		if !inside {
			c.schedule(e, pos, focalPos, now)
		}
		if inside != e.isTarget {
			e.isTarget = inside
			if changed == nil {
				changed = make(map[*lqtEntry]bool, len(g.evalOrder))
			}
			changed[e] = true
		}
	}
	if changed == nil {
		return
	}
	// Matching monitoring regions with ≥2 queries report as one bitmap;
	// everything else reports individually. Skipped entries report their
	// previous status inside bitmaps (idempotent at the server).
	c.reportGroupResults(g.focal, g.entries, changed)
}

// reportGroupResults sends result updates for the given queries: bitmap
// reports for monitoring-region groups of two or more, individual reports
// otherwise. Groups report only when at least one member changed; singleton
// queries only when they themselves changed. All queries belong to one
// focal object.
func (c *Client) reportGroupResults(focal model.ObjectID, entries []*lqtEntry, changed map[*lqtEntry]bool) {
	byRegion := make(map[grid.CellRange][]*lqtEntry)
	var regions []grid.CellRange
	for _, e := range entries { // ascending by QID
		r := e.qs.MonRegion
		if _, ok := byRegion[r]; !ok {
			regions = append(regions, r)
		}
		byRegion[r] = append(byRegion[r], e)
	}
	for _, r := range regions {
		group := byRegion[r]
		if len(group) == 1 {
			if e := group[0]; changed[e] {
				c.up.Send(msg.ContainmentReport{OID: c.oid, QID: e.qs.QID, IsTarget: e.isTarget})
			}
			continue
		}
		if !slices.ContainsFunc(group, func(e *lqtEntry) bool { return changed[e] }) {
			continue
		}
		qids := make([]model.QueryID, len(group))
		bm := msg.NewBitmap(len(group))
		for i, e := range group {
			qids[i] = e.qs.QID
			bm.Set(i, e.isTarget)
		}
		c.up.Send(msg.GroupContainmentReport{
			OID: c.oid, Focal: focal, QIDs: qids, Bitmap: bm,
		})
	}
}

// IsTarget reports the client's local belief about being inside a query's
// region (false for queries not in the LQT).
func (c *Client) IsTarget(qid model.QueryID) bool {
	_, e := c.lqt.find(qid)
	return e != nil && e.isTarget
}

// InstalledQueries returns the sorted IDs of queries in the LQT.
func (c *Client) InstalledQueries() []model.QueryID {
	var qids []model.QueryID
	for _, e := range c.lqt {
		qids = append(qids, e.qs.QID)
	}
	return qids
}
