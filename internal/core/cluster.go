package core

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/telemetry"
	"mobieyes/internal/obs/trace"
)

// ClusterServer is the one concurrent MobiEyes server: a router tier that
// owns the query book and message routing, over N nodes each holding the
// FOT, SQT and RQI rows of the focal objects whose current grid cell falls
// in that node's assigned cell range. Nodes are driven through the
// NodeHandle surface, so the same router runs over in-process NodeServers
// (NewClusterServer, held byte-identical to the serial server by the
// differential oracle) and over internal/cluster RemoteNodes speaking the
// wire protocol to worker processes. Every node is journaled, in process or
// not, so any node can crash and recover (CrashNode).
//
// Nodes own contiguous cell ranges (spans) so a node's working set is
// spatially local and rebalancing moves a boundary rather than rehashing
// the world. The router is safe for concurrent use and serializes all
// dispatch under one mutex: no workload the repo measures is faster with
// per-node locks (DESIGN.md §13).
//
// Cross-node focal handoff is a two-phase, byte-mediated transfer: the
// source node drains its sends and detaches the focal's complete state as
// an encoded focal slice (ExtractFocal), then the destination installs the
// slice and acknowledges (InjectFocal) before the router flips its routing
// tables — no result entry is lost or duplicated, which the differential
// snapshot oracle verifies byte-for-byte. See DESIGN.md §13.
type ClusterServer struct {
	sendPath
	g     *grid.Grid
	opts  Options
	nodes []NodeHandle
	// local mirrors nodes for in-process NodeServers (nil per remote node);
	// tracing, accounting and result listeners need direct engine access
	// and degrade gracefully over the wire.
	local []*NodeServer

	// spanLo/spanHi assign each node the dense cell indices [lo, hi); the
	// spans of live nodes partition the grid. epoch increments on every
	// reassignment so workers can discard stale AssignRange frames.
	spanLo, spanHi []int
	live           []bool
	epoch          uint64
	onAssign       func(epoch uint64, node, lo, hi int)

	// ops counts router-level operations; upl counts uplinks handled outside
	// any node (departures); migrations counts cross-node focal handoffs;
	// nUpl counts uplinks dispatched to each node.
	ops        *obs.Counter
	upl        *obs.Counter
	migrations *obs.Counter
	nUpl       []*obs.Counter

	// inflight counts uplinks currently inside HandleUplinkTraced —
	// queued on cs.mu or executing a NodeOp round-trip. Always maintained
	// (two atomic adds per uplink); zero at quiescence.
	inflight atomic.Int64
	// migrationsAdminDone counts admin (rebalancing/drain) focal moves;
	// kept separate from migrations, which tracks protocol handoffs.
	migrationsAdminDone int

	// tel is the cluster telemetry plane (nil when disabled).
	tel *telemetry.Plane

	// mu serializes all routing and node dispatch. focalNode/queryNode map
	// ownership; book mints qids and holds the installs waiting on a
	// FocalInfoRequest (queries exist only at the router until their focal
	// object is located). freshBuf is the scratch the cross-node
	// RQI(new) ∖ RQI(prev) union is collected in and lent to the downlink
	// (DESIGN.md §13).
	mu        sync.Mutex
	focalNode map[model.ObjectID]int
	queryNode map[model.QueryID]int
	book      queryBook
	freshBuf  []msg.QueryState

	// journal holds each node's last checkpoint (focal slices keyed by oid),
	// replayed into the survivors when the node crashes without a drain.
	// armedHandoffCrash (-1 disarmed) and suppressReplay are test hooks —
	// see ArmCrashOnHandoff and SuppressRecoveryReplay in checkpoint.go.
	journal           []nodeJournal
	armedHandoffCrash int
	suppressReplay    bool

	// autoRecover lets TelemetryRound trigger crash recovery on critical
	// liveness alerts instead of only reporting them (SetAutoRecover).
	autoRecover bool
}

// NewClusterServer returns a cluster router over n ≥ 1 in-process worker
// nodes. The downlink carries both router-level sends (FocalInfoRequest,
// cross-node QueryInstall unions) and node-level sends.
func NewClusterServer(g *grid.Grid, opts Options, down Downlink, n int) *ClusterServer {
	handles := make([]NodeHandle, n)
	local := make([]*NodeServer, n)
	for i := range handles {
		local[i] = NewNodeServer(g, opts, down)
		handles[i] = local[i]
	}
	return newClusterServer(g, opts, down, handles, local)
}

// NewShardedServer is NewClusterServer under the name the frozen benchmark/
// calls, as is UplinksByShard below.
func NewShardedServer(g *grid.Grid, opts Options, down Downlink, shards int) *ClusterServer {
	return NewClusterServer(g, opts, down, shards)
}

// NewClusterServerOver returns a cluster router over caller-provided node
// handles — the entry point for the TCP tier, where each handle forwards to
// a worker process. Handles that are in-process NodeServers get full
// tracing/accounting wiring.
func NewClusterServerOver(g *grid.Grid, opts Options, down Downlink, handles []NodeHandle) *ClusterServer {
	local := make([]*NodeServer, len(handles))
	for i, h := range handles {
		if ns, ok := h.(*NodeServer); ok {
			local[i] = ns
		}
	}
	return newClusterServer(g, opts, down, handles, local)
}

func newClusterServer(g *grid.Grid, opts Options, down Downlink, handles []NodeHandle, local []*NodeServer) *ClusterServer {
	cs := &ClusterServer{
		sendPath:   sendPath{down: down},
		g:          g,
		opts:       opts,
		nodes:      handles,
		local:      local,
		spanLo:     make([]int, len(handles)),
		spanHi:     make([]int, len(handles)),
		live:       make([]bool, len(handles)),
		ops:        obs.NewCounter(),
		upl:        obs.NewCounter(),
		migrations: obs.NewCounter(),
		nUpl:       make([]*obs.Counter, len(handles)),
		focalNode:  make(map[model.ObjectID]int),
		queryNode:  make(map[model.QueryID]int),
		book:       newQueryBook(),

		journal:           make([]nodeJournal, len(handles)),
		armedHandoffCrash: -1,
	}
	for i := range cs.live {
		cs.live[i] = true
		cs.nUpl[i] = obs.NewCounter()
		cs.journal[i].slices = make(map[model.ObjectID][]byte)
	}
	cs.computeSpans()
	return cs
}

// NumNodes returns the number of nodes (live and dead).
func (cs *ClusterServer) NumNodes() int { return len(cs.nodes) }

// InflightOps returns the number of uplinks currently inside the router's
// dispatch funnel — queued on the router mutex or executing node operations.
// Zero at quiescence.
func (cs *ClusterServer) InflightOps() int64 { return cs.inflight.Load() }

// Epoch returns the current span-assignment epoch.
func (cs *ClusterServer) Epoch() uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.epoch
}

// SetAssignListener installs a callback invoked (under the router lock) for
// every node on each span reassignment — the TCP tier ships AssignRange
// frames from it. Dead nodes are reported with an empty span.
func (cs *ClusterServer) SetAssignListener(fn func(epoch uint64, node, lo, hi int)) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.onAssign = fn
}

// SetTelemetry attaches the cluster telemetry plane — its one attach point:
// handoff, rebalance and recovery edges evaluate its invariant watchdog
// against the router's authoritative span view, and TelemetryRound also
// probes every live node first.
func (cs *ClusterServer) SetTelemetry(p *telemetry.Plane) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.tel = p
}

// Telemetry returns the attached telemetry plane, or nil.
func (cs *ClusterServer) Telemetry() *telemetry.Plane {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.tel
}

// viewLocked builds the watchdog's authoritative cluster view. cs.mu held.
func (cs *ClusterServer) viewLocked() telemetry.View {
	v := telemetry.View{Epoch: cs.epoch, Cells: cs.g.NumCells(), Handoffs: cs.migrations.Value()}
	for i := range cs.nodes {
		v.Spans = append(v.Spans, telemetry.SpanView{
			Node: i, Lo: cs.spanLo[i], Hi: cs.spanHi[i], Live: cs.live[i],
		})
	}
	return v
}

// TelemetryRound runs one telemetry round: pull a checkpoint delta from
// every live node into the router journal (the recovery watermark —
// DESIGN.md §15), probe every live node whose handle has a Heartbeat (each
// probe pumps that node's pending telemetry into the plane and reports its
// heartbeat status; in-process nodes need none), then
// evaluate the invariant watchdog. The remote server's housekeeping loop
// drives this about once a second; handoff and rebalance edges run
// evaluation-only rounds inline. Returns the active alerts (nil with no
// plane attached).
//
// With auto-recovery enabled (SetAutoRecover), a critical heartbeat-stale
// or node-unreachable alert against a live node triggers the crash
// recovery path inline: the node is fenced, its journaled focal state
// replays into the survivors, and a follow-up watchdog round resolves the
// alerts it can.
func (cs *ClusterServer) TelemetryRound() []telemetry.Alert {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	_ = cs.checkpointLocked()
	alerts := cs.telemetryRoundLocked(true)
	if !cs.autoRecover {
		return alerts
	}
	for _, a := range alerts {
		if a.Severity != telemetry.SeverityCritical {
			continue
		}
		if a.Check != telemetry.CheckHeartbeat && a.Check != telemetry.CheckUnreachable {
			continue
		}
		i := a.Node
		if i < 0 || i >= len(cs.nodes) || !cs.live[i] || cs.liveCount() <= 1 {
			continue
		}
		cs.crashLocked(i, 0)
		alerts = cs.telemetryRoundLocked(false)
	}
	return alerts
}

// SetAutoRecover enables router-driven crash recovery: when the watchdog
// declares a live node dead (missed heartbeats or unreachable), the router
// fences it and replays its journal instead of just alerting. Off by
// default so operators can choose alert-and-wait.
func (cs *ClusterServer) SetAutoRecover(on bool) {
	cs.mu.Lock()
	cs.autoRecover = on
	cs.mu.Unlock()
}

// liveCount returns the number of live nodes. cs.mu held.
func (cs *ClusterServer) liveCount() int {
	n := 0
	for _, l := range cs.live {
		if l {
			n++
		}
	}
	return n
}

func (cs *ClusterServer) telemetryRoundLocked(probe bool) []telemetry.Alert {
	if cs.tel == nil {
		return nil
	}
	if probe {
		for i, nd := range cs.nodes {
			if hb, ok := nd.(interface{ Heartbeat() error }); ok && cs.live[i] {
				// Probe errors reach the plane via NoteProbeError inside
				// the probe; the round below raises node-unreachable.
				_ = hb.Heartbeat()
			}
		}
	}
	return cs.tel.Round(cs.viewLocked())
}

// focalWeight biases span boundaries toward splitting cells that currently
// host focal objects, so rebalancing evens out table load, not just area.
const focalWeight = 4

// computeSpans repartitions the grid's dense cell indices into contiguous
// spans over the live nodes, weighting each cell by the focal objects it
// hosts, and bumps the epoch. Requires cs.mu held (or construction).
func (cs *ClusterServer) computeSpans() {
	numCells := cs.g.NumCells()
	var liveIdx []int
	for i, l := range cs.live {
		if l {
			liveIdx = append(liveIdx, i)
		}
	}
	w := make([]int, numCells)
	for i := range w {
		w[i] = 1
	}
	total := numCells
	for i, nd := range cs.nodes {
		if !cs.live[i] {
			continue
		}
		for _, oid := range nd.FocalIDs() {
			if c, ok := nd.FocalCell(oid); ok {
				w[cs.g.CellIndex(c)] += focalWeight
				total += focalWeight
			}
		}
	}
	for i := range cs.spanLo {
		cs.spanLo[i], cs.spanHi[i] = 0, 0
	}
	cell, rem := 0, total
	for k, ni := range liveIdx {
		lo := cell
		if k == len(liveIdx)-1 {
			cell = numCells
		} else {
			left := len(liveIdx) - k
			target := (rem + left - 1) / left
			acc := 0
			for cell < numCells && acc < target {
				acc += w[cell]
				cell++
			}
			rem -= acc
		}
		cs.spanLo[ni], cs.spanHi[ni] = lo, cell
	}
	cs.epoch++
	if cs.onAssign != nil {
		for i := range cs.nodes {
			cs.onAssign(cs.epoch, i, cs.spanLo[i], cs.spanHi[i])
		}
	}
}

// nodeOf returns the live node owning cell c's span.
func (cs *ClusterServer) nodeOf(c grid.CellID) int {
	idx := cs.g.CellIndex(c)
	for i := range cs.nodes {
		if cs.live[i] && idx >= cs.spanLo[i] && idx < cs.spanHi[i] {
			return i
		}
	}
	panic(fmt.Sprintf("core: cell index %d owned by no live node", idx))
}

// SetAccountant attaches a cost accountant to the router and every
// in-process node (nil = off). Not safe to call concurrently with dispatch.
func (cs *ClusterServer) SetAccountant(a *cost.Accountant) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.acct = a
	for _, ns := range cs.local {
		if ns != nil {
			ns.srv.acct = a
		}
	}
	a.SetMode(cs.opts.Mode.String())
}

// acctNodeUplink charges one dispatched uplink of kind k and model size sz to
// node ni's ledger (-1 = the router ledger, for stale drops and router-level
// work), keeping the node-sum-plus-router == global identity the ledger
// oracle checks. It takes kind and size, not the message, so the accountant-
// off path does not box every uplink into a msg.Message.
func (cs *ClusterServer) acctNodeUplink(ni int, k msg.Kind, sz int) {
	if cs.acct == nil {
		return
	}
	cs.acct.NodeUplink(ni, k, sz)
}

// SetTracer attaches a flight recorder to the router and every in-process
// node. Nodes record as "node0", "node1", …; router-level work (handoffs,
// cross-node unicasts, uplink ingress) records as "router".
func (cs *ClusterServer) SetTracer(rec *trace.Recorder) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.rec = rec
	cs.tdown, _ = cs.down.(TracedDownlink)
	for i, ns := range cs.local {
		if ns != nil {
			ns.SetTracer(rec, "node"+strconv.Itoa(i))
		}
	}
}

// mintRoot starts a fresh trace for a router-level API ingress.
func (cs *ClusterServer) mintRoot(oid model.ObjectID, qid model.QueryID, note string) trace.ID {
	if cs.rec == nil {
		return 0
	}
	tid := cs.rec.NextID()
	cs.rec.Event(tid, trace.KindIngress, "router", int64(oid), int64(qid), note)
	return tid
}

// InstallQuery starts installation of a moving query (§3.3), routed to the
// node owning the focal object.
func (cs *ClusterServer) InstallQuery(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64) model.QueryID {
	return cs.InstallQueryUntil(focal, region, filter, focalMaxVel, 0)
}

// InstallQueryUntil installs a query that expires at the given time; a
// zero expiry means none.
func (cs *ClusterServer) InstallQueryUntil(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64, expiry model.Time) model.QueryID {
	return cs.InstallQueryNoted(focal, region, filter, focalMaxVel, expiry, nil)
}

// InstallQueryNoted is InstallQueryUntil that first hands the new query's
// ID to note, when it is non-nil, under the router's lock and before the
// install sends anything. A caller that logs installs (the network server's
// history mark) thereby logs each one ahead of every event it causes. note
// must not call back into the router.
func (cs *ClusterServer) InstallQueryNoted(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64, expiry model.Time, note func(model.QueryID)) model.QueryID {
	cs.mu.Lock()
	qid := cs.book.mint()
	if note != nil {
		note(qid)
	}
	tid := cs.mintRoot(focal, qid, "InstallQuery")
	q := model.Query{ID: qid, Focal: focal, Region: region, Filter: filter}
	if ni, ok := cs.focalNode[focal]; ok {
		cs.nodes[ni].CompleteInstall(qid, q, focalMaxVel, expiry, tid)
		cs.queryNode[qid] = ni
		cs.mu.Unlock()
		return qid
	}
	// §3.3 step 3: the focal object is unknown — request its motion state.
	first := cs.book.park(pendingInstall{qid, q, focalMaxVel}, expiry)
	cs.mu.Unlock()
	cs.ops.Add(1)
	if first {
		cs.unicastAs("router", tid, focal, msg.FocalInfoRequest{OID: focal})
	}
	return qid
}

// RemoveQuery uninstalls a query from its owning node.
func (cs *ClusterServer) RemoveQuery(qid model.QueryID) bool {
	tid := cs.mintRoot(0, qid, "RemoveQuery")
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.removeQueryLocked(qid, tid)
}

func (cs *ClusterServer) removeQueryLocked(qid model.QueryID, tid trace.ID) bool {
	ni, ok := cs.queryNode[qid]
	if !ok {
		return cs.book.drop(qid)
	}
	removed, focal, stillFocal := cs.nodes[ni].RemoveQuery(qid, tid)
	delete(cs.queryNode, qid)
	if removed && !stillFocal {
		delete(cs.focalNode, focal)
	}
	return removed
}

// ExpireQueries removes every query whose expiry has passed and returns the
// removed identifiers (sorted).
func (cs *ClusterServer) ExpireQueries(now model.Time) []model.QueryID {
	tid := cs.mintRoot(0, 0, "ExpireQueries")
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var expired []model.QueryID
	for i, nd := range cs.nodes {
		if cs.live[i] {
			expired = append(expired, nd.DueExpiries(now)...)
		}
	}
	expired = append(expired, cs.book.due(now)...)
	slices.Sort(expired)
	for _, qid := range expired {
		cs.removeQueryLocked(qid, tid)
	}
	return expired
}

// HandleUplink dispatches any uplink message to its handler; it panics on
// message kinds the MobiEyes server does not consume, exactly like the
// serial server.
func (cs *ClusterServer) HandleUplink(m msg.Message) { cs.HandleUplinkTraced(m, 0) }

// HandleUplinkTraced is HandleUplink with an inbound trace ID — the uplink
// ingress point when running behind a tracing transport.
func (cs *ClusterServer) HandleUplinkTraced(m msg.Message, tid trace.ID) {
	// In-flight depth of the router's dispatch funnel: everything between
	// ingress and handler return, including time queued on cs.mu — the
	// saturation signal for the serialized router tier.
	cs.inflight.Add(1)
	defer cs.inflight.Add(-1)
	if cs.acct != nil || cs.rec != nil {
		tid = uplinkIngress(m, tid, "router", cs.acct, cs.rec)
	}
	cs.dispatchUplink(m, tid)
}

func (cs *ClusterServer) dispatchUplink(m msg.Message, tid trace.ID) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	switch mm := m.(type) {
	case msg.VelocityReport:
		cs.onVelocityReport(mm, tid)
	case msg.CellChangeReport:
		cs.onCellChangeReport(mm, tid)
	case msg.ContainmentReport:
		cs.onContainmentReport(mm, tid)
	case msg.GroupContainmentReport:
		cs.onGroupContainmentReport(mm, tid)
	case msg.FocalInfoResponse:
		cs.onFocalInfoResponse(mm, tid)
	case msg.DepartureReport:
		cs.onDepartureReport(mm, tid)
	default:
		panic(fmt.Sprintf("core: cluster server cannot handle %v", m.Kind()))
	}
}

func (cs *ClusterServer) onVelocityReport(m msg.VelocityReport, tid trace.ID) {
	ni, ok := cs.focalNode[m.OID]
	if !ok {
		cs.acctNodeUplink(-1, m.Kind(), m.Size()) // stale drop: charge the router ledger
		return
	}
	cs.nUpl[ni].Add(1)
	cs.acctNodeUplink(ni, m.Kind(), m.Size())
	cs.nodes[ni].VelocityReport(m, tid)
}

func (cs *ClusterServer) onContainmentReport(m msg.ContainmentReport, tid trace.ID) {
	ni, ok := cs.queryNode[m.QID]
	if !ok {
		cs.acctNodeUplink(-1, m.Kind(), m.Size()) // stale drop: charge the router ledger
		return
	}
	cs.nUpl[ni].Add(1)
	cs.acctNodeUplink(ni, m.Kind(), m.Size())
	cs.nodes[ni].ContainmentReport(m, tid)
}

func (cs *ClusterServer) onGroupContainmentReport(m msg.GroupContainmentReport, tid trace.ID) {
	// A group is keyed by its focal (§4.1), and a focal's queries live on
	// its node, so the whole bitmap resolves there.
	ni, ok := cs.focalNode[m.Focal]
	if ok && slices.ContainsFunc(m.QIDs, func(qid model.QueryID) bool {
		qn, known := cs.queryNode[qid]
		return known && qn == ni
	}) {
		cs.nUpl[ni].Add(1)
		cs.acctNodeUplink(ni, m.Kind(), m.Size())
		cs.nodes[ni].GroupContainmentReport(m, tid)
		return
	}
	cs.acctNodeUplink(-1, m.Kind(), m.Size()) // no query on the focal's node: charge the router ledger
}

func (cs *ClusterServer) onFocalInfoResponse(m msg.FocalInfoResponse, tid trace.ID) {
	if _, focal := cs.focalNode[m.OID]; !focal && !cs.book.waiting(m.OID) {
		// Stale: nothing to complete or refresh.
		cs.acctNodeUplink(-1, m.Kind(), m.Size()) // stale drop: charge the router ledger
		return
	}
	ni := cs.nodeOf(cs.g.CellOf(m.Pos))
	cs.nUpl[ni].Add(1)
	cs.acctNodeUplink(ni, m.Kind(), m.Size())
	cs.applyFocalInfo(m.OID, model.MotionState{Pos: m.Pos, Vel: m.Vel, Tm: m.Tm}, false, tid)
}

// applyFocalInfo refreshes oid's FOT row from a reported motion state —
// handing it off when the reported cell belongs to another node's span —
// and completes pending installations. wrote says whether the uplink being
// dispatched has already written node rows (see handoff).
func (cs *ClusterServer) applyFocalInfo(oid model.ObjectID, st model.MotionState, wrote bool, tid trace.ID) {
	cell := cs.g.CellOf(st.Pos)
	di := cs.nodeOf(cell)
	if si, known := cs.focalNode[oid]; known && si != di {
		cs.handoff(si, di, oid, st, cell, false, wrote, tid)
	} else {
		cs.nodes[di].UpsertFocal(oid, st, tid)
		cs.focalNode[oid] = di
	}
	for _, p := range cs.book.take(oid) {
		cs.nodes[di].CompleteInstall(p.qid, p.query, p.maxVel, p.expiry, tid)
		cs.queryNode[p.qid] = di
	}
}

// handoff runs the two-phase cross-node focal transfer and flips the
// routing tables: extract the encoded slice from the source (which has
// drained its sends when the call returns), inject it into the destination,
// then repoint focalNode/queryNode. relocate selects the §3.5 monitoring-
// region recomputation on the destination, exactly like the serial server's
// in-table relocation.
//
// wrote says whether the uplink being dispatched has already written node
// rows before this extract (a rejoin's ClearResults sweep, or completed
// pending installs). Only then does the source's checkpoint get pulled
// first: otherwise the journal as of the last pull plus the slice in hand
// is already the source at this instant, so a crash between the two phases
// loses what any crash loses — writes since the last pull (DESIGN.md §15).
func (cs *ClusterServer) handoff(si, di int, oid model.ObjectID, st model.MotionState, cell grid.CellID, relocate, wrote bool, tid trace.ID) {
	if cs.rec != nil {
		cs.rec.Event(tid, trace.KindMigrate, "router", int64(oid), 0, fmt.Sprintf("node%d -> node%d", si, di))
	}
	if wrote {
		// A failed pull leaves the journal at its previous watermark.
		_ = cs.checkpointNodeLocked(si)
	}
	slice, err := cs.nodes[si].ExtractFocal(oid, false, tid)
	if err != nil {
		panic(fmt.Sprintf("core: handoff extract of focal %d from node %d: %v", oid, si, err))
	}
	if cs.armedHandoffCrash == si {
		// Armed mid-handoff crash: the source dies holding nothing (the
		// extract already detached the slice), the router holds the only
		// copy. The journal entry is superseded by the in-hand slice —
		// drop it so replay cannot inject the focal a second time, recover
		// the rest of the journal, then continue phase two against
		// whichever node owns the cell after the fence.
		cs.armedHandoffCrash = -1
		delete(cs.journal[si].slices, oid)
		cs.crashLocked(si, tid)
		di = cs.nodeOf(cell)
	}
	rec, _, _, err := decodeFocalSlice(slice)
	if err != nil {
		panic(fmt.Sprintf("core: handoff slice of focal %d: %v", oid, err))
	}
	if err := cs.nodes[di].InjectFocal(slice, st, cell, relocate, false, tid); err != nil {
		panic(fmt.Sprintf("core: handoff inject of focal %d into node %d: %v", oid, di, err))
	}
	cs.migrations.Add(1)
	cs.focalNode[oid] = di
	for _, qid := range rec.fe.queries {
		cs.queryNode[qid] = di
	}
	// Handoff edge: evaluate the watchdog immediately (without probing —
	// over the wire, both nodes' telemetry already streamed in ahead of the
	// extract/inject acknowledgements).
	cs.telemetryRoundLocked(false)
}

func (cs *ClusterServer) onCellChangeReport(m msg.CellChangeReport, tid trace.ID) {
	st := model.MotionState{Pos: m.Pos, Vel: m.Vel, Tm: m.Tm}
	// wrote: whether this uplink has written node rows before a handoff
	// below, which then journals its source first (see handoff).
	wrote := !cs.g.Valid(m.PrevCell)
	if wrote {
		// (Re)join: drop stale result entries across every node before the
		// object re-reports, exactly like the serial server.
		for i, nd := range cs.nodes {
			if cs.live[i] {
				nd.ClearResults(m.OID, tid)
			}
		}
	}
	if cs.book.waiting(m.OID) {
		// The report carries the object's motion state; complete pending
		// installs from it (the FocalInfoRequest may have been lost).
		cs.applyFocalInfo(m.OID, st, wrote, tid)
		wrote = true
	}
	ni := cs.nodeOf(m.NewCell)
	cs.nUpl[ni].Add(1)
	cs.acctNodeUplink(ni, m.Kind(), m.Size())
	cs.focalCellChange(m.OID, st, m.NewCell, wrote, tid)
	cs.sendNewNearbyQueries(m.OID, m.PrevCell, m.NewCell, tid)
	cs.ops.Add(1)
}

// focalCellChange routes a focal object's cell crossing: node-local when
// the new cell stays in the owner's span, otherwise a cross-node handoff
// with monitoring-region relocation on the destination. wrote is handoff's.
func (cs *ClusterServer) focalCellChange(oid model.ObjectID, st model.MotionState, newCell grid.CellID, wrote bool, tid trace.ID) {
	si, ok := cs.focalNode[oid]
	if !ok {
		return // not focal: nothing to relocate
	}
	di := cs.nodeOf(newCell)
	if si == di {
		cs.nodes[si].FocalCellChange(oid, st, newCell, tid)
		return
	}
	cs.handoff(si, di, oid, st, newCell, true, wrote, tid)
}

// sendNewNearbyQueries unions RQI(newCell) \ RQI(prevCell) across nodes and
// ships the result to the object, ascending by query ID exactly like the
// serial server. The union is built in cs.freshBuf and lent to the downlink.
func (cs *ClusterServer) sendNewNearbyQueries(oid model.ObjectID, prevCell, newCell grid.CellID, tid trace.ID) {
	fresh, runs := cs.freshBuf[:0], 0
	for i, nd := range cs.nodes {
		if cs.live[i] {
			n := len(fresh)
			if fresh = nd.FreshQueryStates(fresh, prevCell, newCell); len(fresh) > n {
				runs++
			}
		}
	}
	cs.freshBuf = fresh
	if len(fresh) == 0 {
		return
	}
	// Each node appended an ascending run and a query lives on one node, so
	// this is already ordered unless several nodes contributed (cells near a
	// span boundary) — and then nearly so.
	if runs > 1 {
		slices.SortFunc(fresh, func(a, b msg.QueryState) int { return cmp.Compare(a.QID, b.QID) })
	}
	cs.unicastAs("router", tid, oid, msg.QueryInstall{Queries: fresh})
	cs.ops.Add(1)
}

func (cs *ClusterServer) onDepartureReport(m msg.DepartureReport, tid trace.ID) {
	cs.upl.Add(1)
	cs.acctNodeUplink(-1, m.Kind(), m.Size()) // handled across nodes: charge the router ledger
	for i, nd := range cs.nodes {
		if cs.live[i] {
			nd.DepartSweep(m.OID, tid)
		}
	}
	if si, ok := cs.focalNode[m.OID]; ok {
		for _, qid := range cs.nodes[si].DepartFocal(m.OID, tid) {
			delete(cs.queryNode, qid)
		}
		delete(cs.focalNode, m.OID)
	}
	cs.book.depart(m.OID)
	cs.ops.Add(1)
}

// KillNode fail-stops node i *gracefully*: its span is redistributed over
// the surviving nodes and every focal it owns is drained to the new owners
// via admin (charge-free) handoffs, so protocol state, results and cost
// ledgers are preserved exactly. Killing the last live node is refused. A
// node lost *without* a drain is CrashNode's business: its rows replay
// from the router's checkpoint journal — see DESIGN.md §15.
func (cs *ClusterServer) KillNode(i int) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if i < 0 || i >= len(cs.nodes) {
		return fmt.Errorf("core: no such node %d", i)
	}
	if !cs.live[i] {
		return fmt.Errorf("core: node %d is already dead", i)
	}
	if cs.liveCount() == 1 {
		return fmt.Errorf("core: cannot kill the last live node")
	}
	cs.live[i] = false
	// The drain moves every focal off the node, so its journal is dead
	// weight; drop it rather than letting it shadow the handed-off rows.
	cs.journal[i] = nodeJournal{slices: make(map[model.ObjectID][]byte)}
	return cs.rebalanceLocked()
}

// Rebalance recomputes span assignments from the current focal distribution
// and migrates misplaced focals to their new owners via admin handoffs.
// Returns the number of focals moved.
func (cs *ClusterServer) Rebalance() (int, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	before := cs.migrationsAdminDone
	err := cs.rebalanceLocked()
	return cs.migrationsAdminDone - before, err
}

func (cs *ClusterServer) rebalanceLocked() error {
	cs.computeSpans()
	for _, mv := range cs.misplacedLocked() {
		if err := cs.adminHandoff(mv.si, mv.di, mv.oid); err != nil {
			return err
		}
	}
	// Rebalance edge (also reached by KillNode): re-evaluate the watchdog
	// against the fresh span assignment.
	cs.telemetryRoundLocked(false)
	return nil
}

// focalMove is one focal's admin handoff from node si to node di.
type focalMove struct {
	si, di int
	oid    model.ObjectID
}

// misplacedLocked lists the focals whose cell lies in another node's span
// — every focal a dead node still holds included — ascending by node and
// then oid. cs.mu held.
func (cs *ClusterServer) misplacedLocked() []focalMove {
	var moves []focalMove
	for i, nd := range cs.nodes {
		for _, oid := range nd.FocalIDs() {
			if cell, ok := nd.FocalCell(oid); ok {
				if want := cs.nodeOf(cell); want != i {
					moves = append(moves, focalMove{si: i, di: want, oid: oid})
				}
			}
		}
	}
	return moves
}

// adminHandoff moves a focal between nodes without touching the protocol
// cost model: rebalancing and drains are infrastructure, not messages on
// the wireless medium, so the serial-vs-clustered ledger identity holds
// across them.
func (cs *ClusterServer) adminHandoff(si, di int, oid model.ObjectID) error {
	slice, err := cs.nodes[si].ExtractFocal(oid, true, 0)
	if err != nil {
		return fmt.Errorf("core: admin handoff extract focal %d from node %d: %w", oid, si, err)
	}
	rec, st, cell, err := decodeFocalSlice(slice)
	if err != nil {
		return fmt.Errorf("core: admin handoff slice of focal %d: %w", oid, err)
	}
	if err := cs.nodes[di].InjectFocal(slice, st, cell, false, true, 0); err != nil {
		return fmt.Errorf("core: admin handoff inject focal %d into node %d: %w", oid, di, err)
	}
	if cs.rec != nil {
		cs.rec.Event(0, trace.KindMigrate, "router", int64(oid), 0, fmt.Sprintf("node%d -> node%d (rebalance)", si, di))
	}
	cs.focalNode[oid] = di
	for _, qid := range rec.fe.queries {
		cs.queryNode[qid] = di
	}
	cs.migrationsAdminDone++
	return nil
}

// SetResultListener installs a callback for every result change on the
// in-process nodes. A remote node has no listener, so its result changes
// reach no callback.
func (cs *ClusterServer) SetResultListener(fn func(ResultEvent)) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, ns := range cs.local {
		if ns != nil {
			ns.srv.SetResultListener(fn)
		}
	}
}

// atQueryNode calls method on the node that owns qid, under the router
// lock, and returns zero when no node owns it.
func atQueryNode[T any](cs *ClusterServer, qid model.QueryID, zero T, method func(NodeHandle) T) T {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ni, ok := cs.queryNode[qid]
	if !ok {
		return zero
	}
	return method(cs.nodes[ni])
}

// foldLive folds f over the live nodes, in index order, under the router
// lock.
func foldLive[T any](cs *ClusterServer, acc T, f func(T, NodeHandle) T) T {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for i, nd := range cs.nodes {
		if cs.live[i] {
			acc = f(acc, nd)
		}
	}
	return acc
}

// Result returns the current result set of a query as a sorted slice.
func (cs *ClusterServer) Result(qid model.QueryID) []model.ObjectID {
	return atQueryNode(cs, qid, nil, func(n NodeHandle) []model.ObjectID { return n.Result(qid) })
}

// ResultContains reports whether oid is currently in qid's result.
func (cs *ClusterServer) ResultContains(qid model.QueryID, oid model.ObjectID) bool {
	return atQueryNode(cs, qid, false, func(n NodeHandle) bool { return n.ResultContains(qid, oid) })
}

// ResultSize returns |result| for a query (0 for unknown queries).
func (cs *ClusterServer) ResultSize(qid model.QueryID) int {
	return atQueryNode(cs, qid, 0, func(n NodeHandle) int { return n.ResultSize(qid) })
}

// Query returns the descriptor of an installed query.
func (cs *ClusterServer) Query(qid model.QueryID) (q model.Query, ok bool) {
	ok = atQueryNode(cs, qid, false, func(n NodeHandle) bool { q, ok = n.Query(qid); return ok })
	return q, ok
}

// MonRegion returns the current monitoring region of a query.
func (cs *ClusterServer) MonRegion(qid model.QueryID) (r grid.CellRange, ok bool) {
	ok = atQueryNode(cs, qid, false, func(n NodeHandle) bool { r, ok = n.MonRegion(qid); return ok })
	return r, ok
}

// NumQueries returns the number of installed queries across all nodes.
func (cs *ClusterServer) NumQueries() int {
	return foldLive(cs, 0, func(n int, nd NodeHandle) int { return n + nd.NumQueries() })
}

// QueryIDs returns all installed query IDs across nodes, ascending.
func (cs *ClusterServer) QueryIDs() []model.QueryID {
	out := foldLive(cs, nil, func(out []model.QueryID, nd NodeHandle) []model.QueryID {
		return append(out, nd.QueryIDs()...)
	})
	slices.Sort(out)
	return out
}

// NearbyQueries returns RQI(cell) unioned across nodes, ascending.
func (cs *ClusterServer) NearbyQueries(cell grid.CellID) []model.QueryID {
	out := foldLive(cs, nil, func(out []model.QueryID, nd NodeHandle) []model.QueryID {
		return append(out, nd.NearbyQueries(cell)...)
	})
	slices.Sort(out)
	return out
}

// Ops returns the cumulative operation count: router dispatches plus every
// live node's table work.
func (cs *ClusterServer) Ops() int64 {
	return foldLive(cs, cs.ops.Value(), func(n int64, nd NodeHandle) int64 { return n + nd.Ops() })
}

// Migrations returns the cumulative number of protocol-driven cross-node
// focal handoffs (admin rebalancing moves are not counted).
func (cs *ClusterServer) Migrations() int64 { return cs.migrations.Value() }

// UplinksByNode returns the number of uplink messages dispatched to each
// node, indexed by node.
func (cs *ClusterServer) UplinksByNode() []int64 {
	out := make([]int64, len(cs.nUpl))
	for i, c := range cs.nUpl {
		out[i] = c.Value()
	}
	return out
}

// UplinksByShard is UplinksByNode under the name the frozen benchmark/ calls.
func (cs *ClusterServer) UplinksByShard() []int64 { return cs.UplinksByNode() }

// NodeSpan describes one node's current assignment for introspection and
// the admin `nodes` command. Fault carries the node's sticky transport
// error, when it has one — the explicit marker that this row's counts are
// zeros because the node is unreachable, not because its tables are empty.
type NodeSpan struct {
	Node    int    `json:"node"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Live    bool   `json:"live"`
	Focals  int    `json:"focals"`
	Queries int    `json:"queries"`
	Fault   string `json:"fault,omitempty"`
}

// Spans returns every node's current cell-range assignment and table sizes.
func (cs *ClusterServer) Spans() []NodeSpan {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]NodeSpan, len(cs.nodes))
	for i, nd := range cs.nodes {
		out[i] = NodeSpan{Node: i, Lo: cs.spanLo[i], Hi: cs.spanHi[i], Live: cs.live[i]}
		if cs.live[i] {
			out[i].Focals = len(nd.FocalIDs())
			out[i].Queries = nd.NumQueries()
		}
		if f, ok := nd.(interface{ Err() error }); ok {
			if err := f.Err(); err != nil {
				out[i].Fault = err.Error()
			}
		}
	}
	return out
}

// Instrument attaches the router's metrics to reg: router-level ops and
// uplink counters (node="router"), the uplinks dispatched to every node
// (node="i", remote nodes included: the router is the one that counts
// them), each in-process node's own series (NodeServer.Instrument under
// node="i"; a remote node's arrive through the telemetry plane), and the
// handoff counter. Uplink latency is the dispatching transport's to time.
func (cs *ClusterServer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(metricOps, helpOps, cs.ops, "node", "router")
	reg.RegisterCounter(metricUplinks, helpUplinks, cs.upl, "node", "router")
	reg.RegisterCounter(metricMigrations, helpMigrations, cs.migrations)
	reg.GaugeFunc(metricInflight, helpInflight, func() float64 {
		return float64(cs.inflight.Load())
	})
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.book.gauge = reg.Gauge(metricPending, helpPending)
	cs.book.publish()
	for i, ns := range cs.local {
		label := strconv.Itoa(i)
		reg.RegisterCounter(metricUplinks, helpUplinks, cs.nUpl[i], "node", label)
		if ns != nil {
			ns.Instrument(reg, "node", label)
		}
	}
}

// Snapshot serializes the router's durable state in the same format as the
// serial server — snapshots move freely between the two implementations and
// across node counts: each live node contributes its focal section, and the
// router merges them by oid under the header and pending section of its book.
func (cs *ClusterServer) Snapshot(w io.Writer) error {
	cs.mu.Lock()
	var focals [][]byte
	for i, nd := range cs.nodes {
		if !cs.live[i] {
			continue
		}
		section, err := nd.SnapshotData()
		if err != nil {
			cs.mu.Unlock()
			return err
		}
		part, err := splitFocalSection(section)
		if err != nil {
			cs.mu.Unlock()
			return fmt.Errorf("core: node %d snapshot data: %w", i, err)
		}
		focals = append(focals, part...)
	}
	slices.SortFunc(focals, func(a, b []byte) int { return cmp.Compare(sliceOID(a), sliceOID(b)) })
	b := appendSnapshot(nil, &cs.book, focals)
	cs.mu.Unlock()
	_, err := w.Write(b)
	return err
}

// Restore loads a snapshot written by any implementation into a router
// whose nodes hold no rows — in-process or TCP workers alike. Each focal
// slice goes to the node owning its cell exactly as crash replay sends a
// journaled one (injectSliceLocked); pending installations re-issue their
// FocalInfoRequests through the downlink. A node that still holds rows — a
// worker that outlived its router — makes Restore refuse.
func (cs *ClusterServer) Restore(r io.Reader) error {
	snap, err := readSnapshot(cs.g, r)
	if err != nil {
		return err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for i, nd := range cs.nodes {
		if n := len(nd.FocalIDs()); cs.live[i] && n > 0 {
			return fmt.Errorf("core: restore refused: node %d already holds %d focal rows", i, n)
		}
	}
	for _, f := range snap.focals {
		if _, err := cs.injectSliceLocked(f, 0); err != nil {
			return err
		}
	}
	for _, focal := range cs.book.restore(snap.nextQID, snap.pending) {
		cs.unicastAs("router", 0, focal, msg.FocalInfoRequest{OID: focal})
	}
	return nil
}

// injectSliceLocked installs an encoded focal slice on the node owning its
// cell — admin (charge-free) and relocate=false, so the node's rows are
// byte-identical to the slice and nothing is sent — and points the routing
// tables at that node. Crash replay and Restore both land rows this way.
// cs.mu held.
func (cs *ClusterServer) injectSliceLocked(slice []byte, tid trace.ID) (int, error) {
	rec, st, cell, err := decodeFocalSlice(slice)
	if err != nil {
		return 0, err
	}
	di := cs.nodeOf(cell)
	if err := cs.nodes[di].InjectFocal(slice, st, cell, false, true, tid); err != nil {
		return 0, fmt.Errorf("core: inject of focal %d into node %d: %w", rec.oid, di, err)
	}
	cs.focalNode[rec.oid] = di
	for _, qid := range rec.fe.queries {
		cs.queryNode[qid] = di
	}
	return di, nil
}

// CheckInvariants validates every node's internal consistency plus the
// cluster invariants: routing tables agree with node contents in both
// directions, each focal row lives in the node whose span owns its current
// cell, live spans partition the grid, dead nodes are empty, the query book
// is consistent with the routed queries, and every difference between a node's
// tables and its checkpoint journal is in the node's dirty set. Intended for
// tests and debugging.
func (cs *ClusterServer) CheckInvariants() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for idx := 0; idx < cs.g.NumCells(); idx++ {
		owners := 0
		for i := range cs.nodes {
			if cs.live[i] && idx >= cs.spanLo[i] && idx < cs.spanHi[i] {
				owners++
			}
		}
		if owners != 1 {
			return fmt.Errorf("core: cell index %d owned by %d live nodes", idx, owners)
		}
	}
	for i, nd := range cs.nodes {
		if !cs.live[i] {
			if n := nd.NumQueries(); n != 0 {
				return fmt.Errorf("core: dead node %d still owns %d queries", i, n)
			}
			if ids := nd.FocalIDs(); len(ids) != 0 {
				return fmt.Errorf("core: dead node %d still owns %d focals", i, len(ids))
			}
			continue
		}
		if err := nd.CheckInvariants(); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		for _, oid := range nd.FocalIDs() {
			cell, _ := nd.FocalCell(oid)
			if want := cs.nodeOf(cell); want != i {
				return fmt.Errorf("core: focal %d on node %d but %v is in node %d's span", oid, i, cell, want)
			}
			if ri, ok := cs.focalNode[oid]; !ok || ri != i {
				return fmt.Errorf("core: focal %d owned by node %d but routed to %d", oid, i, ri)
			}
		}
		for _, qid := range nd.QueryIDs() {
			if ri, ok := cs.queryNode[qid]; !ok || ri != i {
				return fmt.Errorf("core: query %d owned by node %d but routed to %d", qid, i, ri)
			}
		}
	}
	for oid, ni := range cs.focalNode {
		if _, ok := cs.nodes[ni].FocalCell(oid); !ok {
			return fmt.Errorf("core: focal %d routed to node %d which does not own it", oid, ni)
		}
	}
	// Every routed focal has a routed query, as every node's FOT row lists
	// one (checked per node above).
	routedFocal := make(map[model.ObjectID]bool, len(cs.focalNode))
	for qid, ni := range cs.queryNode {
		q, ok := cs.nodes[ni].Query(qid)
		if !ok {
			return fmt.Errorf("core: query %d routed to node %d which does not own it", qid, ni)
		}
		routedFocal[q.Focal] = true
	}
	for oid := range cs.focalNode {
		if !routedFocal[oid] {
			return fmt.Errorf("core: focal %d is routed but none of its queries is", oid)
		}
	}
	if err := cs.book.check(func(qid model.QueryID) bool { _, ok := cs.queryNode[qid]; return ok }); err != nil {
		return err
	}
	// Checkpoint mark-site completeness: on an in-process node that has been
	// pulled, whatever the journal and the tables disagree on must be marked
	// for the next delta — a missed markDirty fails here on the op it skips.
	for i, ns := range cs.local {
		if ns == nil || !cs.live[i] || ns.srv.dirty == nil {
			continue
		}
		journaled := cs.journal[i].slices
		for oid := range ns.srv.fot {
			if _, marked := ns.srv.dirty[oid]; !marked && !bytes.Equal(journaled[oid], ns.srv.encodeFocalState(oid)) {
				return fmt.Errorf("core: node %d focal %d differs from its journaled slice but is not marked dirty", i, oid)
			}
		}
		for oid := range journaled {
			_, inFOT := ns.srv.fot[oid]
			_, marked := ns.srv.dirty[oid]
			if !inFOT && !marked {
				return fmt.Errorf("core: node %d journal holds focal %d, which left the node unmarked", i, oid)
			}
		}
	}
	return nil
}

// Close closes every node handle (a no-op for in-process nodes; the TCP
// tier tears down worker connections).
func (cs *ClusterServer) Close() error {
	var first error
	for _, nd := range cs.nodes {
		if err := nd.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
