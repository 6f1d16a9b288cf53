package core

import (
	"fmt"

	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/wire"
)

// NodeHandle is the operation surface a cluster router drives a worker node
// through: the per-dispatch table operations of the MobiEyes protocol, the
// byte-mediated focal handoff, and the introspection the router aggregates.
// Two implementations exist: NodeServer executes in-process, and
// internal/cluster's RemoteNode forwards each call over the wire protocol
// (NodeOp/Handoff frames) to a worker hosting a NodeServer. Every call
// carries the causal-trace ID of the uplink or API call that triggered it.
//
// Methods are not safe for concurrent use; the ClusterServer serializes all
// calls under its router mutex.
type NodeHandle interface {
	// Query lifecycle.
	CompleteInstall(qid model.QueryID, q model.Query, maxVel float64, expiry model.Time, tid trace.ID)
	RemoveQuery(qid model.QueryID, tid trace.ID) (removed bool, focal model.ObjectID, stillFocal bool)
	DueExpiries(now model.Time) []model.QueryID

	// Uplink-driven table operations (§3.4–3.6).
	UpsertFocal(oid model.ObjectID, st model.MotionState, tid trace.ID)
	VelocityReport(m msg.VelocityReport, tid trace.ID)
	ContainmentReport(m msg.ContainmentReport, tid trace.ID)
	GroupContainmentReport(m msg.GroupContainmentReport, tid trace.ID)
	FocalCellChange(oid model.ObjectID, st model.MotionState, newCell grid.CellID, tid trace.ID)
	// FreshQueryStates appends RQI(newCell) ∖ RQI(prevCell) to dst, ascending
	// by query ID, and returns the extended slice.
	FreshQueryStates(dst []msg.QueryState, prevCell, newCell grid.CellID) []msg.QueryState
	ClearResults(oid model.ObjectID, tid trace.ID)
	DepartSweep(oid model.ObjectID, tid trace.ID)
	DepartFocal(oid model.ObjectID, tid trace.ID) []model.QueryID

	// Cross-node focal handoff: ExtractFocal detaches the focal's complete
	// state as an encoded focal slice (phase one — the source has drained
	// its sends and forgotten the rows when it returns); InjectFocal
	// installs the slice (phase two — acknowledged before the router
	// updates its routing tables). admin marks charge-free infrastructure
	// transfers (rebalancing, node drain) outside the protocol cost model.
	ExtractFocal(oid model.ObjectID, admin bool, tid trace.ID) ([]byte, error)
	InjectFocal(slice []byte, st model.MotionState, cell grid.CellID, relocate, admin bool, tid trace.ID) error

	// Introspection, aggregated by the router.
	Result(qid model.QueryID) []model.ObjectID
	ResultContains(qid model.QueryID, oid model.ObjectID) bool
	ResultSize(qid model.QueryID) int
	Query(qid model.QueryID) (model.Query, bool)
	MonRegion(qid model.QueryID) (grid.CellRange, bool)
	NumQueries() int
	QueryIDs() []model.QueryID
	NearbyQueries(cell grid.CellID) []model.QueryID
	FocalIDs() []model.ObjectID
	FocalCell(oid model.ObjectID) (grid.CellID, bool)
	Ops() int64

	// Durability and diagnostics. CheckpointDelta returns the focal-slice
	// changes since the caller's last checkpoint sequence (the router pulls
	// one each telemetry round and journals the slices so an ungraceful
	// crash is recoverable — DESIGN.md §15); since must equal the node's
	// current sequence or the exchange errors.
	CheckpointDelta(since uint64) (CheckpointDelta, error)
	// SnapshotData returns the node's focal section of a snapshot: every
	// FOT row's focal slice, ascending by oid, exactly the bytes the serial
	// server writes for those rows; the router merges the sections.
	SnapshotData() ([]byte, error)
	CheckInvariants() error
	Close() error
}

// NodeServer is the in-process NodeHandle: a serial Server restricted to
// the focal objects whose current cell falls in this node's assigned range.
// It is both the executor a cluster Worker hosts behind the wire protocol
// and the node implementation of the in-process ClusterServer.
type NodeServer struct {
	srv *Server

	// ckptSeq is the checkpoint sequence, bumped by every non-empty
	// CheckpointDelta. What the next delta carries is the wrapped server's
	// dirty set; the node keeps no copy of what it last shipped.
	ckptSeq uint64
}

// NewNodeServer returns a node executor over grid g sending through down.
func NewNodeServer(g *grid.Grid, opts Options, down Downlink) *NodeServer {
	return &NodeServer{srv: NewServer(g, opts, down)}
}

// run invokes fn with the node's dispatch trace set to tid, then refreshes
// the table-size gauges (a no-op on an uninstrumented node).
func (n *NodeServer) run(tid trace.ID, fn func(s *Server)) {
	prev := n.srv.curTrace
	n.srv.curTrace = tid
	fn(n.srv)
	n.srv.curTrace = prev
	n.srv.syncTableGauges()
}

// Instrument attaches the node's metrics to reg under labels: its ops
// counter, broadcast count and cell fan-out, and the FOT/SQT/RQI size
// gauges, which run refreshes after every op. The router labels an
// in-process node node="i"; a worker registers its node unlabelled and the
// router's telemetry plane adds the label on import. Uplinks, their
// latency and pending installs are the router's to count, not the node's.
// Safe to call with a nil registry (no-op).
func (n *NodeServer) Instrument(reg *obs.Registry, labels ...string) {
	if reg == nil {
		return
	}
	s := n.srv
	reg.RegisterCounter(metricOps, helpOps, s.ops, labels...)
	s.obsm = &serverObs{
		broadcasts:     reg.Counter(metricBroadcasts, helpBroadcasts, labels...),
		broadcastCells: reg.Histogram(metricBroadcastCells, helpBroadcastCells, obs.SizeBuckets, labels...),
		fotSize:        reg.Gauge(metricFOTSize, helpFOTSize, labels...),
		sqtSize:        reg.Gauge(metricSQTSize, helpSQTSize, labels...),
		rqiEntries:     reg.Gauge(metricRQIEntries, helpRQIEntries, labels...),
	}
	s.syncTableGauges()
}

// SetTracer attaches a flight recorder under the given actor name
// ("node0", "node1", …).
func (n *NodeServer) SetTracer(rec *trace.Recorder, actor string) {
	n.srv.setTracer(rec, actor)
}

// Underlying exposes the wrapped serial server for host-side wiring
// (accounting) that stays outside the NodeHandle operation surface.
func (n *NodeServer) Underlying() *Server { return n.srv }

func (n *NodeServer) CompleteInstall(qid model.QueryID, q model.Query, maxVel float64, expiry model.Time, tid trace.ID) {
	n.run(tid, func(s *Server) { s.completeInstall(qid, q, maxVel, expiry) })
}

func (n *NodeServer) RemoveQuery(qid model.QueryID, tid trace.ID) (removed bool, focal model.ObjectID, stillFocal bool) {
	n.run(tid, func(s *Server) {
		e, installed := s.sqt[qid]
		if !installed {
			return
		}
		focal, removed = e.query.Focal, true
		s.removeQuery(e)
		_, stillFocal = s.fot[focal]
	})
	return removed, focal, stillFocal
}

func (n *NodeServer) DueExpiries(now model.Time) []model.QueryID { return n.srv.dueInstalled(now) }

func (n *NodeServer) UpsertFocal(oid model.ObjectID, st model.MotionState, tid trace.ID) {
	n.run(tid, func(s *Server) { s.upsertFocal(oid, st) })
}

func (n *NodeServer) VelocityReport(m msg.VelocityReport, tid trace.ID) {
	n.run(tid, func(s *Server) { s.OnVelocityReport(m) })
}

func (n *NodeServer) ContainmentReport(m msg.ContainmentReport, tid trace.ID) {
	n.run(tid, func(s *Server) { s.OnContainmentReport(m) })
}

func (n *NodeServer) GroupContainmentReport(m msg.GroupContainmentReport, tid trace.ID) {
	n.run(tid, func(s *Server) { s.OnGroupContainmentReport(m) })
}

func (n *NodeServer) FocalCellChange(oid model.ObjectID, st model.MotionState, newCell grid.CellID, tid trace.ID) {
	n.run(tid, func(s *Server) { s.focalCellChange(oid, st, newCell) })
}

func (n *NodeServer) FreshQueryStates(dst []msg.QueryState, prevCell, newCell grid.CellID) []msg.QueryState {
	return n.srv.freshQueryStates(dst, prevCell, newCell)
}

func (n *NodeServer) ClearResults(oid model.ObjectID, tid trace.ID) {
	n.run(tid, func(s *Server) { s.clearObjectFromResults(oid) })
}

func (n *NodeServer) DepartSweep(oid model.ObjectID, tid trace.ID) {
	n.run(tid, func(s *Server) { s.departSweep(oid) })
}

func (n *NodeServer) DepartFocal(oid model.ObjectID, tid trace.ID) []model.QueryID {
	var qids []model.QueryID
	n.run(tid, func(s *Server) { qids = s.departFocal(oid) })
	return qids
}

func (n *NodeServer) ExtractFocal(oid model.ObjectID, admin bool, tid trace.ID) ([]byte, error) {
	if _, ok := n.srv.fot[oid]; !ok {
		return nil, errNoFocal
	}
	restore := n.suspendCharges(admin)
	var slice []byte
	n.run(tid, func(s *Server) { slice = encodeFocalSlice(s.extractFocal(oid)) })
	restore()
	return slice, nil
}

// InjectFocal refuses, before touching a table, a slice that fails
// checkFocalRecord, a target cell off the grid, and a focal or query the
// node already holds: the slice is a peer's bytes, and any of these would
// leave tables CheckInvariants rejects.
func (n *NodeServer) InjectFocal(slice []byte, st model.MotionState, cell grid.CellID, relocate, admin bool, tid trace.ID) error {
	rec, _, _, err := decodeFocalSlice(slice)
	if err != nil {
		return err
	}
	if err := n.checkInject(rec, cell); err != nil {
		return fmt.Errorf("core: focal slice: %w", err)
	}
	restore := n.suspendCharges(admin)
	n.run(tid, func(s *Server) { s.injectFocal(rec, st, cell, relocate) })
	restore()
	return nil
}

func (n *NodeServer) checkInject(rec focalRecord, cell grid.CellID) error {
	s := n.srv
	if err := checkFocalRecord(s.g, rec); err != nil {
		return err
	}
	if !s.g.Valid(cell) {
		return fmt.Errorf("focal %d: target %v is off the grid", rec.oid, cell)
	}
	if _, ok := s.fot[rec.oid]; ok {
		return fmt.Errorf("focal %d is already held", rec.oid)
	}
	for _, qid := range rec.fe.queries {
		if _, ok := s.sqt[qid]; ok {
			return fmt.Errorf("query %d is already held", qid)
		}
	}
	return nil
}

// suspendCharges disables cost accounting for the duration of an admin
// (infrastructure) transfer: rebalancing and node drains move state without
// protocol messages, so they must not perturb the cost model the
// differential ledger oracle compares against the serial server.
func (n *NodeServer) suspendCharges(admin bool) func() {
	if !admin {
		return func() {}
	}
	saved := n.srv.acct
	n.srv.acct = nil
	return func() { n.srv.acct = saved }
}

func (n *NodeServer) Result(qid model.QueryID) []model.ObjectID { return n.srv.Result(qid) }
func (n *NodeServer) ResultContains(qid model.QueryID, oid model.ObjectID) bool {
	return n.srv.ResultContains(qid, oid)
}
func (n *NodeServer) ResultSize(qid model.QueryID) int            { return n.srv.ResultSize(qid) }
func (n *NodeServer) Query(qid model.QueryID) (model.Query, bool) { return n.srv.Query(qid) }
func (n *NodeServer) MonRegion(qid model.QueryID) (grid.CellRange, bool) {
	return n.srv.MonRegion(qid)
}
func (n *NodeServer) NumQueries() int           { return n.srv.NumQueries() }
func (n *NodeServer) QueryIDs() []model.QueryID { return n.srv.QueryIDs() }
func (n *NodeServer) NearbyQueries(cell grid.CellID) []model.QueryID {
	return n.srv.NearbyQueries(cell)
}

func (n *NodeServer) FocalIDs() []model.ObjectID { return n.srv.focalIDs() }

func (n *NodeServer) FocalCell(oid model.ObjectID) (grid.CellID, bool) {
	fe, ok := n.srv.fot[oid]
	if !ok {
		return grid.CellID{}, false
	}
	return fe.currCell, true
}

func (n *NodeServer) Ops() int64 { return n.srv.Ops() }

func (n *NodeServer) SnapshotData() ([]byte, error) {
	var w wire.Writer
	writeFocalSection(&w, n.srv.focalSlices())
	return w.Bytes(), nil
}

func (n *NodeServer) CheckInvariants() error { return n.srv.CheckInvariants() }

func (n *NodeServer) Close() error { return nil }

var _ NodeHandle = (*NodeServer)(nil)
