package core

import (
	"encoding/binary"
	"fmt"

	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/trace"
)

// Crash recovery (DESIGN.md §15). Workers periodically checkpoint their
// focal rows to the router as compact deltas of versioned focal slices (the
// handoff encoding, produced non-destructively); the router journals the
// last checkpoint per node next to its own pending tables. When a node dies
// without a drain, the router fences its epoch, reassigns its span, and
// replays the journaled slices into the new owners through the same
// two-phase InjectFocal path a handoff uses — results ride the slices, so
// everything at or before the checkpoint watermark is re-emitted exactly
// once and anything newer is re-derived from the next uplinks.

// CheckpointDelta is the incremental checkpoint of one node's focal rows:
// the slice of every focal written since the previous checkpoint sequence,
// plus the oids whose rows vanished. An empty delta (no slices, no
// removals) leaves Seq unchanged — the journal is already current.
type CheckpointDelta struct {
	Seq     uint64
	Removed []model.ObjectID // strictly ascending
	Slices  [][]byte         // changed focal slices, ascending by oid
}

// encodeFocalState serializes oid's focal row non-destructively — the same
// bytes ExtractFocal would produce, with the rows left in place. The caller
// must know oid is present.
func (s *Server) encodeFocalState(oid model.ObjectID) []byte {
	fe := s.fot[oid]
	rec := focalRecord{oid: oid, fe: fe, entries: make([]*sqtEntry, 0, len(fe.queries))}
	for _, qid := range fe.queries {
		rec.entries = append(rec.entries, s.sqt[qid])
	}
	return encodeFocalSlice(rec)
}

// FocalSliceOID reads the object ID out of an encoded focal slice without a
// full decode — the key under which journals and handoff frames file it.
func FocalSliceOID(b []byte) (model.ObjectID, error) {
	if len(b) < 6 || binary.LittleEndian.Uint16(b) != focalSliceVersion {
		return 0, fmt.Errorf("core: focal slice: truncated or unsupported header")
	}
	return sliceOID(b), nil
}

// sliceOID is FocalSliceOID for a slice whose header is known to be intact.
func sliceOID(b []byte) model.ObjectID { return model.ObjectID(binary.LittleEndian.Uint32(b[2:])) }

// CheckpointDelta builds the node's checkpoint delta from the wrapped
// server's dirty set: a slice for every marked focal still in the FOT, a
// Removed entry for every marked focal that is not, ascending by oid — work
// proportional to what changed since the last pull, not to the table. The
// first pull of a node finds no set (nobody was tracking), scans the whole
// FOT and starts tracking. A mark is conservative: a focal whose bytes ended
// up unchanged ships a redundant slice, and one created and removed between
// two pulls ships a Removed oid the router's journal never held, which its
// delete ignores. The set is cleared only once the delta is built.
//
// since must match the node's current checkpoint sequence (the router always
// requests with the sequence it last journaled, and the exchange is
// synchronous, so a mismatch means the two sides have diverged — an error,
// not something to paper over); it leaves the dirty set intact.
func (n *NodeServer) CheckpointDelta(since uint64) (CheckpointDelta, error) {
	if since != n.ckptSeq {
		return CheckpointDelta{}, fmt.Errorf("core: checkpoint desync: node at seq %d, router requested since %d", n.ckptSeq, since)
	}
	s := n.srv
	var oids []model.ObjectID
	if s.dirty == nil {
		oids = n.FocalIDs()
		s.dirty = make(map[model.ObjectID]struct{})
	} else {
		oids = make([]model.ObjectID, 0, len(s.dirty))
		for oid := range s.dirty {
			oids = append(oids, oid)
		}
		sortOIDs(oids)
	}
	d := CheckpointDelta{Seq: n.ckptSeq}
	for _, oid := range oids {
		if _, ok := s.fot[oid]; ok {
			d.Slices = append(d.Slices, s.encodeFocalState(oid))
		} else {
			d.Removed = append(d.Removed, oid)
		}
	}
	clear(s.dirty)
	if len(oids) > 0 {
		n.ckptSeq++
		d.Seq = n.ckptSeq
	}
	return d, nil
}

// nodeJournal is the router's copy of one node's last checkpoint: the
// focal slices current as of sequence seq, keyed by oid.
type nodeJournal struct {
	seq    uint64
	slices map[model.ObjectID][]byte
}

// Checkpoint pulls a checkpoint delta from every live node and folds it
// into the router's journals. The simtest runner calls it after every
// operation (zero-loss watermark for the convergence oracle); a live
// deployment reaches it through TelemetryRound, about once a second.
func (cs *ClusterServer) Checkpoint() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.checkpointLocked()
}

func (cs *ClusterServer) checkpointLocked() error {
	var first error
	for i := range cs.nodes {
		if !cs.live[i] {
			continue
		}
		if err := cs.checkpointNodeLocked(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// checkpointNodeLocked pulls one node's delta into its journal. A failed
// pull leaves the journal at its previous watermark — recovery then loses
// exactly what arrived after it, never half a delta.
func (cs *ClusterServer) checkpointNodeLocked(i int) error {
	j := &cs.journal[i]
	d, err := cs.nodes[i].CheckpointDelta(j.seq)
	if err != nil {
		return fmt.Errorf("core: checkpoint of node %d: %w", i, err)
	}
	for _, oid := range d.Removed {
		delete(j.slices, oid)
	}
	for _, s := range d.Slices {
		oid, err := FocalSliceOID(s)
		if err != nil {
			return fmt.Errorf("core: checkpoint of node %d: %w", i, err)
		}
		j.slices[oid] = s
	}
	j.seq = d.Seq
	return nil
}

// JournalSize returns the number of focal slices journaled for node i and
// the journal's checkpoint sequence — introspection for tests and the
// admin surface.
func (cs *ClusterServer) JournalSize(i int) (slices int, seq uint64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.journal[i].slices), cs.journal[i].seq
}

// CrashNode fail-stops node i *ungracefully*: no drain, no extract — the
// transport is severed (RemoteNode connections close mid-stream), the
// node's epoch is fenced by a span recomputation, and its journaled focal
// slices are replayed into the surviving owners. Everything at or before
// the last checkpoint watermark — rows, monitoring regions, result sets —
// resumes exactly; anything newer is gone until the objects' next uplinks
// re-derive it. Any node can crash, in-process or remote: every node is
// journaled. Crashing the last live node is refused.
func (cs *ClusterServer) CrashNode(i int) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if i < 0 || i >= len(cs.nodes) {
		return fmt.Errorf("core: no such node %d", i)
	}
	if !cs.live[i] {
		return fmt.Errorf("core: node %d is already dead", i)
	}
	if cs.liveCount() == 1 {
		return fmt.Errorf("core: cannot crash the last live node")
	}
	cs.crashLocked(i, 0)
	return nil
}

// crashLocked is the fence-and-replay core of crash recovery; callers have
// validated that i is live and not the last survivor.
func (cs *ClusterServer) crashLocked(i int, tid trace.ID) {
	if cs.rec != nil {
		cs.rec.Event(tid, trace.KindNote, "router", 0, 0, fmt.Sprintf("node%d crashed; recovering", i))
	}
	// Sever the transport first: a RemoteNode's connection closes with no
	// goodbye, so nothing can reach the dead worker mid-recovery.
	if sv, ok := cs.nodes[i].(interface{ Sever() }); ok {
		sv.Sever()
	}
	// The handle is replaced by a tombstone: an in-process NodeServer still
	// holds its rows (nobody drained it — that is the point), and the
	// cluster invariants require a dead node to report empty tables.
	cs.nodes[i] = &crashedNode{reason: fmt.Errorf("core: node %d crashed", i)}
	if cs.local != nil && cs.local[i] != nil {
		// Its table gauges go to 0 with it: the replay below moves its rows
		// into survivors, whose own gauges then count them.
		cs.local[i].srv.clearTableGauges()
		cs.local[i] = nil
	}
	cs.tel.NoteRecoveryStart(i)
	// Fence: the dead node's span is reassigned to survivors and the epoch
	// bumps, so any frame the dead worker had in flight is stale on arrival.
	cs.live[i] = false
	cs.computeSpans()
	if !cs.suppressReplay {
		cs.replayJournalLocked(i, tid)
	}
	// Sweep the routing tables for anything still pointing at the dead
	// node: rows created after the checkpoint watermark (none when the
	// caller checkpoints every op). Those queries and focals are lost until
	// re-derived — with replay suppressed, this is all of them.
	for oid, ni := range cs.focalNode {
		if ni == i {
			delete(cs.focalNode, oid)
		}
	}
	for qid, ni := range cs.queryNode {
		if ni == i {
			delete(cs.queryNode, qid)
		}
	}
	// The fence reassigned *every* span boundary, not just the dead node's:
	// survivors' focals whose cells landed in another node's new span are now
	// misplaced and must migrate, exactly as after a rebalance. (Replay above
	// already injected the dead node's focals at their post-fence owners.)
	for _, mv := range cs.misplacedLocked() {
		if err := cs.adminHandoff(mv.si, mv.di, mv.oid); err != nil {
			panic(fmt.Sprintf("core: recovery migration of focal %d from node %d to node %d: %v", mv.oid, mv.si, mv.di, err))
		}
	}
	cs.telemetryRoundLocked(false)
	cs.tel.NoteRecoveryDone(i)
}

// replayJournalLocked re-injects node i's journaled focal slices into the
// nodes that now own their cells, flipping the routing tables exactly like
// a handoff's phase two. Injection (injectSliceLocked, shared with Restore)
// is admin (charge-free: the slices never crossed the wireless medium
// again) and relocate=false (the slices carry the monitoring regions
// current at the watermark), so replay sends nothing and the restored
// tables are byte-identical to the checkpoint.
func (cs *ClusterServer) replayJournalLocked(i int, tid trace.ID) {
	j := &cs.journal[i]
	oids := make([]model.ObjectID, 0, len(j.slices))
	for oid := range j.slices {
		oids = append(oids, oid)
	}
	sortOIDs(oids)
	for _, oid := range oids {
		// A journal entry is authoritative only while the router still maps
		// the focal to the dead node. Slices for focals that handed off to
		// another node (or departed) after the watermark are stale shadows —
		// the next checkpoint would have reported them Removed — and
		// replaying one would overwrite the newer rows their current owner
		// holds.
		if ni, ok := cs.focalNode[oid]; !ok || ni != i {
			continue
		}
		di, err := cs.injectSliceLocked(j.slices[oid], tid)
		if err != nil {
			panic(fmt.Sprintf("core: recovery replay of focal %d from node %d journal: %v", oid, i, err))
		}
		if cs.rec != nil {
			cs.rec.Event(tid, trace.KindMigrate, "router", int64(oid), 0, fmt.Sprintf("node%d -> node%d (recovery)", i, di))
		}
	}
	j.slices = make(map[model.ObjectID][]byte)
	j.seq = 0
}

// ArmCrashOnHandoff makes the next cross-node handoff *out of* node i crash
// i at the most hostile instant: after the source's destructive extract,
// before the destination's inject. The extracted slice in the router's hand
// supersedes the journal entry and is injected exactly once into whichever
// node owns the cell after the fence — the mid-handoff case the crash
// sweep exercises. A test hook; -1 disarms.
func (cs *ClusterServer) ArmCrashOnHandoff(i int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.armedHandoffCrash = i
}

// SuppressRecoveryReplay disables the journal-replay step of crash
// recovery — the deliberate-bug hook the simtest teeth test uses to prove
// the convergence oracle notices lost state.
func (cs *ClusterServer) SuppressRecoveryReplay(on bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.suppressReplay = on
}

// crashedNode is the tombstone handle installed for a crashed node: every
// operation is an inert no-op reporting empty tables, and Err carries the
// crash for the admin `nodes` dump. The real handle (and, in process, its
// undrained rows) is abandoned with the crash.
type crashedNode struct {
	reason error
}

func (c *crashedNode) Err() error { return c.reason }

func (*crashedNode) CompleteInstall(model.QueryID, model.Query, float64, model.Time, trace.ID) {}
func (*crashedNode) RemoveQuery(model.QueryID, trace.ID) (bool, model.ObjectID, bool) {
	return false, 0, false
}
func (*crashedNode) DueExpiries(model.Time) []model.QueryID                      { return nil }
func (*crashedNode) UpsertFocal(model.ObjectID, model.MotionState, trace.ID)     {}
func (*crashedNode) VelocityReport(msg.VelocityReport, trace.ID)                 {}
func (*crashedNode) ContainmentReport(msg.ContainmentReport, trace.ID)           {}
func (*crashedNode) GroupContainmentReport(msg.GroupContainmentReport, trace.ID) {}
func (*crashedNode) FocalCellChange(model.ObjectID, model.MotionState, grid.CellID, trace.ID) {
}
func (*crashedNode) FreshQueryStates(dst []msg.QueryState, _, _ grid.CellID) []msg.QueryState {
	return dst
}
func (*crashedNode) ClearResults(model.ObjectID, trace.ID) {}
func (*crashedNode) DepartSweep(model.ObjectID, trace.ID)  {}
func (*crashedNode) DepartFocal(model.ObjectID, trace.ID) []model.QueryID {
	return nil
}
func (c *crashedNode) ExtractFocal(model.ObjectID, bool, trace.ID) ([]byte, error) {
	return nil, c.reason
}
func (c *crashedNode) InjectFocal([]byte, model.MotionState, grid.CellID, bool, bool, trace.ID) error {
	return c.reason
}
func (c *crashedNode) CheckpointDelta(uint64) (CheckpointDelta, error) {
	return CheckpointDelta{}, c.reason
}
func (*crashedNode) Result(model.QueryID) []model.ObjectID             { return nil }
func (*crashedNode) ResultContains(model.QueryID, model.ObjectID) bool { return false }
func (*crashedNode) ResultSize(model.QueryID) int                      { return 0 }
func (*crashedNode) Query(model.QueryID) (model.Query, bool)           { return model.Query{}, false }
func (*crashedNode) MonRegion(model.QueryID) (grid.CellRange, bool)    { return grid.CellRange{}, false }
func (*crashedNode) NumQueries() int                                   { return 0 }
func (*crashedNode) QueryIDs() []model.QueryID                         { return nil }
func (*crashedNode) NearbyQueries(grid.CellID) []model.QueryID         { return nil }
func (*crashedNode) FocalIDs() []model.ObjectID                        { return nil }
func (*crashedNode) FocalCell(model.ObjectID) (grid.CellID, bool)      { return grid.CellID{}, false }
func (*crashedNode) Ops() int64                                        { return 0 }
func (c *crashedNode) SnapshotData() ([]byte, error)                   { return nil, c.reason }
func (*crashedNode) CheckInvariants() error                            { return nil }
func (*crashedNode) Close() error                                      { return nil }

var _ NodeHandle = (*crashedNode)(nil)
