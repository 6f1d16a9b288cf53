package cluster

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/telemetry"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/remote"
	"mobieyes/internal/wire"
)

// RemoteNode is the router-side core.NodeHandle over a worker connection:
// every call becomes one synchronous exchange — a NodeOp (or Handoff) frame
// out, then NodeDownlink frames replayed into the router's downlink as they
// arrive, then the NodeOpDone (or HandoffAck) that completes the call. The
// ClusterServer serializes calls under its router mutex, so a RemoteNode
// never has two exchanges in flight.
//
// A transport failure is sticky: the node answers subsequent calls with zero
// values and reports the error through Err, and the operator (or the
// heartbeat loop) is expected to KillNode it out of the cluster — mirroring
// how an unreachable worker behaves.
type RemoteNode struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	node  uint32
	down  core.Downlink
	tdown core.TracedDownlink
	tel   *telemetry.Plane
	seq   uint64
	err   error
}

// SetTelemetry routes this node's pushed NodeTelemetry frames and heartbeat
// NodeStatus answers into the router's telemetry plane, and registers the
// node with the plane's liveness watchdog. A nil plane (telemetry disabled)
// leaves frames consumed but dropped.
func (rn *RemoteNode) SetTelemetry(p *telemetry.Plane) {
	rn.tel = p
	p.ExpectNode(int(rn.node))
}

// Dial connects to a worker, performs the NodeHello handshake announcing
// node index and ProtoVersion, and returns the handle. Downlinks the worker
// emits are replayed into down.
func Dial(addr string, node int, down core.Downlink) (*RemoteNode, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	rn, err := NewRemoteNode(conn, node, down)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return rn, nil
}

// NewRemoteNode performs the handshake over an established connection. A
// worker speaking a different protocol version yields a *VersionError.
func NewRemoteNode(conn net.Conn, node int, down core.Downlink) (*RemoteNode, error) {
	rn := &RemoteNode{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
		node: uint32(node),
		down: down,
	}
	rn.tdown, _ = down.(core.TracedDownlink)
	hello := msg.NodeHello{Node: rn.node, Proto: ProtoVersion}
	if err := remote.WriteFrame(rn.bw, wire.Encode(hello)); err != nil {
		return nil, err
	}
	if err := rn.bw.Flush(); err != nil {
		return nil, err
	}
	payload, err := remote.ReadFrame(rn.br)
	if err != nil {
		return nil, fmt.Errorf("cluster: handshake with node %d: %w", node, err)
	}
	m, err := wire.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("cluster: handshake with node %d: %w", node, err)
	}
	back, ok := m.(msg.NodeHello)
	if !ok {
		return nil, fmt.Errorf("cluster: handshake with node %d: got %v, want NodeHello", node, m.Kind())
	}
	if back.Proto != ProtoVersion {
		return nil, &VersionError{Node: back.Node, Got: back.Proto}
	}
	return rn, nil
}

// Err reports the sticky transport error, if any.
func (rn *RemoteNode) Err() error { return rn.err }

// NodeID returns the node index announced in the handshake.
func (rn *RemoteNode) NodeID() int { return int(rn.node) }

// fail records the first transport error; the node is dead from here on.
func (rn *RemoteNode) fail(err error) error {
	if rn.err == nil {
		rn.err = fmt.Errorf("cluster: node %d: %w", rn.node, err)
		rn.conn.Close()
	}
	return rn.err
}

// exchange sends m and pumps incoming frames — replaying NodeDownlink — until
// the completing reply arrives.
func (rn *RemoteNode) exchange(m msg.Message, tid trace.ID) (msg.Message, error) {
	if rn.err != nil {
		return nil, rn.err
	}
	if err := remote.WriteFrame(rn.bw, wire.EncodeTraced(m, uint64(tid))); err != nil {
		return nil, rn.fail(err)
	}
	if err := rn.bw.Flush(); err != nil {
		return nil, rn.fail(err)
	}
	for {
		payload, err := remote.ReadFrame(rn.br)
		if err != nil {
			return nil, rn.fail(err)
		}
		reply, rtid, err := wire.DecodeTraced(payload)
		if err != nil {
			return nil, rn.fail(err)
		}
		switch mm := reply.(type) {
		case msg.NodeDownlink:
			rn.replay(mm, trace.ID(rtid))
		case msg.NodeTelemetry:
			// Telemetry streams ahead of the completing reply, like
			// downlinks; a payload the plane cannot decode means the
			// stream is corrupt, which is fatal for the connection.
			if err := rn.tel.Apply(int(mm.Node), mm.Seq, mm.Payload); err != nil {
				return nil, rn.fail(err)
			}
		case msg.NodeOpDone, msg.HandoffAck, msg.NodeStatus, msg.NodeCheckpoint:
			return reply, nil
		default:
			return nil, rn.fail(fmt.Errorf("unexpected %v frame", mm.Kind()))
		}
	}
}

// replay forwards a worker downlink into the router's transport.
func (rn *RemoteNode) replay(nd msg.NodeDownlink, tid trace.ID) {
	inner, err := wire.Decode(nd.Inner)
	if err != nil {
		rn.fail(fmt.Errorf("downlink payload: %w", err))
		return
	}
	switch {
	case nd.Broadcast && rn.tdown != nil:
		rn.tdown.BroadcastTraced(nd.Region, inner, tid)
	case nd.Broadcast:
		rn.down.Broadcast(nd.Region, inner)
	case rn.tdown != nil:
		rn.tdown.UnicastTraced(nd.Target, inner, tid)
	default:
		rn.down.Unicast(nd.Target, inner)
	}
}

// op runs one NodeOp exchange and returns the reply payload.
func (rn *RemoteNode) op(code uint8, data []byte, tid trace.ID) ([]byte, error) {
	rn.seq++
	reply, err := rn.exchange(msg.NodeOp{Seq: rn.seq, Code: code, Data: data}, tid)
	if err != nil {
		return nil, err
	}
	done, ok := reply.(msg.NodeOpDone)
	if !ok {
		return nil, rn.fail(fmt.Errorf("op %d answered by %v", code, reply.Kind()))
	}
	if done.Code == opError {
		return nil, fmt.Errorf("cluster: node %d: %s", rn.node, done.Data)
	}
	if done.Seq != rn.seq || done.Code != code {
		return nil, rn.fail(fmt.Errorf("op %d/seq %d answered by op %d/seq %d",
			code, rn.seq, done.Code, done.Seq))
	}
	return done.Data, nil
}

// mustOp runs an exchange for the NodeHandle methods that cannot surface an
// error and returns a reader over the reply; failures stick on the handle,
// and the reader then yields zero values.
func (rn *RemoteNode) mustOp(code uint8, data []byte, tid trace.ID) *wire.Reader {
	out, err := rn.op(code, data, tid)
	if err != nil {
		rn.fail(err)
	}
	r := wire.NewReader(out)
	return &r
}

// Heartbeat runs one synchronous liveness probe — the one a router's
// TelemetryRound finds on every live remote node. The worker answers with a
// NodeStatus (its span epoch, range and op count), preceded by any pending
// telemetry; the round-trip time, status and any probe failure feed the
// telemetry plane's watchdog.
func (rn *RemoteNode) Heartbeat() error {
	rn.seq++
	start := time.Now()
	reply, err := rn.exchange(msg.NodeHeartbeat{Node: rn.node, Seq: rn.seq}, 0)
	if err != nil {
		rn.tel.NoteProbeError(int(rn.node), err)
		return err
	}
	st, ok := reply.(msg.NodeStatus)
	if !ok || st.Seq != rn.seq {
		err := rn.fail(fmt.Errorf("heartbeat answered by %v", reply.Kind()))
		rn.tel.NoteProbeError(int(rn.node), err)
		return err
	}
	rn.tel.ObserveRTT(int(rn.node), time.Since(start))
	rn.tel.ApplyStatus(st)
	return nil
}

// Assign ships a span assignment; workers apply it in FIFO order ahead of
// any subsequent op, so no acknowledgement is needed.
func (rn *RemoteNode) Assign(epoch uint64, lo, hi int) {
	if rn.err != nil {
		return
	}
	m := msg.AssignRange{Epoch: epoch, Node: rn.node, Lo: uint32(lo), Hi: uint32(hi)}
	if err := remote.WriteFrame(rn.bw, wire.Encode(m)); err != nil {
		rn.fail(err)
		return
	}
	if err := rn.bw.Flush(); err != nil {
		rn.fail(err)
	}
}

func (rn *RemoteNode) CompleteInstall(qid model.QueryID, q model.Query, maxVel float64, expiry model.Time, tid trace.ID) {
	var w wire.Writer
	w.Time(expiry)
	writeQueryStates(&w, []msg.QueryState{queryToState(q, maxVel)})
	rn.mustOp(opCompleteInstall, w.Bytes(), tid)
}

func (rn *RemoteNode) RemoveQuery(qid model.QueryID, tid trace.ID) (removed bool, focal model.ObjectID, stillFocal bool) {
	var w wire.Writer
	w.QID(qid)
	out := rn.mustOp(opRemoveQuery, w.Bytes(), tid)
	return out.Bool(), out.OID(), out.Bool()
}

func (rn *RemoteNode) DueExpiries(now model.Time) []model.QueryID {
	var w wire.Writer
	w.Time(now)
	return readIDs[model.QueryID](rn.mustOp(opDueExpiries, w.Bytes(), 0))
}

func (rn *RemoteNode) UpsertFocal(oid model.ObjectID, st model.MotionState, tid trace.ID) {
	var w wire.Writer
	w.OID(oid)
	w.MotionState(st)
	rn.mustOp(opUpsertFocal, w.Bytes(), tid)
}

func (rn *RemoteNode) VelocityReport(m msg.VelocityReport, tid trace.ID) {
	rn.mustOp(opVelocityReport, wire.Encode(m), tid)
}

func (rn *RemoteNode) ContainmentReport(m msg.ContainmentReport, tid trace.ID) {
	rn.mustOp(opContainmentReport, wire.Encode(m), tid)
}

func (rn *RemoteNode) GroupContainmentReport(m msg.GroupContainmentReport, tid trace.ID) {
	rn.mustOp(opGroupContainmentReport, wire.Encode(m), tid)
}

func (rn *RemoteNode) FocalCellChange(oid model.ObjectID, st model.MotionState, newCell grid.CellID, tid trace.ID) {
	var w wire.Writer
	w.OID(oid)
	w.MotionState(st)
	w.Cell(newCell)
	rn.mustOp(opFocalCellChange, w.Bytes(), tid)
}

func (rn *RemoteNode) FreshQueryStates(dst []msg.QueryState, prevCell, newCell grid.CellID) []msg.QueryState {
	var w wire.Writer
	w.Cell(prevCell)
	w.Cell(newCell)
	qss, err := decodeQueryStates(rn.mustOp(opFreshQueryStates, w.Bytes(), 0).Blob())
	if err != nil {
		rn.fail(fmt.Errorf("FreshQueryStates reply: %w", err))
	}
	return append(dst, qss...)
}

func (rn *RemoteNode) ClearResults(oid model.ObjectID, tid trace.ID) {
	rn.mustOp(opClearResults, oidPayload(oid), tid)
}

func (rn *RemoteNode) DepartSweep(oid model.ObjectID, tid trace.ID) {
	rn.mustOp(opDepartSweep, oidPayload(oid), tid)
}

func (rn *RemoteNode) DepartFocal(oid model.ObjectID, tid trace.ID) []model.QueryID {
	return readIDs[model.QueryID](rn.mustOp(opDepartFocal, oidPayload(oid), tid))
}

func (rn *RemoteNode) ExtractFocal(oid model.ObjectID, admin bool, tid trace.ID) ([]byte, error) {
	var w wire.Writer
	w.OID(oid)
	w.Bool(admin)
	return rn.op(opExtractFocal, w.Bytes(), tid)
}

func (rn *RemoteNode) InjectFocal(slice []byte, st model.MotionState, cell grid.CellID, relocate, admin bool, tid trace.ID) error {
	rn.seq++
	seq := rn.seq
	if admin {
		seq |= adminSeqBit
	}
	// The Handoff frame's OID is metadata; a malformed slice carries 0 and
	// fails the worker's decode.
	oid, _ := core.FocalSliceOID(slice)
	h := msg.Handoff{Seq: seq, OID: oid, Relocate: relocate, State: st, Cell: cell, Slice: slice}
	reply, err := rn.exchange(h, tid)
	if err != nil {
		return err
	}
	switch mm := reply.(type) {
	case msg.HandoffAck:
		if mm.Seq != seq {
			return rn.fail(fmt.Errorf("handoff seq %d acknowledged as %d", seq, mm.Seq))
		}
		return nil
	case msg.NodeOpDone:
		if mm.Code == opError {
			return fmt.Errorf("cluster: node %d: %s", rn.node, mm.Data)
		}
		return rn.fail(fmt.Errorf("handoff answered by op done %d", mm.Code))
	default:
		return rn.fail(fmt.Errorf("handoff answered by %v", reply.Kind()))
	}
}

func (rn *RemoteNode) Result(qid model.QueryID) []model.ObjectID {
	return readIDs[model.ObjectID](rn.mustOp(opResult, qidPayload(qid), 0))
}

func (rn *RemoteNode) ResultContains(qid model.QueryID, oid model.ObjectID) bool {
	var w wire.Writer
	w.QID(qid)
	w.OID(oid)
	return rn.mustOp(opResultContains, w.Bytes(), 0).Bool()
}

func (rn *RemoteNode) ResultSize(qid model.QueryID) int {
	return int(rn.mustOp(opResultSize, qidPayload(qid), 0).U32())
}

func (rn *RemoteNode) Query(qid model.QueryID) (model.Query, bool) {
	out := rn.mustOp(opQuery, qidPayload(qid), 0)
	if !out.Bool() {
		return model.Query{}, false
	}
	qss, err := decodeQueryStates(out.Blob())
	if err != nil || len(qss) != 1 {
		return model.Query{}, false
	}
	q, _ := stateToQuery(qss[0])
	return q, true
}

func (rn *RemoteNode) MonRegion(qid model.QueryID) (grid.CellRange, bool) {
	out := rn.mustOp(opMonRegion, qidPayload(qid), 0)
	if !out.Bool() {
		return grid.CellRange{}, false
	}
	return out.CellRange(), out.Err() == nil
}

func (rn *RemoteNode) NumQueries() int {
	return int(rn.mustOp(opNumQueries, nil, 0).U32())
}

func (rn *RemoteNode) QueryIDs() []model.QueryID {
	return readIDs[model.QueryID](rn.mustOp(opQueryIDs, nil, 0))
}

func (rn *RemoteNode) NearbyQueries(cell grid.CellID) []model.QueryID {
	var w wire.Writer
	w.Cell(cell)
	return readIDs[model.QueryID](rn.mustOp(opNearbyQueries, w.Bytes(), 0))
}

func (rn *RemoteNode) FocalIDs() []model.ObjectID {
	return readIDs[model.ObjectID](rn.mustOp(opFocalIDs, nil, 0))
}

func (rn *RemoteNode) FocalCell(oid model.ObjectID) (grid.CellID, bool) {
	out := rn.mustOp(opFocalCell, oidPayload(oid), 0)
	if !out.Bool() {
		return grid.CellID{}, false
	}
	return out.Cell(), out.Err() == nil
}

func (rn *RemoteNode) Ops() int64 {
	return int64(rn.mustOp(opOps, nil, 0).U64())
}

// CheckpointDelta pulls the worker's focal-slice changes since the last
// checkpoint exchange (a CheckpointRequest/NodeCheckpoint round trip). The
// router journals the result so an ungraceful worker death is recoverable.
func (rn *RemoteNode) CheckpointDelta(since uint64) (core.CheckpointDelta, error) {
	if rn.err != nil {
		return core.CheckpointDelta{}, rn.err
	}
	reply, err := rn.exchange(msg.CheckpointRequest{Node: rn.node, Since: since}, 0)
	if err != nil {
		return core.CheckpointDelta{}, err
	}
	ck, ok := reply.(msg.NodeCheckpoint)
	if !ok {
		return core.CheckpointDelta{}, rn.fail(fmt.Errorf("checkpoint answered by %v", reply.Kind()))
	}
	d := core.CheckpointDelta{Seq: ck.Seq, Slices: ck.Slices}
	for _, oid := range ck.Removed {
		d.Removed = append(d.Removed, model.ObjectID(oid))
	}
	return d, nil
}

// Sever closes the raw connection without a goodbye and marks the handle
// failed — the test-facing ungraceful kill: the worker process may keep
// running, but the router can no longer reach it.
func (rn *RemoteNode) Sever() {
	rn.fail(fmt.Errorf("connection severed"))
}

func (rn *RemoteNode) SnapshotData() ([]byte, error) {
	return rn.op(opSnapshotData, nil, 0)
}

func (rn *RemoteNode) CheckInvariants() error {
	_, err := rn.op(opCheckInvariants, nil, 0)
	return err
}

func (rn *RemoteNode) Close() error {
	if rn.err != nil {
		return nil
	}
	_, err := rn.op(opClose, nil, 0)
	rn.conn.Close()
	return err
}

var _ core.NodeHandle = (*RemoteNode)(nil)

// NewRouter dials the worker addresses, handshakes each as node i, and
// returns a ClusterServer routing over them, with span assignments shipped
// as AssignRange frames on every rebalance (and once at startup). The
// returned handles let the caller run heartbeats and inspect transport
// health.
func NewRouter(g *grid.Grid, opts core.Options, down core.Downlink, addrs []string) (*core.ClusterServer, []*RemoteNode, error) {
	if len(addrs) == 0 {
		return nil, nil, fmt.Errorf("cluster: a router needs at least one worker address")
	}
	rns := make([]*RemoteNode, len(addrs))
	handles := make([]core.NodeHandle, len(addrs))
	for i, addr := range addrs {
		rn, err := Dial(addr, i, down)
		if err != nil {
			for _, prev := range rns[:i] {
				prev.conn.Close()
			}
			return nil, nil, fmt.Errorf("cluster: worker %d at %s: %w", i, addr, err)
		}
		rns[i] = rn
		handles[i] = rn
	}
	cs := core.NewClusterServerOver(g, opts, down, handles)
	cs.SetAssignListener(func(epoch uint64, node, lo, hi int) {
		rns[node].Assign(epoch, lo, hi)
	})
	epoch := cs.Epoch()
	for _, sp := range cs.Spans() {
		rns[sp.Node].Assign(epoch, sp.Lo, sp.Hi)
	}
	return cs, rns, nil
}

// WireTelemetry attaches a telemetry plane to a router and its remote
// nodes: pushed NodeTelemetry frames and heartbeat answers flow into p,
// every node is registered with p's liveness watchdog, and the router's
// telemetry rounds probe each live node through Heartbeat. Call it once,
// right after NewRouter, before traffic starts; everything else (the
// remote server's housekeeping, its cluster view) reads the plane back
// through ClusterServer.Telemetry.
func WireTelemetry(cs *core.ClusterServer, rns []*RemoteNode, p *telemetry.Plane) {
	if p == nil {
		return
	}
	for _, rn := range rns {
		rn.SetTelemetry(p)
	}
	cs.SetTelemetry(p)
}
