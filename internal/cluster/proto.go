// Package cluster is the wire tier of the distributed MobiEyes server: a
// router process drives worker processes over TCP using the cluster frames
// of internal/wire (NodeHello, NodeHeartbeat, AssignRange, NodeOp/NodeOpDone,
// Handoff/HandoffAck, NodeDownlink).
//
// The router side is RemoteNode, a core.NodeHandle that forwards every call
// as a synchronous request/response exchange; the worker side is Worker, a
// host for an in-process core.NodeServer that executes the calls and streams
// its downlink sends back before each acknowledgement. Because the
// ClusterServer serializes node dispatch under its router mutex, at most one
// exchange is outstanding per connection and TCP's FIFO ordering makes the
// two-phase handoff drain (extract fully acknowledged before inject is sent)
// inherent in the transport.
//
// Frames reuse internal/remote's length-prefixed framing, so the object
// transport and the cluster tier speak one frame format, and trace IDs ride
// in the wire v2 envelope (wire.EncodeTraced) end to end. See DESIGN.md §13.
package cluster

import (
	"fmt"

	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// ProtoVersion is the cluster handshake version carried in NodeHello.Proto.
// Router and worker must agree exactly; a mismatch is refused with a typed
// VersionError on both sides rather than decaying into garbled exchanges.
// Version 2 added the telemetry plane: workers answer heartbeats with
// NodeStatus (epoch + span digest) and may stream NodeTelemetry batches
// ahead of any reply frame. Version 3 added crash recovery: routers pull
// focal-slice checkpoint deltas with CheckpointRequest, answered by
// NodeCheckpoint, and journal them for replay after an ungraceful worker
// death (DESIGN.md §15). Version 4 changed the opSnapshotData reply to the
// node's focal section of a snapshot, so a router can restore over workers.
// Version 5 dropped NodeStatus's span digest (the watchdog compares the
// epoch and range the status already carries) and the cost section of
// telemetry batches.
const ProtoVersion = uint16(5)

// VersionError reports a NodeHello handshake refused for speaking a
// different cluster protocol version.
type VersionError struct {
	Node uint32 // peer's node ID as announced in its hello
	Got  uint16 // version the peer speaks
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("cluster: node %d speaks protocol version %d, this build speaks %d",
		e.Node, e.Got, ProtoVersion)
}

// Opcodes for NodeOp frames: one per NodeHandle method whose arguments are
// not already a protocol message of their own (focal injection travels as a
// Handoff frame, acknowledged by HandoffAck). The worker answers each op
// with NodeOpDone echoing Seq and Code; opError in the reply's Code signals
// a failed op, with the error text as Data.
const (
	opCompleteInstall = uint8(iota + 1)
	opRemoveQuery
	opDueExpiries
	opUpsertFocal
	opVelocityReport
	opContainmentReport
	opGroupContainmentReport
	opFocalCellChange
	opFreshQueryStates
	opClearResults
	opDepartSweep
	opDepartFocal
	opExtractFocal
	opResult
	opResultContains
	opResultSize
	opQuery
	opMonRegion
	opNumQueries
	opQueryIDs
	opNearbyQueries
	opFocalIDs
	opFocalCell
	opOps
	opSnapshotData
	opCheckInvariants
	opClose

	// opError marks a NodeOpDone carrying an error message instead of a
	// result payload.
	opError = uint8(0xFF)
)

// adminSeqBit marks a Handoff frame as an admin (charge-free infrastructure)
// transfer — rebalancing and node drains — so the worker suspends cost
// charging during injection. It rides in the Seq field's top bit, which real
// sequence numbers never reach.
const adminSeqBit = uint64(1) << 63

// Op payloads are written and read with wire.Writer/wire.Reader. Two shapes
// are not primitives of their own: ID lists (a u32 count, then a u32 per
// ID) and query states, which travel as one embedded wire QueryInstall
// frame.

func writeIDs[T ~int32](w *wire.Writer, ids []T) {
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.U32(uint32(id))
	}
}

// readIDs reads an ID list; a count the payload cannot hold is a short read.
func readIDs[T ~int32](r *wire.Reader) []T {
	raw := r.Raw(4 * int(r.U32()))
	if r.Err() != nil {
		return nil
	}
	ids := make([]T, len(raw)/4)
	rr := wire.NewReader(raw)
	for i := range ids {
		ids[i] = T(rr.U32())
	}
	return ids
}

func oidPayload(oid model.ObjectID) []byte {
	var w wire.Writer
	w.OID(oid)
	return w.Bytes()
}

func qidPayload(qid model.QueryID) []byte {
	var w wire.Writer
	w.QID(qid)
	return w.Bytes()
}

func writeQueryStates(w *wire.Writer, qss []msg.QueryState) {
	w.Blob(wire.Encode(msg.QueryInstall{Queries: qss}))
}

// decodeQueryStates decodes the embedded QueryInstall frame raw.
func decodeQueryStates(raw []byte) ([]msg.QueryState, error) {
	m, err := wire.Decode(raw)
	if err != nil {
		return nil, err
	}
	qi, ok := m.(msg.QueryInstall)
	if !ok {
		return nil, fmt.Errorf("embedded %v frame, want QueryInstall", m.Kind())
	}
	return qi.Queries, nil
}

// queryToState packs a model.Query plus its focal max velocity into the one
// QueryState the CompleteInstall and Query exchanges embed. Motion state and
// monitoring region stay zero: the executing node derives both.
func queryToState(q model.Query, maxVel float64) msg.QueryState {
	return msg.QueryState{
		QID:         q.ID,
		Focal:       q.Focal,
		Region:      q.Region,
		Filter:      q.Filter,
		FocalMaxVel: maxVel,
	}
}

func stateToQuery(qs msg.QueryState) (model.Query, float64) {
	return model.Query{ID: qs.QID, Focal: qs.Focal, Region: qs.Region, Filter: qs.Filter},
		qs.FocalMaxVel
}
