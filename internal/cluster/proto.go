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
	"encoding/binary"
	"fmt"
	"math"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
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
const ProtoVersion = uint16(4)

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

// pbuf builds little-endian op payloads, mirroring the focal-slice codec.
type pbuf struct{ b []byte }

func (p *pbuf) u8(v uint8)    { p.b = append(p.b, v) }
func (p *pbuf) u16(v uint16)  { p.b = binary.LittleEndian.AppendUint16(p.b, v) }
func (p *pbuf) u32(v uint32)  { p.b = binary.LittleEndian.AppendUint32(p.b, v) }
func (p *pbuf) u64(v uint64)  { p.b = binary.LittleEndian.AppendUint64(p.b, v) }
func (p *pbuf) f64(v float64) { p.u64(math.Float64bits(v)) }
func (p *pbuf) bool(v bool) {
	if v {
		p.u8(1)
	} else {
		p.u8(0)
	}
}
func (p *pbuf) oid(v model.ObjectID) { p.u32(uint32(v)) }
func (p *pbuf) qid(v model.QueryID)  { p.u32(uint32(v)) }
func (p *pbuf) cell(c grid.CellID) {
	p.u32(uint32(int32(c.Col)))
	p.u32(uint32(int32(c.Row)))
}
func (p *pbuf) motion(st model.MotionState) {
	p.f64(st.Pos.X)
	p.f64(st.Pos.Y)
	p.f64(st.Vel.X)
	p.f64(st.Vel.Y)
	p.f64(float64(st.Tm))
}
func (p *pbuf) qids(ids []model.QueryID) {
	p.u32(uint32(len(ids)))
	for _, id := range ids {
		p.qid(id)
	}
}
func (p *pbuf) oids(ids []model.ObjectID) {
	p.u32(uint32(len(ids)))
	for _, id := range ids {
		p.oid(id)
	}
}

// blob appends a length-prefixed byte string.
func (p *pbuf) blob(b []byte) {
	p.u32(uint32(len(b)))
	p.b = append(p.b, b...)
}

// queryStates appends the states as one embedded wire QueryInstall frame.
func (p *pbuf) queryStates(qss []msg.QueryState) {
	p.blob(wire.Encode(msg.QueryInstall{Queries: qss}))
}

// pread consumes little-endian op payloads with sticky error handling.
type pread struct {
	b   []byte
	off int
	err error
}

func (p *pread) fail(what string) {
	if p.err == nil {
		p.err = fmt.Errorf("cluster: op payload: %s", what)
	}
}

func (p *pread) need(n int) bool {
	if p.err != nil {
		return false
	}
	if p.off+n > len(p.b) {
		p.fail("truncated")
		return false
	}
	return true
}

func (p *pread) u8() uint8 {
	if !p.need(1) {
		return 0
	}
	v := p.b[p.off]
	p.off++
	return v
}

func (p *pread) u16() uint16 {
	if !p.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(p.b[p.off:])
	p.off += 2
	return v
}

func (p *pread) u32() uint32 {
	if !p.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(p.b[p.off:])
	p.off += 4
	return v
}

func (p *pread) u64() uint64 {
	if !p.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(p.b[p.off:])
	p.off += 8
	return v
}

func (p *pread) f64() float64        { return math.Float64frombits(p.u64()) }
func (p *pread) bool() bool          { return p.u8() != 0 }
func (p *pread) oid() model.ObjectID { return model.ObjectID(p.u32()) }
func (p *pread) qid() model.QueryID  { return model.QueryID(p.u32()) }

func (p *pread) cell() grid.CellID {
	return grid.CellID{Col: int(int32(p.u32())), Row: int(int32(p.u32()))}
}

func (p *pread) motion() model.MotionState {
	var st model.MotionState
	st.Pos = geo.Pt(p.f64(), p.f64())
	st.Vel = geo.Vec(p.f64(), p.f64())
	st.Tm = model.Time(p.f64())
	return st
}

func (p *pread) qidList() []model.QueryID {
	n := int(p.u32())
	if p.err != nil || n > (len(p.b)-p.off)/4 {
		p.fail("implausible query-id count")
		return nil
	}
	out := make([]model.QueryID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.qid())
	}
	return out
}

func (p *pread) oidList() []model.ObjectID {
	n := int(p.u32())
	if p.err != nil || n > (len(p.b)-p.off)/4 {
		p.fail("implausible object-id count")
		return nil
	}
	out := make([]model.ObjectID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.oid())
	}
	return out
}

func (p *pread) blob() []byte {
	n := int(p.u32())
	if p.err != nil || n > len(p.b)-p.off {
		p.fail("implausible blob length")
		return nil
	}
	v := p.b[p.off : p.off+n]
	p.off += n
	return v
}

// queryStates consumes one embedded wire QueryInstall frame.
func (p *pread) queryStates() []msg.QueryState {
	b := p.blob()
	if p.err != nil {
		return nil
	}
	m, err := wire.Decode(b)
	if err != nil {
		p.err = err
		return nil
	}
	qi, ok := m.(msg.QueryInstall)
	if !ok {
		p.fail("embedded frame is not a QueryInstall")
		return nil
	}
	return qi.Queries
}

// done reports any decode error, also failing on trailing bytes.
func (p *pread) done() error {
	if p.err == nil && p.off != len(p.b) {
		p.fail("trailing bytes")
	}
	return p.err
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
