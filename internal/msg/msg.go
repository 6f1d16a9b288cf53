// Package msg defines every message exchanged between moving objects and
// the server in MobiEyes and in the centralized baselines, together with
// byte-accurate wire sizes used by the power model (§5.3 of the paper
// simulates "message sizes instead of message counts" for the power study).
//
// Wire-size model: each message carries a fixed header (type, length,
// addressing) plus its payload fields. Field sizes: object/query IDs 4 B,
// coordinates and times 8 B each (so a point is 16 B, a velocity vector
// 16 B), grid cell 8 B, cell range 16 B, filter 12 B.
//
// Uplink messages travel from a moving object to the server through its
// base station; downlink messages are either broadcast by base stations to
// everything in their coverage area or sent one-to-one to a single object.
package msg

import (
	"slices"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
)

// Field and header sizes in bytes.
const (
	HeaderSize    = 16
	IDSize        = 4
	ScalarSize    = 8
	PointSize     = 16
	VectorSize    = 16
	TimeSize      = 8
	CellSize      = 8
	CellRangeSize = 16
	FilterSize    = 12
	BoolSize      = 1
)

// Kind discriminates message types for metering and dispatch.
type Kind int

// Message kinds. Uplink kinds first, then downlink kinds.
const (
	// Uplink.
	KindPositionReport Kind = iota
	KindVelocityReport
	KindCellChangeReport
	KindContainmentReport
	KindGroupContainmentReport
	KindFocalInfoResponse
	KindDepartureReport
	KindPing
	// Downlink.
	KindQueryInstall
	KindQueryRemove
	KindVelocityChange
	KindFocalNotify
	KindFocalInfoRequest
	KindPong
	// Node tier (router ↔ worker, internal/cluster). These frames never
	// touch a moving object's radio; they ride the backhaul between the
	// router and its worker nodes.
	KindNodeHello
	KindNodeHeartbeat
	KindAssignRange
	KindHandoff
	KindHandoffAck
	KindNodeOp
	KindNodeOpDone
	KindNodeDownlink
	KindNodeTelemetry
	KindNodeStatus
	KindCheckpointRequest
	KindNodeCheckpoint

	numKinds
)

// NumKinds is the number of distinct message kinds.
const NumKinds = int(numKinds)

var kindNames = [...]string{
	"PositionReport", "VelocityReport", "CellChangeReport",
	"ContainmentReport", "GroupContainmentReport", "FocalInfoResponse",
	"DepartureReport", "Ping",
	"QueryInstall", "QueryRemove", "VelocityChange",
	"FocalNotify", "FocalInfoRequest", "Pong",
	"NodeHello", "NodeHeartbeat", "AssignRange",
	"Handoff", "HandoffAck", "NodeOp", "NodeOpDone", "NodeDownlink",
	"NodeTelemetry", "NodeStatus",
	"CheckpointRequest", "NodeCheckpoint",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "UnknownKind"
	}
	return kindNames[k]
}

// Uplink reports whether messages of this kind travel object → server.
func (k Kind) Uplink() bool { return k <= KindPing }

// Node reports whether messages of this kind belong to the router↔worker
// node tier (internal/cluster). Node frames are neither uplink nor downlink
// in the device sense: they never cross the wireless medium.
func (k Kind) Node() bool { return k >= KindNodeHello }

// Message is implemented by every protocol message.
type Message interface {
	Kind() Kind
	Size() int // wire size in bytes, header included
}

// ---------------------------------------------------------------------------
// Uplink messages.

// PositionReport is the naïve baseline's per-step report: the object's new
// position (§5.3, "each object reports its position directly to the server
// at each time step, if its position has changed").
type PositionReport struct {
	OID model.ObjectID
	Pos geo.Point
	Tm  model.Time
}

func (PositionReport) Kind() Kind { return KindPositionReport }
func (PositionReport) Size() int  { return HeaderSize + IDSize + PointSize + TimeSize }

// VelocityReport carries a significant velocity-vector change: the new
// velocity vector, the position, and the timestamp at which both were
// recorded (§3.4). It is used by MobiEyes focal objects and by the central
// optimal baseline for every object.
type VelocityReport struct {
	OID model.ObjectID
	Pos geo.Point
	Vel geo.Vector
	Tm  model.Time
}

func (VelocityReport) Kind() Kind { return KindVelocityReport }
func (VelocityReport) Size() int {
	return HeaderSize + IDSize + PointSize + VectorSize + TimeSize
}

// CellChangeReport notifies the server that an object moved to a new grid
// cell: its identifier, previous cell and new cell (§3.5).
type CellChangeReport struct {
	OID      model.ObjectID
	PrevCell grid.CellID
	NewCell  grid.CellID
	// Pos/Vel/Tm piggyback the object's motion state so the server can
	// refresh FOT entries of focal objects without a second round trip.
	Pos geo.Point
	Vel geo.Vector
	Tm  model.Time
}

func (CellChangeReport) Kind() Kind { return KindCellChangeReport }
func (CellChangeReport) Size() int {
	return HeaderSize + IDSize + 2*CellSize + PointSize + VectorSize + TimeSize
}

// ContainmentReport is the differential result update: the object entered
// (IsTarget=true) or left (IsTarget=false) the spatial region of one query
// (§3.6).
type ContainmentReport struct {
	OID      model.ObjectID
	QID      model.QueryID
	IsTarget bool
}

func (ContainmentReport) Kind() Kind { return KindContainmentReport }
func (ContainmentReport) Size() int  { return HeaderSize + 2*IDSize + BoolSize }

// GroupContainmentReport is the grouped-query result update of §4.1: one
// bitmap covering every query in a server-side query group, one bit per
// query (1 = object is in that query's result).
type GroupContainmentReport struct {
	OID    model.ObjectID
	Focal  model.ObjectID // the group is keyed by focal object
	QIDs   []model.QueryID
	Bitmap Bitmap
}

func (GroupContainmentReport) Kind() Kind { return KindGroupContainmentReport }
func (m GroupContainmentReport) Size() int {
	return HeaderSize + 2*IDSize + 2 + len(m.QIDs)*IDSize + len(m.Bitmap.bits)
}

// DepartureReport announces that an object is leaving the system (powering
// off, leaving coverage for good). The server removes it from every query
// result and tears down any queries it was the focal object of. The paper
// assumes a static population; this message is the minimal extension for
// dynamic ones.
type DepartureReport struct {
	OID model.ObjectID
}

func (DepartureReport) Kind() Kind { return KindDepartureReport }
func (DepartureReport) Size() int  { return HeaderSize + IDSize }

// Ping is a transport-level liveness and ordering probe: the remote server
// echoes the token back as a Pong on the same connection, after every
// frame received before it. It is consumed by the transport layer and never
// dispatched into the query engine (the core servers do not handle it).
type Ping struct {
	Token uint64
}

func (Ping) Kind() Kind { return KindPing }
func (Ping) Size() int  { return HeaderSize + ScalarSize }

// FocalInfoResponse answers a FocalInfoRequest during query installation
// (§3.3 step 3): the focal object's current motion state.
type FocalInfoResponse struct {
	OID model.ObjectID
	Pos geo.Point
	Vel geo.Vector
	Tm  model.Time
}

func (FocalInfoResponse) Kind() Kind { return KindFocalInfoResponse }
func (FocalInfoResponse) Size() int {
	return HeaderSize + IDSize + PointSize + VectorSize + TimeSize
}

// ---------------------------------------------------------------------------
// Downlink messages.

// QueryState is the full description of one moving query as shipped to
// moving objects: identity, focal motion state, spatial region, filter and
// monitoring region. Objects store exactly these fields in their LQT.
type QueryState struct {
	QID       model.QueryID
	Focal     model.ObjectID
	State     model.MotionState
	Region    model.Region
	Filter    model.Filter
	MonRegion grid.CellRange
	// FocalMaxVel lets receivers compute safe periods (§4.2).
	FocalMaxVel float64
}

// RegionSize is the wire size of a fixed-parameter region descriptor
// (circle or rectangle): a one-byte shape tag plus two scalars.
const RegionSize = 1 + 2*ScalarSize

// RegionWireSize returns the encoded size of any region: circles and
// rectangles are fixed-size; polygons carry a vertex count and their
// vertices.
func RegionWireSize(r model.Region) int {
	if p, ok := r.(model.PolygonRegion); ok {
		return 1 + 2 + len(p.Vertices)*PointSize
	}
	return RegionSize
}

// wireSize of one QueryState entry.
func (qs QueryState) wireSize() int {
	return 2*IDSize + PointSize + VectorSize + TimeSize + RegionWireSize(qs.Region) +
		FilterSize + CellRangeSize + ScalarSize
}

// QueryInstall ships one or more queries to the objects inside a region.
// It is used for initial installation (§3.3), for re-installation after a
// focal object changes cells (§3.5), and — as a one-to-one message — to
// hand a non-focal object the nearby queries of its new cell under eager
// query propagation.
type QueryInstall struct {
	Queries []QueryState
}

func (QueryInstall) Kind() Kind { return KindQueryInstall }
func (m QueryInstall) Size() int {
	n := HeaderSize + 2 // count
	for _, qs := range m.Queries {
		n += qs.wireSize()
	}
	return n
}

// Retain returns m with the state list of a QueryInstall or VelocityChange
// copied, so the result stays valid after the scratch m was built in is
// reused — what a downlink that keeps a lent message past the send stores
// (see core.Downlink). Every other kind, and a message with no states (an
// EQP VelocityChange), is returned unchanged, without a new allocation.
func Retain(m Message) Message {
	switch mm := m.(type) {
	case QueryInstall:
		if len(mm.Queries) > 0 {
			mm.Queries = slices.Clone(mm.Queries)
			return mm
		}
	case VelocityChange:
		if len(mm.Queries) > 0 {
			mm.Queries = slices.Clone(mm.Queries)
			return mm
		}
	}
	return m
}

// QueryRemove tells objects to drop queries from their LQTs (uninstall).
type QueryRemove struct {
	QIDs []model.QueryID
}

func (QueryRemove) Kind() Kind { return KindQueryRemove }
func (m QueryRemove) Size() int {
	return HeaderSize + 2 + len(m.QIDs)*IDSize
}

// VelocityChange relays a focal object's significant velocity change to the
// monitoring regions of its queries (§3.4). Under lazy query propagation
// the notification is "expanded to include the spatial region and the
// filter of the queries" so that objects that changed cells without
// contacting the server can self-install them (§3.5); in that case Queries
// carries the full query states and the message is correspondingly larger.
type VelocityChange struct {
	Focal model.ObjectID
	State model.MotionState
	// Queries is empty under EQP; under LQP it carries the full state of
	// every query bound to the focal object.
	Queries []QueryState
}

func (VelocityChange) Kind() Kind { return KindVelocityChange }
func (m VelocityChange) Size() int {
	n := HeaderSize + IDSize + PointSize + VectorSize + TimeSize + 2
	for _, qs := range m.Queries {
		n += qs.wireSize()
	}
	return n
}

// FocalNotify is the one-to-one installation notification that makes an
// object set its hasMQ flag (§3.3): it now is a focal object and must
// report significant velocity changes and cell crossings.
type FocalNotify struct {
	OID model.ObjectID
	QID model.QueryID
	// Install reports whether the object gained (true) or lost (false) its
	// last query.
	Install bool
}

func (FocalNotify) Kind() Kind { return KindFocalNotify }
func (FocalNotify) Size() int  { return HeaderSize + 2*IDSize + BoolSize }

// FocalInfoRequest asks a prospective focal object for its motion state
// during installation (§3.3 step 3).
type FocalInfoRequest struct {
	OID model.ObjectID
}

func (FocalInfoRequest) Kind() Kind { return KindFocalInfoRequest }
func (FocalInfoRequest) Size() int  { return HeaderSize + IDSize }

// Pong answers a Ping with the same token, after every downlink frame the
// server enqueued for the connection before processing the Ping. Like Ping
// it lives entirely in the transport layer.
type Pong struct {
	Token uint64
}

func (Pong) Kind() Kind { return KindPong }
func (Pong) Size() int  { return HeaderSize + ScalarSize }

// ---------------------------------------------------------------------------
// Node-tier messages (router ↔ worker, internal/cluster). These share the
// wire codec and the cost-ledger kind axis with the protocol messages, but
// they travel on the backhaul between cluster nodes, never on the wireless
// medium (Kind.Node reports the tier).

// NodeHello opens a router↔worker connection: the worker's assigned node
// index and the node-tier protocol version each side speaks. A version
// mismatch is rejected with a typed error by both ends.
type NodeHello struct {
	Node  uint32
	Proto uint16
}

func (NodeHello) Kind() Kind { return KindNodeHello }
func (NodeHello) Size() int  { return HeaderSize + IDSize + 2 }

// NodeHeartbeat is the router's liveness probe; the worker echoes it with
// the same sequence number.
type NodeHeartbeat struct {
	Node uint32
	Seq  uint64
}

func (NodeHeartbeat) Kind() Kind { return KindNodeHeartbeat }
func (NodeHeartbeat) Size() int  { return HeaderSize + IDSize + ScalarSize }

// AssignRange gives a worker its contiguous range of dense grid-cell
// indices [Lo, Hi). Epoch increases with every reassignment so a worker can
// discard stale assignments after a rebalance.
type AssignRange struct {
	Epoch uint64
	Node  uint32
	Lo    uint32
	Hi    uint32
}

func (AssignRange) Kind() Kind { return KindAssignRange }
func (AssignRange) Size() int  { return HeaderSize + ScalarSize + 3*IDSize }

// Handoff transfers one focal object's complete server-side state (an
// encoded focal slice: FOT row plus every bound query's SQT row and result
// set) into the receiving node. Relocate distinguishes a §3.5 cell-crossing
// migration (monitoring regions recomputed and re-broadcast) from a
// state-preserving transfer (focal-info refresh or admin rebalancing).
type Handoff struct {
	Seq      uint64
	OID      model.ObjectID
	Relocate bool
	// State/Cell are the motion state and grid cell the receiving node
	// installs the focal at (for admin transfers they repeat the slice's
	// embedded values).
	State model.MotionState
	Cell  grid.CellID
	Slice []byte
}

func (Handoff) Kind() Kind { return KindHandoff }
func (m Handoff) Size() int {
	return HeaderSize + ScalarSize + IDSize + BoolSize +
		PointSize + VectorSize + TimeSize + CellSize + 4 + len(m.Slice)
}

// HandoffAck confirms a Handoff was applied; the two-phase transfer is
// complete and the sender may forget the focal.
type HandoffAck struct {
	Seq uint64
	OID model.ObjectID
}

func (HandoffAck) Kind() Kind { return KindHandoffAck }
func (HandoffAck) Size() int  { return HeaderSize + ScalarSize + IDSize }

// NodeOp is one remote table operation on a worker node: an opcode from
// internal/cluster's operation set and its encoded arguments. The worker
// answers with any number of NodeDownlink frames followed by one
// NodeOpDone carrying the same sequence number.
type NodeOp struct {
	Seq  uint64
	Code uint8
	Data []byte
}

func (NodeOp) Kind() Kind { return KindNodeOp }
func (m NodeOp) Size() int {
	return HeaderSize + ScalarSize + 1 + 4 + len(m.Data)
}

// NodeOpDone completes a NodeOp, carrying the operation's encoded result.
type NodeOpDone struct {
	Seq  uint64
	Code uint8
	Data []byte
}

func (NodeOpDone) Kind() Kind { return KindNodeOpDone }
func (m NodeOpDone) Size() int {
	return HeaderSize + ScalarSize + 1 + 4 + len(m.Data)
}

// NodeDownlink relays a downlink message a worker produced while applying a
// NodeOp back to the router, which forwards it to the wireless medium.
// Broadcast frames carry the target cell range (Target must be zero);
// unicast frames carry the receiving object (Region must be zero).
type NodeDownlink struct {
	Broadcast bool
	Region    grid.CellRange
	Target    model.ObjectID
	// Inner is the wire-encoded protocol message (trace ID included when the
	// causing operation was traced).
	Inner []byte
}

func (NodeDownlink) Kind() Kind { return KindNodeDownlink }
func (m NodeDownlink) Size() int {
	return HeaderSize + BoolSize + CellRangeSize + IDSize + 4 + len(m.Inner)
}

// NodeTelemetry pushes one compact telemetry batch from a worker to the
// router: changed metric series and trace events, encoded by
// internal/obs/telemetry (the payload carries its own version byte; the
// wire codec treats it as opaque). Workers stream these frames ahead of an
// op reply or a heartbeat answer, exactly like NodeDownlink; an empty
// payload is non-canonical and rejected by the codec.
type NodeTelemetry struct {
	Node    uint32
	Seq     uint64 // worker-local telemetry batch counter, strictly increasing
	Payload []byte
}

func (NodeTelemetry) Kind() Kind { return KindNodeTelemetry }
func (m NodeTelemetry) Size() int {
	return HeaderSize + IDSize + ScalarSize + 4 + len(m.Payload)
}

// NodeStatus is the worker's heartbeat answer: the echoed probe sequence
// plus the worker's view of its assignment — span epoch and cell range, in
// clear — so the router's watchdog can check epoch monotonicity and compare
// the range with its own span without a table op.
type NodeStatus struct {
	Node  uint32
	Seq   uint64 // echoes the probe's NodeHeartbeat.Seq
	Epoch uint64
	Lo    uint32
	Hi    uint32
	Ops   uint64 // worker-side table ops applied so far
}

func (NodeStatus) Kind() Kind { return KindNodeStatus }
func (NodeStatus) Size() int {
	return HeaderSize + IDSize + 3*ScalarSize + 2*IDSize
}

// CheckpointRequest asks a worker for a checkpoint delta of its focal rows:
// every focal slice that changed since the worker's checkpoint sequence
// Since, plus the oids removed since then. Since==0 requests a full
// checkpoint. The router journals the answer so the node's state survives
// an ungraceful crash (DESIGN.md §15).
type CheckpointRequest struct {
	Node  uint32
	Since uint64 // last checkpoint sequence the router has journaled
}

func (CheckpointRequest) Kind() Kind { return KindCheckpointRequest }
func (CheckpointRequest) Size() int {
	return HeaderSize + IDSize + ScalarSize
}

// NodeCheckpoint is the worker's checkpoint delta: the new checkpoint
// sequence, the oids whose focal rows vanished since the requested
// watermark (strictly ascending, no duplicates) and the versioned focal
// slices (handoff encoding, each non-empty) that changed. An empty delta
// (no removals, no slices) echoes Seq == Since and means the journal is
// already current.
type NodeCheckpoint struct {
	Node    uint32
	Seq     uint64 // checkpoint sequence after applying this delta
	Removed []uint32
	Slices  [][]byte
}

func (NodeCheckpoint) Kind() Kind { return KindNodeCheckpoint }
func (m NodeCheckpoint) Size() int {
	n := HeaderSize + IDSize + ScalarSize + 4 + 4*len(m.Removed) + 4
	for _, s := range m.Slices {
		n += 4 + len(s)
	}
	return n
}

// ---------------------------------------------------------------------------

// Bitmap is the query bitmap of §4.1: one bit per query in a query group.
type Bitmap struct {
	bits []byte
	n    int
}

// NewBitmap returns a bitmap with room for n bits, all zero.
func NewBitmap(n int) Bitmap {
	return Bitmap{bits: make([]byte, (n+7)/8), n: n}
}

// Len returns the number of bits.
func (b Bitmap) Len() int { return b.n }

// Set sets bit i to v.
func (b Bitmap) Set(i int, v bool) {
	if i < 0 || i >= b.n {
		panic("msg: bitmap index out of range")
	}
	if v {
		b.bits[i/8] |= 1 << (i % 8)
	} else {
		b.bits[i/8] &^= 1 << (i % 8)
	}
}

// Get returns bit i.
func (b Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic("msg: bitmap index out of range")
	}
	return b.bits[i/8]&(1<<(i%8)) != 0
}

// Bytes exposes the packed bit storage (little-endian bit order within each
// byte). It is the wire representation; mutating it mutates the bitmap.
func (b Bitmap) Bytes() []byte { return b.bits }

// Clone returns an independent copy of b.
func (b Bitmap) Clone() Bitmap {
	nb := Bitmap{bits: append([]byte(nil), b.bits...), n: b.n}
	return nb
}

// Equal reports whether two bitmaps have identical length and contents.
func (b Bitmap) Equal(o Bitmap) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.bits {
		if b.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}
