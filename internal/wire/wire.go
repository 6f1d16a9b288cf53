// Package wire is the binary codec for the MobiEyes protocol messages of
// internal/msg. Every message encodes to exactly msg.Message.Size() bytes —
// the same figure the power model charges — so the byte accounting of the
// simulation is the byte layout of a real deployment (internal/remote sends
// these frames over TCP).
//
// Layout: a 16-byte header (magic, version, kind, flags, payload length,
// source and destination object IDs) followed by the payload fields in
// little-endian order, sized per the constants in internal/msg. Regions
// encode as a one-byte shape tag plus two float64 parameters.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// Header layout constants.
const (
	Magic   = uint16(0xE7E5) // "mobieyes"
	Version = uint8(1)
	// TracedVersion marks a frame carrying a nonzero 8-byte trace ID
	// (little-endian) between the 16-byte header and the payload. A zero
	// trace ID always encodes as a plain Version frame — so every accepted
	// byte string still has exactly one encoding, preserving the FuzzWire
	// canonicity property — and a TracedVersion frame declaring a zero
	// trace ID is rejected.
	TracedVersion = uint8(2)
	// TraceOverhead is the extra length of a TracedVersion frame.
	TraceOverhead = 8
)

// Region shape tags.
const (
	regionCircle  = uint8(1)
	regionRect    = uint8(2)
	regionPolygon = uint8(3)
)

// ErrTruncated reports a buffer shorter than its header or declared length.
var ErrTruncated = errors.New("wire: truncated message")

// VersionError reports a frame whose header declares a protocol version this
// codec does not speak. It is a typed error so handshakes (the remote hello,
// the cluster NodeHello) can distinguish "peer speaks a different protocol
// revision" from a corrupt frame and reject it explicitly.
type VersionError struct {
	Got uint8
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: unsupported version %d (speaking %d/%d)", e.Got, Version, TracedVersion)
}

// encoder appends primitive values to a buffer.
type encoder struct{ b []byte }

func (e *encoder) u8(v uint8)    { e.b = append(e.b, v) }
func (e *encoder) u16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *encoder) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) boolByte(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) point(p geo.Point)          { e.f64(p.X); e.f64(p.Y) }
func (e *encoder) vector(v geo.Vector)        { e.f64(v.X); e.f64(v.Y) }
func (e *encoder) time(t model.Time)          { e.f64(float64(t)) }
func (e *encoder) oid(id model.ObjectID)      { e.u32(uint32(id)) }
func (e *encoder) qid(id model.QueryID)       { e.u32(uint32(id)) }
func (e *encoder) cell(c grid.CellID)         { e.u32(uint32(int32(c.Col))); e.u32(uint32(int32(c.Row))) }
func (e *encoder) cellRange(r grid.CellRange) { e.cell(r.Min); e.cell(r.Max) }
func (e *encoder) filter(f model.Filter) {
	e.u64(f.Seed)
	e.u32(f.Permille)
}

// bytes appends a u32 length prefix and the raw payload.
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.b = append(e.b, b...)
}

func (e *encoder) region(r model.Region) {
	switch rr := r.(type) {
	case model.CircleRegion:
		e.u8(regionCircle)
		e.f64(rr.R)
		e.f64(0)
	case model.RectRegion:
		e.u8(regionRect)
		e.f64(rr.W)
		e.f64(rr.H)
	case model.PolygonRegion:
		e.u8(regionPolygon)
		e.u16(uint16(len(rr.Vertices)))
		for _, v := range rr.Vertices {
			e.point(v)
		}
	default:
		// Unknown shapes degrade to their enclosing circle: every consumer
		// of a Region can work with that soundly.
		e.u8(regionCircle)
		e.f64(r.EnclosingRadius())
		e.f64(0)
	}
}

func (e *encoder) motionState(s model.MotionState) {
	e.point(s.Pos)
	e.vector(s.Vel)
	e.time(s.Tm)
}

func (e *encoder) queryState(qs msg.QueryState) {
	e.qid(qs.QID)
	e.oid(qs.Focal)
	e.motionState(qs.State)
	e.region(qs.Region)
	e.filter(qs.Filter)
	e.cellRange(qs.MonRegion)
	e.f64(qs.FocalMaxVel)
}

// decoder consumes primitive values from a buffer.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.b) {
		d.err = ErrTruncated
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) boolByte() bool {
	// Strict: only 0 and 1 are valid, so every accepted payload has
	// exactly one encoding (found by FuzzWire's canonicity property).
	b := d.u8()
	if b > 1 && d.err == nil {
		d.err = fmt.Errorf("wire: invalid bool byte %#02x", b)
	}
	return b == 1
}
func (d *decoder) point() geo.Point { return geo.Pt(d.f64(), d.f64()) }
func (d *decoder) vector() geo.Vector {
	return geo.Vec(d.f64(), d.f64())
}
func (d *decoder) time() model.Time    { return model.Time(d.f64()) }
func (d *decoder) oid() model.ObjectID { return model.ObjectID(d.u32()) }
func (d *decoder) qid() model.QueryID  { return model.QueryID(d.u32()) }
func (d *decoder) cell() grid.CellID {
	return grid.CellID{Col: int(int32(d.u32())), Row: int(int32(d.u32()))}
}
func (d *decoder) cellRange() grid.CellRange {
	return grid.CellRange{Min: d.cell(), Max: d.cell()}
}
func (d *decoder) filter() model.Filter {
	return model.Filter{Seed: d.u64(), Permille: d.u32()}
}

// bytes consumes a u32 length prefix and that many raw bytes. Zero length
// decodes to nil so the round trip stays canonical.
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if n == 0 || !d.need(n) {
		return nil
	}
	b := make([]byte, n)
	copy(b, d.b[d.off:])
	d.off += n
	return b
}

// regionOrPolygon decodes a region including the variable-length polygon
// form.
func (d *decoder) regionVar() model.Region {
	tag := d.u8()
	switch tag {
	case regionCircle:
		a := d.f64()
		// The second word is padding (circles use one parameter, rects two);
		// it must be zero so the encoding stays canonical.
		if pad := d.u64(); pad != 0 && d.err == nil {
			d.err = fmt.Errorf("wire: nonzero circle padding %#x", pad)
		}
		return model.CircleRegion{R: a}
	case regionRect:
		return model.RectRegion{W: d.f64(), H: d.f64()}
	case regionPolygon:
		n := int(d.u16())
		if n < 3 || !d.need(n*16) {
			if d.err == nil {
				d.err = fmt.Errorf("wire: polygon with %d vertices", n)
			}
			return model.CircleRegion{}
		}
		vs := make([]geo.Point, n)
		for i := range vs {
			vs[i] = d.point()
		}
		return model.PolygonRegion{Vertices: vs}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown region tag %d", tag)
		}
		return model.CircleRegion{}
	}
}

func (d *decoder) motionState() model.MotionState {
	return model.MotionState{Pos: d.point(), Vel: d.vector(), Tm: d.time()}
}

func (d *decoder) queryState() msg.QueryState {
	return msg.QueryState{
		QID:         d.qid(),
		Focal:       d.oid(),
		State:       d.motionState(),
		Region:      d.regionVar(),
		Filter:      d.filter(),
		MonRegion:   d.cellRange(),
		FocalMaxVel: d.f64(),
	}
}

// Encode serializes m. The result is exactly m.Size() bytes.
func Encode(m msg.Message) []byte { return EncodeTraced(m, 0) }

// EncodedSize is len(EncodeTraced(m, tid)) without encoding: m.Size(),
// plus TraceOverhead when tid is nonzero. A transport that meters a frame it
// then drops uses it, so the meter cannot tell the two apart.
func EncodedSize(m msg.Message, tid uint64) int {
	if tid != 0 {
		return m.Size() + TraceOverhead
	}
	return m.Size()
}

// EncodeTraced serializes m, carrying tid when it is nonzero: the frame is
// emitted as TracedVersion with the trace ID after the header, and the
// declared length grows by TraceOverhead. tid == 0 produces the plain
// Version encoding, byte-identical to Encode — untraced peers are
// unaffected, and Decode (which skips the trace ID) accepts both.
func EncodeTraced(m msg.Message, tid uint64) []byte {
	size := EncodedSize(m, tid)
	ver := Version
	if tid != 0 {
		ver = TracedVersion
	}
	e := &encoder{b: make([]byte, 0, size)}
	// Header: magic(2) version(1) kind(1) length(4) src(4) dst(4) = 16.
	e.u16(Magic)
	e.u8(ver)
	e.u8(uint8(m.Kind()))
	e.u32(uint32(size))
	e.u32(0) // src, assigned by the transport layer when needed
	e.u32(0) // dst
	if tid != 0 {
		e.u64(tid)
	}
	encodeBody(e, m)
	return e.b
}

func encodeBody(e *encoder, m msg.Message) {
	switch mm := m.(type) {
	case msg.PositionReport:
		e.oid(mm.OID)
		e.point(mm.Pos)
		e.time(mm.Tm)
	case msg.VelocityReport:
		e.oid(mm.OID)
		e.point(mm.Pos)
		e.vector(mm.Vel)
		e.time(mm.Tm)
	case msg.CellChangeReport:
		e.oid(mm.OID)
		e.cell(mm.PrevCell)
		e.cell(mm.NewCell)
		e.point(mm.Pos)
		e.vector(mm.Vel)
		e.time(mm.Tm)
	case msg.ContainmentReport:
		e.oid(mm.OID)
		e.qid(mm.QID)
		e.boolByte(mm.IsTarget)
	case msg.GroupContainmentReport:
		e.oid(mm.OID)
		e.oid(mm.Focal)
		e.u16(uint16(len(mm.QIDs)))
		for _, q := range mm.QIDs {
			e.qid(q)
		}
		e.b = append(e.b, mm.Bitmap.Bytes()...)
	case msg.FocalInfoResponse:
		e.oid(mm.OID)
		e.point(mm.Pos)
		e.vector(mm.Vel)
		e.time(mm.Tm)
	case msg.DepartureReport:
		e.oid(mm.OID)
	case msg.Ping:
		e.u64(mm.Token)
	case msg.Pong:
		e.u64(mm.Token)
	case msg.QueryInstall:
		e.u16(uint16(len(mm.Queries)))
		for _, qs := range mm.Queries {
			e.queryState(qs)
		}
	case msg.QueryRemove:
		e.u16(uint16(len(mm.QIDs)))
		for _, q := range mm.QIDs {
			e.qid(q)
		}
	case msg.VelocityChange:
		e.oid(mm.Focal)
		e.motionState(mm.State)
		e.u16(uint16(len(mm.Queries)))
		for _, qs := range mm.Queries {
			e.queryState(qs)
		}
	case msg.FocalNotify:
		e.oid(mm.OID)
		e.qid(mm.QID)
		e.boolByte(mm.Install)
	case msg.FocalInfoRequest:
		e.oid(mm.OID)
	case msg.NodeHello:
		e.u32(mm.Node)
		e.u16(mm.Proto)
	case msg.NodeHeartbeat:
		e.u32(mm.Node)
		e.u64(mm.Seq)
	case msg.AssignRange:
		e.u64(mm.Epoch)
		e.u32(mm.Node)
		e.u32(mm.Lo)
		e.u32(mm.Hi)
	case msg.Handoff:
		e.u64(mm.Seq)
		e.oid(mm.OID)
		e.boolByte(mm.Relocate)
		e.motionState(mm.State)
		e.cell(mm.Cell)
		e.bytes(mm.Slice)
	case msg.HandoffAck:
		e.u64(mm.Seq)
		e.oid(mm.OID)
	case msg.NodeOp:
		e.u64(mm.Seq)
		e.u8(mm.Code)
		e.bytes(mm.Data)
	case msg.NodeOpDone:
		e.u64(mm.Seq)
		e.u8(mm.Code)
		e.bytes(mm.Data)
	case msg.NodeDownlink:
		e.boolByte(mm.Broadcast)
		e.cellRange(mm.Region)
		e.oid(mm.Target)
		e.bytes(mm.Inner)
	case msg.NodeTelemetry:
		e.u32(mm.Node)
		e.u64(mm.Seq)
		e.bytes(mm.Payload)
	case msg.NodeStatus:
		e.u32(mm.Node)
		e.u64(mm.Seq)
		e.u64(mm.Epoch)
		e.u32(mm.Lo)
		e.u32(mm.Hi)
		e.u64(mm.Digest)
		e.u64(mm.Ops)
	case msg.CheckpointRequest:
		e.u32(mm.Node)
		e.u64(mm.Since)
	case msg.NodeCheckpoint:
		e.u32(mm.Node)
		e.u64(mm.Seq)
		e.u32(uint32(len(mm.Removed)))
		for _, oid := range mm.Removed {
			e.u32(oid)
		}
		e.u32(uint32(len(mm.Slices)))
		for _, s := range mm.Slices {
			e.bytes(s)
		}
	default:
		panic(fmt.Sprintf("wire: cannot encode %T", m))
	}
}

// Decode parses one message, discarding any trace ID. The buffer must
// contain the whole message (use the framing in internal/remote for
// streams).
func Decode(b []byte) (msg.Message, error) {
	m, _, err := DecodeTraced(b)
	return m, err
}

// DecodeTraced parses one message plus its trace ID: 0 for a plain Version
// frame, the carried nonzero ID for a TracedVersion frame.
func DecodeTraced(b []byte) (msg.Message, uint64, error) {
	d := &decoder{b: b}
	if magic := d.u16(); magic != Magic && d.err == nil {
		return nil, 0, fmt.Errorf("wire: bad magic %#04x", magic)
	}
	ver := d.u8()
	if ver != Version && ver != TracedVersion && d.err == nil {
		return nil, 0, &VersionError{Got: ver}
	}
	kind := msg.Kind(d.u8())
	length := d.u32()
	d.u32() // src
	d.u32() // dst
	var tid uint64
	if ver == TracedVersion {
		tid = d.u64()
		if tid == 0 && d.err == nil {
			return nil, 0, errors.New("wire: traced frame with zero trace ID")
		}
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	if int(length) != len(b) {
		return nil, 0, fmt.Errorf("wire: declared length %d, buffer %d", length, len(b))
	}
	m, err := decodeBody(d, kind)
	if err != nil {
		return nil, 0, err
	}
	return m, tid, nil
}

func decodeBody(d *decoder, kind msg.Kind) (msg.Message, error) {
	b := d.b
	var m msg.Message
	switch kind {
	case msg.KindPositionReport:
		m = msg.PositionReport{OID: d.oid(), Pos: d.point(), Tm: d.time()}
	case msg.KindVelocityReport:
		m = msg.VelocityReport{OID: d.oid(), Pos: d.point(), Vel: d.vector(), Tm: d.time()}
	case msg.KindCellChangeReport:
		m = msg.CellChangeReport{
			OID: d.oid(), PrevCell: d.cell(), NewCell: d.cell(),
			Pos: d.point(), Vel: d.vector(), Tm: d.time(),
		}
	case msg.KindContainmentReport:
		m = msg.ContainmentReport{OID: d.oid(), QID: d.qid(), IsTarget: d.boolByte()}
	case msg.KindGroupContainmentReport:
		g := msg.GroupContainmentReport{OID: d.oid(), Focal: d.oid()}
		n := int(d.u16())
		if n > (len(b)-d.off)/4 {
			return nil, ErrTruncated
		}
		g.QIDs = make([]model.QueryID, n)
		for i := range g.QIDs {
			g.QIDs[i] = d.qid()
		}
		bm := msg.NewBitmap(n)
		raw := bm.Bytes()
		for i := range raw {
			raw[i] = d.u8()
		}
		g.Bitmap = bm
		m = g
	case msg.KindFocalInfoResponse:
		m = msg.FocalInfoResponse{OID: d.oid(), Pos: d.point(), Vel: d.vector(), Tm: d.time()}
	case msg.KindDepartureReport:
		m = msg.DepartureReport{OID: d.oid()}
	case msg.KindPing:
		m = msg.Ping{Token: d.u64()}
	case msg.KindPong:
		m = msg.Pong{Token: d.u64()}
	case msg.KindQueryInstall:
		n := int(d.u16())
		if n > (len(b)-d.off)/4 {
			return nil, ErrTruncated
		}
		qi := msg.QueryInstall{Queries: make([]msg.QueryState, n)}
		for i := range qi.Queries {
			qi.Queries[i] = d.queryState()
		}
		m = qi
	case msg.KindQueryRemove:
		n := int(d.u16())
		if n > (len(b)-d.off)/4 {
			return nil, ErrTruncated
		}
		qr := msg.QueryRemove{QIDs: make([]model.QueryID, n)}
		for i := range qr.QIDs {
			qr.QIDs[i] = d.qid()
		}
		m = qr
	case msg.KindVelocityChange:
		vc := msg.VelocityChange{Focal: d.oid(), State: d.motionState()}
		n := int(d.u16())
		if n > (len(b)-d.off)/4 {
			return nil, ErrTruncated
		}
		vc.Queries = make([]msg.QueryState, n)
		for i := range vc.Queries {
			vc.Queries[i] = d.queryState()
		}
		if len(vc.Queries) == 0 {
			vc.Queries = nil
		}
		m = vc
	case msg.KindFocalNotify:
		m = msg.FocalNotify{OID: d.oid(), QID: d.qid(), Install: d.boolByte()}
	case msg.KindFocalInfoRequest:
		m = msg.FocalInfoRequest{OID: d.oid()}
	case msg.KindNodeHello:
		m = msg.NodeHello{Node: d.u32(), Proto: d.u16()}
	case msg.KindNodeHeartbeat:
		m = msg.NodeHeartbeat{Node: d.u32(), Seq: d.u64()}
	case msg.KindAssignRange:
		m = msg.AssignRange{Epoch: d.u64(), Node: d.u32(), Lo: d.u32(), Hi: d.u32()}
	case msg.KindHandoff:
		m = msg.Handoff{
			Seq: d.u64(), OID: d.oid(), Relocate: d.boolByte(),
			State: d.motionState(), Cell: d.cell(), Slice: d.bytes(),
		}
	case msg.KindHandoffAck:
		m = msg.HandoffAck{Seq: d.u64(), OID: d.oid()}
	case msg.KindNodeOp:
		m = msg.NodeOp{Seq: d.u64(), Code: d.u8(), Data: d.bytes()}
	case msg.KindNodeOpDone:
		m = msg.NodeOpDone{Seq: d.u64(), Code: d.u8(), Data: d.bytes()}
	case msg.KindNodeDownlink:
		nd := msg.NodeDownlink{
			Broadcast: d.boolByte(), Region: d.cellRange(),
			Target: d.oid(), Inner: d.bytes(),
		}
		// Canonical addressing: broadcasts carry no unicast target, unicasts
		// carry no region — so every accepted frame has one encoding.
		if d.err == nil {
			if nd.Broadcast && nd.Target != 0 {
				return nil, fmt.Errorf("wire: broadcast node downlink with target %d", nd.Target)
			}
			if !nd.Broadcast && nd.Region != (grid.CellRange{}) {
				return nil, fmt.Errorf("wire: unicast node downlink with region %v", nd.Region)
			}
		}
		m = nd
	case msg.KindNodeTelemetry:
		nt := msg.NodeTelemetry{Node: d.u32(), Seq: d.u64(), Payload: d.bytes()}
		// A telemetry frame exists only to carry a batch: an empty payload is
		// non-canonical (the worker would simply not send the frame).
		if d.err == nil && len(nt.Payload) == 0 {
			return nil, errors.New("wire: node telemetry with empty payload")
		}
		m = nt
	case msg.KindNodeStatus:
		m = msg.NodeStatus{
			Node: d.u32(), Seq: d.u64(), Epoch: d.u64(),
			Lo: d.u32(), Hi: d.u32(), Digest: d.u64(), Ops: d.u64(),
		}
	case msg.KindCheckpointRequest:
		m = msg.CheckpointRequest{Node: d.u32(), Since: d.u64()}
	case msg.KindNodeCheckpoint:
		nc := msg.NodeCheckpoint{Node: d.u32(), Seq: d.u64()}
		n := int(d.u32())
		if n > (len(b)-d.off)/4 {
			return nil, ErrTruncated
		}
		if n > 0 {
			nc.Removed = make([]uint32, n)
			for i := range nc.Removed {
				nc.Removed[i] = d.u32()
				// Strictly ascending: one canonical encoding per removal set,
				// and the journal can apply deletions without a sort.
				if d.err == nil && i > 0 && nc.Removed[i] <= nc.Removed[i-1] {
					return nil, fmt.Errorf("wire: checkpoint removals not strictly ascending at %d", i)
				}
			}
		}
		k := int(d.u32())
		if k > (len(b)-d.off)/4 {
			return nil, ErrTruncated
		}
		if k > 0 {
			nc.Slices = make([][]byte, k)
			for i := range nc.Slices {
				nc.Slices[i] = d.bytes()
				// A zero-length slice can encode no focal row: reject it so a
				// truncated or hand-rolled checkpoint cannot silently drop state.
				if d.err == nil && len(nc.Slices[i]) == 0 {
					return nil, fmt.Errorf("wire: empty checkpoint slice at %d", i)
				}
			}
		}
		m = nc
	default:
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(b)-d.off)
	}
	return m, nil
}
