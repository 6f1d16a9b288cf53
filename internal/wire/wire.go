// Package wire is the binary codec for the MobiEyes protocol messages of
// internal/msg. It has two encodings.
//
// The legacy encoding (Version, and TracedVersion when a trace ID rides
// along) encodes every message to exactly msg.Message.Size() bytes — the
// same figure the power model charges — so the byte accounting of the
// simulation is the byte layout of the protocol. Its layout is a 16-byte
// header (magic, version, kind, flags, payload length, source and
// destination object IDs) followed by the payload fields in little-endian
// order, sized per the constants in internal/msg. Regions encode as a
// one-byte shape tag plus two float64 parameters. Uplinks, snapshots, focal
// slices and the cluster protocol use it.
//
// The compact encoding (CompactVersion, CompactTracedVersion; compact.go)
// covers the six downlink kinds only: a 4-byte header, varint IDs, counts
// and cells, and no padding. The network server (internal/remote) sends it
// to every device whose hello announces it, and charges every downlink at
// its compact size. DecodeTraced reads both encodings; Decode, the inverse
// of Encode, reads the legacy one only, so the formats that embed legacy
// messages keep exactly one encoding per value.
//
// Writer and Reader are the primitives the message bodies are written and
// read with, and the repo's one binary codec: the formats that travel
// inside messages or beside them — cluster op payloads (internal/cluster),
// focal slices and snapshots (internal/core), telemetry batches
// (internal/obs/telemetry) — are written and read with the same pair, and
// wrap its errors with their own package prefix.
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
	return fmt.Sprintf("wire: unsupported version %d (speaking %d to %d)", e.Got, Version, CompactTracedVersion)
}

// Writer appends the little-endian primitives of every MobiEyes binary
// encoding to a buffer: the message bodies below, and the formats that
// embed them (cluster op payloads, focal slices, snapshots, telemetry
// batches). The zero Writer starts an empty buffer.
type Writer struct{ b []byte }

// NewWriter returns a Writer appending to buf.
func NewWriter(buf []byte) Writer { return Writer{b: buf} }

// Bytes returns the buffer written so far.
func (e *Writer) Bytes() []byte { return e.b }

// Raw appends b as is, with no length prefix.
func (e *Writer) Raw(b []byte) { e.b = append(e.b, b...) }

func (e *Writer) U8(v uint8)    { e.b = append(e.b, v) }
func (e *Writer) U16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *Writer) U32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Writer) U64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Writer) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Writer) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func (e *Writer) Point(p geo.Point)          { e.F64(p.X); e.F64(p.Y) }
func (e *Writer) Vector(v geo.Vector)        { e.F64(v.X); e.F64(v.Y) }
func (e *Writer) Time(t model.Time)          { e.F64(float64(t)) }
func (e *Writer) OID(id model.ObjectID)      { e.U32(uint32(id)) }
func (e *Writer) QID(id model.QueryID)       { e.U32(uint32(id)) }
func (e *Writer) Cell(c grid.CellID)         { e.U32(uint32(int32(c.Col))); e.U32(uint32(int32(c.Row))) }
func (e *Writer) CellRange(r grid.CellRange) { e.Cell(r.Min); e.Cell(r.Max) }
func (e *Writer) Filter(f model.Filter) {
	e.U64(f.Seed)
	e.U32(f.Permille)
}

// Blob appends a u32 length prefix and the raw payload.
func (e *Writer) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.Raw(b)
}

func (e *Writer) Region(r model.Region) {
	switch rr := r.(type) {
	case model.CircleRegion:
		e.U8(regionCircle)
		e.F64(rr.R)
		e.F64(0)
	case model.RectRegion:
		e.U8(regionRect)
		e.F64(rr.W)
		e.F64(rr.H)
	case model.PolygonRegion:
		e.U8(regionPolygon)
		e.U16(uint16(len(rr.Vertices)))
		for _, v := range rr.Vertices {
			e.Point(v)
		}
	default:
		// Unknown shapes degrade to their enclosing circle: every consumer
		// of a Region can work with that soundly.
		e.U8(regionCircle)
		e.F64(r.EnclosingRadius())
		e.F64(0)
	}
}

func (e *Writer) MotionState(s model.MotionState) {
	e.Point(s.Pos)
	e.Vector(s.Vel)
	e.Time(s.Tm)
}

func (e *Writer) QueryState(qs msg.QueryState) {
	e.QID(qs.QID)
	e.OID(qs.Focal)
	e.MotionState(qs.State)
	e.Region(qs.Region)
	e.Filter(qs.Filter)
	e.CellRange(qs.MonRegion)
	e.F64(qs.FocalMaxVel)
}

// Reader consumes what a Writer appended. The first short read or invalid
// value sets a sticky error; every later read yields zero, so a caller
// reads a whole record and checks Err (or Done) once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err reports the sticky error, if any.
func (d *Reader) Err() error { return d.err }

// Done reports the sticky error, or an error if bytes remain unread.
func (d *Reader) Done() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("wire: %d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Rest returns the unread bytes without consuming them.
func (d *Reader) Rest() []byte { return d.b[d.off:] }

// Raw consumes n bytes and returns them; the result aliases the buffer.
func (d *Reader) Raw(n int) []byte {
	if n < 0 || !d.need(n) {
		if d.err == nil {
			d.err = ErrTruncated
		}
		return nil
	}
	v := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return v
}

// Blob consumes a u32 length prefix and that many bytes; the result aliases
// the buffer. Message decoding copies instead (see bytes).
func (d *Reader) Blob() []byte { return d.Raw(int(d.U32())) }

func (d *Reader) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.b) {
		d.err = ErrTruncated
		return false
	}
	return true
}

func (d *Reader) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Reader) U16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *Reader) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *Reader) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *Reader) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Reader) Bool() bool {
	// Strict: only 0 and 1 are valid, so every accepted payload has
	// exactly one encoding (found by FuzzWire's canonicity property).
	b := d.U8()
	if b > 1 && d.err == nil {
		d.err = fmt.Errorf("wire: invalid bool byte %#02x", b)
	}
	return b == 1
}
func (d *Reader) Point() geo.Point { return geo.Pt(d.F64(), d.F64()) }
func (d *Reader) Vector() geo.Vector {
	return geo.Vec(d.F64(), d.F64())
}
func (d *Reader) Time() model.Time    { return model.Time(d.F64()) }
func (d *Reader) OID() model.ObjectID { return model.ObjectID(d.U32()) }
func (d *Reader) QID() model.QueryID  { return model.QueryID(d.U32()) }
func (d *Reader) Cell() grid.CellID {
	return grid.CellID{Col: int(int32(d.U32())), Row: int(int32(d.U32()))}
}
func (d *Reader) CellRange() grid.CellRange {
	return grid.CellRange{Min: d.Cell(), Max: d.Cell()}
}
func (d *Reader) Filter() model.Filter {
	return model.Filter{Seed: d.U64(), Permille: d.U32()}
}

// bytes consumes a u32 length prefix and that many raw bytes. Zero length
// decodes to nil so the round trip stays canonical.
func (d *Reader) bytes() []byte {
	n := int(d.U32())
	if n == 0 || !d.need(n) {
		return nil
	}
	b := make([]byte, n)
	copy(b, d.b[d.off:])
	d.off += n
	return b
}

// Region decodes a region including the variable-length polygon form.
func (d *Reader) Region() model.Region {
	tag := d.U8()
	switch tag {
	case regionCircle:
		a := d.F64()
		// The second word is padding (circles use one parameter, rects two);
		// it must be zero so the encoding stays canonical.
		if pad := d.U64(); pad != 0 && d.err == nil {
			d.err = fmt.Errorf("wire: nonzero circle padding %#x", pad)
		}
		return model.CircleRegion{R: a}
	case regionRect:
		return model.RectRegion{W: d.F64(), H: d.F64()}
	case regionPolygon:
		n := int(d.U16())
		if n < 3 || !d.need(n*16) {
			if d.err == nil {
				d.err = fmt.Errorf("wire: polygon with %d vertices", n)
			}
			return model.CircleRegion{}
		}
		vs := make([]geo.Point, n)
		for i := range vs {
			vs[i] = d.Point()
		}
		return model.PolygonRegion{Vertices: vs}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown region tag %d", tag)
		}
		return model.CircleRegion{}
	}
}

func (d *Reader) MotionState() model.MotionState {
	return model.MotionState{Pos: d.Point(), Vel: d.Vector(), Tm: d.Time()}
}

func (d *Reader) QueryState() msg.QueryState {
	return msg.QueryState{
		QID:         d.QID(),
		Focal:       d.OID(),
		State:       d.MotionState(),
		Region:      d.Region(),
		Filter:      d.Filter(),
		MonRegion:   d.CellRange(),
		FocalMaxVel: d.F64(),
	}
}

// Encode serializes m. The result is exactly m.Size() bytes.
func Encode(m msg.Message) []byte { return EncodeTraced(m, 0) }

// EncodedSize is len(EncodeTraced(m, tid)) without encoding: m.Size(),
// plus TraceOverhead when tid is nonzero. EncodeTraced sizes its buffer with
// it; the legacy fuzz and size checks pin it to the encoded length.
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
	e := &Writer{b: make([]byte, 0, size)}
	// Header: magic(2) version(1) kind(1) length(4) src(4) dst(4) = 16.
	e.U16(Magic)
	e.U8(ver)
	e.U8(uint8(m.Kind()))
	e.U32(uint32(size))
	e.U32(0) // src, assigned by the transport layer when needed
	e.U32(0) // dst
	if tid != 0 {
		e.U64(tid)
	}
	encodeBody(e, m)
	return e.b
}

func encodeBody(e *Writer, m msg.Message) {
	switch mm := m.(type) {
	case msg.PositionReport:
		e.OID(mm.OID)
		e.Point(mm.Pos)
		e.Time(mm.Tm)
	case msg.VelocityReport:
		e.OID(mm.OID)
		e.Point(mm.Pos)
		e.Vector(mm.Vel)
		e.Time(mm.Tm)
	case msg.CellChangeReport:
		e.OID(mm.OID)
		e.Cell(mm.PrevCell)
		e.Cell(mm.NewCell)
		e.Point(mm.Pos)
		e.Vector(mm.Vel)
		e.Time(mm.Tm)
	case msg.ContainmentReport:
		e.OID(mm.OID)
		e.QID(mm.QID)
		e.Bool(mm.IsTarget)
	case msg.GroupContainmentReport:
		e.OID(mm.OID)
		e.OID(mm.Focal)
		e.U16(uint16(len(mm.QIDs)))
		for _, q := range mm.QIDs {
			e.QID(q)
		}
		e.b = append(e.b, mm.Bitmap.Bytes()...)
	case msg.FocalInfoResponse:
		e.OID(mm.OID)
		e.Point(mm.Pos)
		e.Vector(mm.Vel)
		e.Time(mm.Tm)
	case msg.DepartureReport:
		e.OID(mm.OID)
	case msg.Ping:
		e.U64(mm.Token)
	case msg.Pong:
		e.U64(mm.Token)
	case msg.QueryInstall:
		e.U16(uint16(len(mm.Queries)))
		for _, qs := range mm.Queries {
			e.QueryState(qs)
		}
	case msg.QueryRemove:
		e.U16(uint16(len(mm.QIDs)))
		for _, q := range mm.QIDs {
			e.QID(q)
		}
	case msg.VelocityChange:
		e.OID(mm.Focal)
		e.MotionState(mm.State)
		e.U16(uint16(len(mm.Queries)))
		for _, qs := range mm.Queries {
			e.QueryState(qs)
		}
	case msg.FocalNotify:
		e.OID(mm.OID)
		e.QID(mm.QID)
		e.Bool(mm.Install)
	case msg.FocalInfoRequest:
		e.OID(mm.OID)
	case msg.NodeHello:
		e.U32(mm.Node)
		e.U16(mm.Proto)
	case msg.NodeHeartbeat:
		e.U32(mm.Node)
		e.U64(mm.Seq)
	case msg.AssignRange:
		e.U64(mm.Epoch)
		e.U32(mm.Node)
		e.U32(mm.Lo)
		e.U32(mm.Hi)
	case msg.Handoff:
		e.U64(mm.Seq)
		e.OID(mm.OID)
		e.Bool(mm.Relocate)
		e.MotionState(mm.State)
		e.Cell(mm.Cell)
		e.Blob(mm.Slice)
	case msg.HandoffAck:
		e.U64(mm.Seq)
		e.OID(mm.OID)
	case msg.NodeOp:
		e.U64(mm.Seq)
		e.U8(mm.Code)
		e.Blob(mm.Data)
	case msg.NodeOpDone:
		e.U64(mm.Seq)
		e.U8(mm.Code)
		e.Blob(mm.Data)
	case msg.NodeDownlink:
		e.Bool(mm.Broadcast)
		e.CellRange(mm.Region)
		e.OID(mm.Target)
		e.Blob(mm.Inner)
	case msg.NodeTelemetry:
		e.U32(mm.Node)
		e.U64(mm.Seq)
		e.Blob(mm.Payload)
	case msg.NodeStatus:
		e.U32(mm.Node)
		e.U64(mm.Seq)
		e.U64(mm.Epoch)
		e.U32(mm.Lo)
		e.U32(mm.Hi)
		e.U64(mm.Ops)
	case msg.CheckpointRequest:
		e.U32(mm.Node)
		e.U64(mm.Since)
	case msg.NodeCheckpoint:
		e.U32(mm.Node)
		e.U64(mm.Seq)
		e.U32(uint32(len(mm.Removed)))
		for _, oid := range mm.Removed {
			e.U32(oid)
		}
		e.U32(uint32(len(mm.Slices)))
		for _, s := range mm.Slices {
			e.Blob(s)
		}
	default:
		panic(fmt.Sprintf("wire: cannot encode %T", m))
	}
}

// Decode parses one message of the legacy encoding (Version or
// TracedVersion), discarding any trace ID: the inverse of Encode, and what
// the formats embedding legacy messages — snapshots, focal slices, cluster
// payloads — decode with. A compact frame is a *VersionError here. The
// buffer must contain the whole message (use the framing in internal/remote
// for streams).
func Decode(b []byte) (msg.Message, error) {
	if len(b) > 2 && (b[2] == CompactVersion || b[2] == CompactTracedVersion) {
		return nil, &VersionError{Got: b[2]}
	}
	m, _, err := DecodeTraced(b)
	return m, err
}

// DecodeTraced parses one message in either encoding plus its trace ID: 0
// for a plain Version or CompactVersion frame, the carried nonzero ID for a
// traced one.
func DecodeTraced(b []byte) (msg.Message, uint64, error) {
	d := &Reader{b: b}
	if magic := d.U16(); magic != Magic && d.err == nil {
		return nil, 0, fmt.Errorf("wire: bad magic %#04x", magic)
	}
	ver := d.U8()
	compact := ver == CompactVersion || ver == CompactTracedVersion
	if ver != Version && ver != TracedVersion && !compact && d.err == nil {
		return nil, 0, &VersionError{Got: ver}
	}
	kind := msg.Kind(d.U8())
	var length uint32
	if !compact {
		length = d.U32()
		d.U32() // src
		d.U32() // dst
	}
	var tid uint64
	if ver == TracedVersion || ver == CompactTracedVersion {
		tid = d.U64()
		if tid == 0 && d.err == nil {
			return nil, 0, errors.New("wire: traced frame with zero trace ID")
		}
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	var m msg.Message
	var err error
	if compact {
		m, err = decodeCompactBody(d, kind)
	} else if int(length) != len(b) {
		err = fmt.Errorf("wire: declared length %d, buffer %d", length, len(b))
	} else {
		m, err = decodeBody(d, kind)
	}
	if err != nil {
		return nil, 0, err
	}
	return m, tid, nil
}

func decodeBody(d *Reader, kind msg.Kind) (msg.Message, error) {
	b := d.b
	var m msg.Message
	switch kind {
	case msg.KindPositionReport:
		m = msg.PositionReport{OID: d.OID(), Pos: d.Point(), Tm: d.Time()}
	case msg.KindVelocityReport:
		m = msg.VelocityReport{OID: d.OID(), Pos: d.Point(), Vel: d.Vector(), Tm: d.Time()}
	case msg.KindCellChangeReport:
		m = msg.CellChangeReport{
			OID: d.OID(), PrevCell: d.Cell(), NewCell: d.Cell(),
			Pos: d.Point(), Vel: d.Vector(), Tm: d.Time(),
		}
	case msg.KindContainmentReport:
		m = msg.ContainmentReport{OID: d.OID(), QID: d.QID(), IsTarget: d.Bool()}
	case msg.KindGroupContainmentReport:
		g := msg.GroupContainmentReport{OID: d.OID(), Focal: d.OID()}
		n := int(d.U16())
		if n > (len(b)-d.off)/4 {
			return nil, ErrTruncated
		}
		g.QIDs = make([]model.QueryID, n)
		for i := range g.QIDs {
			g.QIDs[i] = d.QID()
		}
		bm := msg.NewBitmap(n)
		raw := bm.Bytes()
		for i := range raw {
			raw[i] = d.U8()
		}
		g.Bitmap = bm
		m = g
	case msg.KindFocalInfoResponse:
		m = msg.FocalInfoResponse{OID: d.OID(), Pos: d.Point(), Vel: d.Vector(), Tm: d.Time()}
	case msg.KindDepartureReport:
		m = msg.DepartureReport{OID: d.OID()}
	case msg.KindPing:
		m = msg.Ping{Token: d.U64()}
	case msg.KindPong:
		m = msg.Pong{Token: d.U64()}
	case msg.KindQueryInstall:
		n := int(d.U16())
		if n > (len(b)-d.off)/4 {
			return nil, ErrTruncated
		}
		qi := msg.QueryInstall{Queries: make([]msg.QueryState, n)}
		for i := range qi.Queries {
			qi.Queries[i] = d.QueryState()
		}
		m = qi
	case msg.KindQueryRemove:
		n := int(d.U16())
		if n > (len(b)-d.off)/4 {
			return nil, ErrTruncated
		}
		qr := msg.QueryRemove{QIDs: make([]model.QueryID, n)}
		for i := range qr.QIDs {
			qr.QIDs[i] = d.QID()
		}
		m = qr
	case msg.KindVelocityChange:
		vc := msg.VelocityChange{Focal: d.OID(), State: d.MotionState()}
		n := int(d.U16())
		if n > (len(b)-d.off)/4 {
			return nil, ErrTruncated
		}
		vc.Queries = make([]msg.QueryState, n)
		for i := range vc.Queries {
			vc.Queries[i] = d.QueryState()
		}
		if len(vc.Queries) == 0 {
			vc.Queries = nil
		}
		m = vc
	case msg.KindFocalNotify:
		m = msg.FocalNotify{OID: d.OID(), QID: d.QID(), Install: d.Bool()}
	case msg.KindFocalInfoRequest:
		m = msg.FocalInfoRequest{OID: d.OID()}
	case msg.KindNodeHello:
		m = msg.NodeHello{Node: d.U32(), Proto: d.U16()}
	case msg.KindNodeHeartbeat:
		m = msg.NodeHeartbeat{Node: d.U32(), Seq: d.U64()}
	case msg.KindAssignRange:
		m = msg.AssignRange{Epoch: d.U64(), Node: d.U32(), Lo: d.U32(), Hi: d.U32()}
	case msg.KindHandoff:
		m = msg.Handoff{
			Seq: d.U64(), OID: d.OID(), Relocate: d.Bool(),
			State: d.MotionState(), Cell: d.Cell(), Slice: d.bytes(),
		}
	case msg.KindHandoffAck:
		m = msg.HandoffAck{Seq: d.U64(), OID: d.OID()}
	case msg.KindNodeOp:
		m = msg.NodeOp{Seq: d.U64(), Code: d.U8(), Data: d.bytes()}
	case msg.KindNodeOpDone:
		m = msg.NodeOpDone{Seq: d.U64(), Code: d.U8(), Data: d.bytes()}
	case msg.KindNodeDownlink:
		nd := msg.NodeDownlink{
			Broadcast: d.Bool(), Region: d.CellRange(),
			Target: d.OID(), Inner: d.bytes(),
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
		nt := msg.NodeTelemetry{Node: d.U32(), Seq: d.U64(), Payload: d.bytes()}
		// A telemetry frame exists only to carry a batch: an empty payload is
		// non-canonical (the worker would simply not send the frame).
		if d.err == nil && len(nt.Payload) == 0 {
			return nil, errors.New("wire: node telemetry with empty payload")
		}
		m = nt
	case msg.KindNodeStatus:
		m = msg.NodeStatus{
			Node: d.U32(), Seq: d.U64(), Epoch: d.U64(),
			Lo: d.U32(), Hi: d.U32(), Ops: d.U64(),
		}
	case msg.KindCheckpointRequest:
		m = msg.CheckpointRequest{Node: d.U32(), Since: d.U64()}
	case msg.KindNodeCheckpoint:
		nc := msg.NodeCheckpoint{Node: d.U32(), Seq: d.U64()}
		n := int(d.U32())
		if n > (len(b)-d.off)/4 {
			return nil, ErrTruncated
		}
		if n > 0 {
			nc.Removed = make([]uint32, n)
			for i := range nc.Removed {
				nc.Removed[i] = d.U32()
				// Strictly ascending: one canonical encoding per removal set,
				// and the journal can apply deletions without a sort.
				if d.err == nil && i > 0 && nc.Removed[i] <= nc.Removed[i-1] {
					return nil, fmt.Errorf("wire: checkpoint removals not strictly ascending at %d", i)
				}
			}
		}
		k := int(d.U32())
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
	if err := d.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
