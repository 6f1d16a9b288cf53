package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// The compact downlink encoding is what the network server sends a device
// that announced it in its hello (internal/remote). It carries the same
// messages as the legacy encoding in fewer bytes:
//
//   - a 4-byte header — magic u16, version u8, kind u8 — with no length,
//     source or destination words, since the transport frame carries the
//     length; CompactTracedVersion adds the nonzero u64 trace ID;
//   - object and query IDs and list counts as minimal uvarints, and each cell
//     coordinate as a zigzag varint;
//   - positions, velocities, times, radii and FocalMaxVel as f64, so the
//     exact variants stay exact; a circle writes one f64, with no padding;
//   - a filter as one flags byte, followed by the seed (u64) and the
//     permille (uvarint) only when the filter is nonzero.
//
// Only the six downlink kinds have a compact form. The decoder rejects
// overlong varints, unknown flag bits and trailing bytes, so every accepted
// byte string has exactly one encoding, as in the legacy versions.
const (
	CompactVersion       = uint8(3)
	CompactTracedVersion = uint8(4)
	// compactHeaderSize is the length of a compact untraced header.
	compactHeaderSize = 4
)

// filterPresent is the one defined bit of a compact filter's flags byte.
const filterPresent = uint8(1)

// minCompactState is the shortest compact QueryState: one-byte IDs, the
// motion state, a circle, an absent filter, one-byte cells, FocalMaxVel.
const minCompactState = 1 + 1 + 40 + 1 + 8 + 1 + 4 + 8

// EncodeCompact serializes the downlink message m in the compact encoding,
// carrying tid when it is nonzero (as CompactTracedVersion). The result is
// exactly CompactSize(m, tid) bytes. It panics on a kind that is not a
// downlink.
func EncodeCompact(m msg.Message, tid uint64) []byte {
	ver := CompactVersion
	if tid != 0 {
		ver = CompactTracedVersion
	}
	e := &Writer{b: make([]byte, 0, CompactSize(m, tid))}
	e.U16(Magic)
	e.U8(ver)
	e.U8(uint8(m.Kind()))
	if tid != 0 {
		e.U64(tid)
	}
	switch mm := m.(type) {
	case msg.QueryInstall:
		e.uvarint(uint64(len(mm.Queries)))
		for i := range mm.Queries {
			e.compactQueryState(&mm.Queries[i])
		}
	case msg.QueryRemove:
		e.uvarint(uint64(len(mm.QIDs)))
		for _, q := range mm.QIDs {
			e.id(uint32(q))
		}
	case msg.VelocityChange:
		e.id(uint32(mm.Focal))
		e.MotionState(mm.State)
		e.uvarint(uint64(len(mm.Queries)))
		for i := range mm.Queries {
			e.compactQueryState(&mm.Queries[i])
		}
	case msg.FocalNotify:
		e.id(uint32(mm.OID))
		e.id(uint32(mm.QID))
		e.Bool(mm.Install)
	case msg.FocalInfoRequest:
		e.id(uint32(mm.OID))
	case msg.Pong:
		e.U64(mm.Token)
	default:
		panic(fmt.Sprintf("wire: %T has no compact encoding", m))
	}
	return e.b
}

// CompactSize is len(EncodeCompact(m, tid)), computed without encoding. The
// network server charges every downlink at this size plus the 4-byte frame
// prefix, whichever encoding the receiving sessions read.
func CompactSize(m msg.Message, tid uint64) int {
	n := compactHeaderSize
	if tid != 0 {
		n += TraceOverhead
	}
	switch mm := m.(type) {
	case msg.QueryInstall:
		n += uvarintLen(uint64(len(mm.Queries)))
		for i := range mm.Queries {
			n += compactStateSize(&mm.Queries[i])
		}
	case msg.QueryRemove:
		n += uvarintLen(uint64(len(mm.QIDs)))
		for _, q := range mm.QIDs {
			n += uvarintLen(uint64(uint32(q)))
		}
	case msg.VelocityChange:
		n += uvarintLen(uint64(uint32(mm.Focal))) + 5*msg.ScalarSize + uvarintLen(uint64(len(mm.Queries)))
		for i := range mm.Queries {
			n += compactStateSize(&mm.Queries[i])
		}
	case msg.FocalNotify:
		n += uvarintLen(uint64(uint32(mm.OID))) + uvarintLen(uint64(uint32(mm.QID))) + msg.BoolSize
	case msg.FocalInfoRequest:
		n += uvarintLen(uint64(uint32(mm.OID)))
	case msg.Pong:
		n += msg.ScalarSize
	default:
		panic(fmt.Sprintf("wire: %T has no compact encoding", m))
	}
	return n
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func zigzag(v int32) uint64 { return uint64(uint32(v<<1) ^ uint32(v>>31)) }

func compactStateSize(qs *msg.QueryState) int {
	n := uvarintLen(uint64(uint32(qs.QID))) + uvarintLen(uint64(uint32(qs.Focal))) + 5*msg.ScalarSize + msg.ScalarSize
	switch r := qs.Region.(type) {
	case model.RectRegion:
		n += 1 + 2*msg.ScalarSize
	case model.PolygonRegion:
		n += 1 + uvarintLen(uint64(len(r.Vertices))) + len(r.Vertices)*msg.PointSize
	default:
		n += 1 + msg.ScalarSize
	}
	n++ // filter flags
	if qs.Filter != (model.Filter{}) {
		n += msg.ScalarSize + uvarintLen(uint64(qs.Filter.Permille))
	}
	c := qs.MonRegion
	return n + uvarintLen(zigzag(int32(c.Min.Col))) + uvarintLen(zigzag(int32(c.Min.Row))) +
		uvarintLen(zigzag(int32(c.Max.Col))) + uvarintLen(zigzag(int32(c.Max.Row)))
}

func (e *Writer) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// id writes an object or query ID, whose int32 bits the legacy encoding
// writes as a u32, as a uvarint.
func (e *Writer) id(v uint32) { e.uvarint(uint64(v)) }

func (e *Writer) compactCell(c grid.CellID) {
	e.uvarint(zigzag(int32(c.Col)))
	e.uvarint(zigzag(int32(c.Row)))
}

func (e *Writer) compactQueryState(qs *msg.QueryState) {
	e.id(uint32(qs.QID))
	e.id(uint32(qs.Focal))
	e.MotionState(qs.State)
	switch r := qs.Region.(type) {
	case model.RectRegion:
		e.U8(regionRect)
		e.F64(r.W)
		e.F64(r.H)
	case model.PolygonRegion:
		e.U8(regionPolygon)
		e.uvarint(uint64(len(r.Vertices)))
		for _, v := range r.Vertices {
			e.Point(v)
		}
	case model.CircleRegion:
		e.U8(regionCircle)
		e.F64(r.R)
	default:
		// As in the legacy encoding, an unknown shape degrades to its
		// enclosing circle.
		e.U8(regionCircle)
		e.F64(r.EnclosingRadius())
	}
	if qs.Filter == (model.Filter{}) {
		e.U8(0)
	} else {
		e.U8(filterPresent)
		e.U64(qs.Filter.Seed)
		e.uvarint(uint64(qs.Filter.Permille))
	}
	e.compactCell(qs.MonRegion.Min)
	e.compactCell(qs.MonRegion.Max)
	e.F64(qs.FocalMaxVel)
}

// uvarint32 reads a minimal uvarint no larger than math.MaxUint32: every
// compact integer but the trace ID and the filter seed, which are fixed u64s.
func (d *Reader) uvarint32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.b) && d.b[d.off] < 0x80 { // one byte: minimal and in range
		d.off++
		return uint32(d.b[d.off-1])
	}
	v, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n == 0:
		d.err = ErrTruncated
		return 0
	case n < 0 || v > math.MaxUint32:
		d.err = errors.New("wire: varint out of range")
		return 0
	case d.b[d.off+n-1] == 0:
		d.err = errors.New("wire: overlong varint")
		return 0
	}
	d.off += n
	return uint32(v)
}

// count reads a list length and checks that at least min bytes per element
// remain, so a lying count cannot make the decoder allocate.
func (d *Reader) count(min int) int {
	n := d.uvarint32()
	if d.err == nil && int(n) > (len(d.b)-d.off)/min {
		d.err = ErrTruncated
		return 0
	}
	return int(n)
}

func (d *Reader) compactCell() grid.CellID {
	col, row := d.uvarint32(), d.uvarint32()
	unzig := func(u uint32) int { return int(int32(u>>1 ^ -(u & 1))) }
	return grid.CellID{Col: unzig(col), Row: unzig(row)}
}

func (d *Reader) compactRegion() model.Region {
	switch tag := d.U8(); tag {
	case regionCircle:
		return model.CircleRegion{R: d.F64()}
	case regionRect:
		return model.RectRegion{W: d.F64(), H: d.F64()}
	case regionPolygon:
		n := d.count(msg.PointSize)
		if n < 3 {
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

func (d *Reader) compactFilter() model.Filter {
	switch flags := d.U8(); flags {
	case 0:
		return model.Filter{}
	case filterPresent:
		f := model.Filter{Seed: d.U64(), Permille: d.uvarint32()}
		if f == (model.Filter{}) && d.err == nil {
			d.err = errors.New("wire: zero filter marked present")
		}
		return f
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown filter flags %#02x", flags)
		}
		return model.Filter{}
	}
}

func (d *Reader) compactQueryState() msg.QueryState {
	return msg.QueryState{
		QID:         model.QueryID(d.uvarint32()),
		Focal:       model.ObjectID(d.uvarint32()),
		State:       d.MotionState(),
		Region:      d.compactRegion(),
		Filter:      d.compactFilter(),
		MonRegion:   grid.CellRange{Min: d.compactCell(), Max: d.compactCell()},
		FocalMaxVel: d.F64(),
	}
}

func (d *Reader) compactStates() []msg.QueryState {
	qs := make([]msg.QueryState, d.count(minCompactState))
	for i := range qs {
		qs[i] = d.compactQueryState()
	}
	return qs
}

// decodeCompactBody reads the body of a compact frame of the given kind.
// Empty lists decode as the legacy decoder leaves them, so both encodings
// of a message decode to equal values.
func decodeCompactBody(d *Reader, kind msg.Kind) (msg.Message, error) {
	var m msg.Message
	switch kind {
	case msg.KindQueryInstall:
		m = msg.QueryInstall{Queries: d.compactStates()}
	case msg.KindQueryRemove:
		qr := msg.QueryRemove{QIDs: make([]model.QueryID, d.count(1))}
		for i := range qr.QIDs {
			qr.QIDs[i] = model.QueryID(d.uvarint32())
		}
		m = qr
	case msg.KindVelocityChange:
		vc := msg.VelocityChange{Focal: model.ObjectID(d.uvarint32()), State: d.MotionState()}
		if vc.Queries = d.compactStates(); len(vc.Queries) == 0 {
			vc.Queries = nil
		}
		m = vc
	case msg.KindFocalNotify:
		m = msg.FocalNotify{
			OID: model.ObjectID(d.uvarint32()), QID: model.QueryID(d.uvarint32()),
			Install: d.Bool(),
		}
	case msg.KindFocalInfoRequest:
		m = msg.FocalInfoRequest{OID: model.ObjectID(d.uvarint32())}
	case msg.KindPong:
		m = msg.Pong{Token: d.U64()}
	default:
		return nil, fmt.Errorf("wire: kind %d has no compact encoding", kind)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
