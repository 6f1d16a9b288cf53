package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// sampleMessages returns one populated instance of every message kind.
func sampleMessages(rng *rand.Rand) []msg.Message {
	st := model.MotionState{Pos: geo.Pt(1.5, -2.25), Vel: geo.Vec(-60, 120.5), Tm: 0.125}
	qs := msg.QueryState{
		QID:    7,
		Focal:  9,
		State:  st,
		Region: model.CircleRegion{R: 3.5},
		Filter: model.Filter{Seed: rng.Uint64(), Permille: 750},
		MonRegion: grid.CellRange{
			Min: grid.CellID{Col: 2, Row: 3},
			Max: grid.CellID{Col: 5, Row: 6},
		},
		FocalMaxVel: 250,
	}
	qsRect := qs
	qsRect.QID = 8
	qsRect.Region = model.RectRegion{W: 4, H: 2}

	bm := msg.NewBitmap(3)
	bm.Set(0, true)
	bm.Set(2, true)

	return []msg.Message{
		msg.PositionReport{OID: 1, Pos: geo.Pt(3, 4), Tm: 0.5},
		msg.VelocityReport{OID: 2, Pos: geo.Pt(-1, 2), Vel: geo.Vec(10, -20), Tm: 1.25},
		msg.CellChangeReport{
			OID: 3, PrevCell: grid.CellID{Col: -1, Row: -1},
			NewCell: grid.CellID{Col: 4, Row: 5},
			Pos:     geo.Pt(20, 25), Vel: geo.Vec(0, 0), Tm: 2,
		},
		msg.ContainmentReport{OID: 4, QID: 7, IsTarget: true},
		msg.GroupContainmentReport{OID: 5, Focal: 9, QIDs: []model.QueryID{7, 8, 9}, Bitmap: bm},
		msg.FocalInfoResponse{OID: 6, Pos: geo.Pt(0, 0), Vel: geo.Vec(1, 1), Tm: 3},
		msg.DepartureReport{OID: 7},
		msg.Ping{Token: rng.Uint64()},
		msg.QueryInstall{Queries: []msg.QueryState{qs, qsRect}},
		msg.QueryRemove{QIDs: []model.QueryID{1, 2, 3}},
		msg.VelocityChange{Focal: 9, State: st},
		msg.VelocityChange{Focal: 9, State: st, Queries: []msg.QueryState{qs}},
		msg.FocalNotify{OID: 10, QID: 11, Install: true},
		msg.FocalInfoRequest{OID: 12},
		msg.Pong{Token: rng.Uint64()},
		msg.NodeHello{Node: 1, Proto: 3},
		msg.NodeHeartbeat{Node: 2, Seq: rng.Uint64()},
		msg.AssignRange{Epoch: 4, Node: 1, Lo: 20, Hi: 57},
		msg.Handoff{
			Seq: 9, OID: 13, Relocate: true, State: st,
			Cell: grid.CellID{Col: 4, Row: 5}, Slice: []byte{1, 2, 3, 4},
		},
		msg.HandoffAck{Seq: 9, OID: 13},
		msg.NodeOp{Seq: 10, Code: 3, Data: []byte{0xAA, 0xBB}},
		msg.NodeOpDone{Seq: 10, Code: 3, Data: []byte{0x01}},
		msg.NodeDownlink{
			Broadcast: true,
			Region: grid.CellRange{
				Min: grid.CellID{Col: 1, Row: 1},
				Max: grid.CellID{Col: 3, Row: 4},
			},
			Inner: Encode(msg.FocalNotify{OID: 10, QID: 11, Install: true}),
		},
		msg.NodeDownlink{Target: 14, Inner: Encode(msg.FocalInfoRequest{OID: 14})},
		msg.NodeTelemetry{Node: 2, Seq: 17, Payload: []byte{0x01, 0x00, 0x02, 0xFE}},
		msg.NodeStatus{Node: 2, Seq: rng.Uint64(), Epoch: 5, Lo: 20, Hi: 57, Ops: 123},
		msg.CheckpointRequest{Node: 1, Since: rng.Uint64()},
		msg.NodeCheckpoint{Node: 1, Seq: 9}, // empty delta: journal current
		msg.NodeCheckpoint{
			Node: 2, Seq: 10,
			Removed: []uint32{3, 7, 19},
			Slices:  [][]byte{{0x01, 0x00, 0x09}, {0x01, 0x00, 0x0D, 0xFF}},
		},
	}
}

// TestRoundTripAllKinds: Decode(Encode(m)) == m for every message kind.
func TestRoundTripAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range sampleMessages(rng) {
		b := Encode(m)
		back, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Kind(), err)
		}
		if !messagesEqual(m, back) {
			t.Fatalf("%v: round trip mismatch:\n  in:  %#v\n  out: %#v", m.Kind(), m, back)
		}
	}
}

// messagesEqual compares messages, treating bitmaps by content.
func messagesEqual(a, b msg.Message) bool {
	ga, okA := a.(msg.GroupContainmentReport)
	gb, okB := b.(msg.GroupContainmentReport)
	if okA != okB {
		return false
	}
	if okA {
		return ga.OID == gb.OID && ga.Focal == gb.Focal &&
			reflect.DeepEqual(ga.QIDs, gb.QIDs) && ga.Bitmap.Equal(gb.Bitmap)
	}
	return reflect.DeepEqual(a, b)
}

// TestEncodedSizeMatchesSize pins the property the power model relies on:
// the declared Size() is the exact number of encoded bytes.
func TestEncodedSizeMatchesSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range sampleMessages(rng) {
		if got := len(Encode(m)); got != m.Size() {
			t.Errorf("%v: encoded %d bytes, Size() = %d", m.Kind(), got, m.Size())
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	good := Encode(msg.PositionReport{OID: 1, Pos: geo.Pt(1, 2), Tm: 3})
	cases := map[string][]byte{
		"empty":             nil,
		"too short":         good[:8],
		"bad magic":         mutate(good, 0, 0xAA),
		"bad version":       mutate(good, 2, 99),
		"bad kind":          mutate(good, 3, 200),
		"bad length":        mutate(good, 4, byte(len(good)+5)),
		"truncated payload": good[:len(good)-4],
		"trailing bytes":    append(append([]byte(nil), good...), 0, 0),
		// A telemetry frame exists only to carry a batch: empty payloads are
		// non-canonical and rejected.
		"empty telemetry payload": Encode(msg.NodeTelemetry{Node: 1, Seq: 1}),
		// Checkpoint deltas: removal lists must be strictly ascending and
		// every slice non-empty, so each delta has exactly one encoding and a
		// truncated slice cannot silently drop a focal row.
		"checkpoint removals unsorted": Encode(msg.NodeCheckpoint{
			Node: 1, Seq: 2, Removed: []uint32{7, 3},
		}),
		"checkpoint removals duplicated": Encode(msg.NodeCheckpoint{
			Node: 1, Seq: 2, Removed: []uint32{3, 3},
		}),
		"checkpoint empty slice": Encode(msg.NodeCheckpoint{
			Node: 1, Seq: 2, Slices: [][]byte{{}},
		}),
		"checkpoint truncated": Encode(msg.NodeCheckpoint{
			Node: 1, Seq: 2, Removed: []uint32{3, 7}, Slices: [][]byte{{0x01}},
		})[:30],
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted invalid input", name)
		}
	}
}

func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

// TestDecodeRejectsLyingCounts: a count field larger than the remaining
// payload must error, not allocate or panic.
func TestDecodeRejectsLyingCounts(t *testing.T) {
	qr := Encode(msg.QueryRemove{QIDs: []model.QueryID{1}})
	// The count field sits right after the 16-byte header.
	bad := mutate(qr, 16, 0xFF)
	bad = mutate(bad, 17, 0xFF)
	if _, err := Decode(bad); err == nil {
		t.Error("Decode accepted a lying count")
	}
}

// TestDecodeRandomBytesNeverPanics is a mini-fuzz: random buffers must
// produce errors, never panics.
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(200)
		b := make([]byte, n)
		rng.Read(b)
		_, _ = Decode(b) // must not panic
	}
	// Mutated valid messages must not panic either.
	for _, m := range sampleMessages(rng) {
		b := Encode(m)
		for i := 0; i < 200; i++ {
			bb := append([]byte(nil), b...)
			bb[rng.Intn(len(bb))] ^= byte(1 << rng.Intn(8))
			if rng.Intn(3) == 0 && len(bb) > 1 {
				bb = bb[:rng.Intn(len(bb))]
			}
			if got, err := Decode(bb); err == nil {
				// A flipped payload bit can still decode; that is fine —
				// it must just be a well-formed message.
				if got == nil {
					t.Fatal("nil message without error")
				}
			}
		}
	}
}

// TestRegionFallbackEncoding: unknown region implementations degrade to
// their enclosing circle.
type weirdRegion struct{}

func (weirdRegion) Contains(_, _ geo.Point) bool { return false }
func (weirdRegion) EnclosingRadius() float64     { return 2.5 }

func TestRegionFallbackEncoding(t *testing.T) {
	qs := msg.QueryState{QID: 1, Region: weirdRegion{}}
	b := Encode(msg.QueryInstall{Queries: []msg.QueryState{qs}})
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got := back.(msg.QueryInstall).Queries[0].Region
	c, ok := got.(model.CircleRegion)
	if !ok || c.R != 2.5 {
		t.Fatalf("fallback region = %#v, want CircleRegion{2.5}", got)
	}
}

func BenchmarkEncodeVelocityChange(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := sampleMessages(rng)[10] // VelocityChange with one query state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode(m)
	}
}

func BenchmarkDecodeVelocityChange(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	buf := Encode(sampleMessages(rng)[10])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPolygonRegionRoundTrip(t *testing.T) {
	poly := model.NewPolygonRegion([]geo.Point{
		geo.Pt(-2, -1), geo.Pt(2, -1), geo.Pt(0, 3),
	})
	qs := msg.QueryState{QID: 5, Focal: 6, Region: poly}
	m := msg.QueryInstall{Queries: []msg.QueryState{qs}}
	b := Encode(m)
	if len(b) != m.Size() {
		t.Fatalf("encoded %d bytes, Size() = %d", len(b), m.Size())
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got := back.(msg.QueryInstall).Queries[0].Region
	gp, ok := got.(model.PolygonRegion)
	if !ok || len(gp.Vertices) != 3 || gp.Vertices[2] != geo.Pt(0, 3) {
		t.Fatalf("round trip = %#v", got)
	}
}

func TestPolygonDecodeRejectsBadCounts(t *testing.T) {
	poly := model.NewPolygonRegion([]geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(0, 1)})
	m := msg.QueryInstall{Queries: []msg.QueryState{{QID: 1, Region: poly}}}
	b := Encode(m)
	// The polygon vertex count sits after header(16) + count(2) + qid(4) +
	// focal(4) + motion(40) + tag(1) = 67.
	bad := mutate(b, 67, 0xFF)
	bad = mutate(bad, 68, 0xFF)
	if _, err := Decode(bad); err == nil {
		t.Error("Decode accepted a lying polygon vertex count")
	}
}

// quick-generated velocity reports round-trip exactly.
func TestQuickVelocityReportRoundTrip(t *testing.T) {
	f := func(oid int32, px, py, vx, vy, tm float64) bool {
		m := msg.VelocityReport{
			OID: model.ObjectID(oid),
			Pos: geo.Pt(px, py), Vel: geo.Vec(vx, vy), Tm: model.Time(tm),
		}
		back, err := Decode(Encode(m))
		return err == nil && back == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// quick-generated containment reports round-trip exactly.
func TestQuickContainmentRoundTrip(t *testing.T) {
	f := func(oid, qid int32, in bool) bool {
		m := msg.ContainmentReport{OID: model.ObjectID(oid), QID: model.QueryID(qid), IsTarget: in}
		back, err := Decode(Encode(m))
		return err == nil && back == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
