package msg

import (
	"math/rand"
	"reflect"
	"testing"

	"mobieyes/internal/model"
)

func TestKindString(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.String() == "UnknownKind" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(-1).String() != "UnknownKind" || Kind(99).String() != "UnknownKind" {
		t.Error("out-of-range kinds should be UnknownKind")
	}
}

func TestKindDirection(t *testing.T) {
	uplinks := []Kind{
		KindPositionReport, KindVelocityReport, KindCellChangeReport,
		KindContainmentReport, KindGroupContainmentReport, KindFocalInfoResponse,
	}
	downlinks := []Kind{
		KindQueryInstall, KindQueryRemove, KindVelocityChange,
		KindFocalNotify, KindFocalInfoRequest,
	}
	for _, k := range uplinks {
		if !k.Uplink() {
			t.Errorf("%v should be uplink", k)
		}
	}
	for _, k := range downlinks {
		if k.Uplink() {
			t.Errorf("%v should be downlink", k)
		}
	}
}

func TestMessageSizes(t *testing.T) {
	// Every message must be larger than the bare header, and sizes must
	// match the documented field model.
	cases := []struct {
		m    Message
		want int
	}{
		{PositionReport{}, 16 + 4 + 16 + 8},
		{VelocityReport{}, 16 + 4 + 16 + 16 + 8},
		{CellChangeReport{}, 16 + 4 + 16 + 16 + 16 + 8},
		{ContainmentReport{}, 16 + 8 + 1},
		{FocalInfoResponse{}, 16 + 4 + 16 + 16 + 8},
		{FocalNotify{}, 16 + 8 + 1},
		{FocalInfoRequest{}, 16 + 4},
		{QueryRemove{}, 16 + 2},
		{QueryInstall{}, 16 + 2},
	}
	for _, c := range cases {
		if got := c.m.Size(); got != c.want {
			t.Errorf("%v Size = %d, want %d", c.m.Kind(), got, c.want)
		}
		if got := c.m.Size(); got < HeaderSize {
			t.Errorf("%v Size %d < header", c.m.Kind(), got)
		}
	}
}

func TestVariableSizes(t *testing.T) {
	empty := QueryInstall{}
	one := QueryInstall{Queries: make([]QueryState, 1)}
	three := QueryInstall{Queries: make([]QueryState, 3)}
	per := one.Size() - empty.Size()
	if per <= 0 {
		t.Fatalf("per-query size %d not positive", per)
	}
	if three.Size()-empty.Size() != 3*per {
		t.Errorf("QueryInstall size not linear in query count")
	}

	vcEQP := VelocityChange{}
	vcLQP := VelocityChange{Queries: make([]QueryState, 2)}
	if vcLQP.Size() <= vcEQP.Size() {
		t.Error("LQP velocity change must be larger than EQP's")
	}

	qr := QueryRemove{QIDs: []model.QueryID{1, 2, 3}}
	if qr.Size() != (QueryRemove{}).Size()+3*IDSize {
		t.Errorf("QueryRemove size = %d", qr.Size())
	}
}

func TestGroupContainmentSize(t *testing.T) {
	bm := NewBitmap(10)
	m := GroupContainmentReport{QIDs: make([]model.QueryID, 10), Bitmap: bm}
	// 10 bits → 2 bytes of bitmap, plus a 2-byte query count.
	want := HeaderSize + 2*IDSize + 2 + 10*IDSize + 2
	if m.Size() != want {
		t.Errorf("Size = %d, want %d", m.Size(), want)
	}
}

func TestBitmapSetGet(t *testing.T) {
	b := NewBitmap(13)
	if b.Len() != 13 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Set(0, true)
	b.Set(7, true)
	b.Set(8, true)
	b.Set(12, true)
	for i := 0; i < 13; i++ {
		want := i == 0 || i == 7 || i == 8 || i == 12
		if b.Get(i) != want {
			t.Errorf("bit %d = %v, want %v", i, b.Get(i), want)
		}
	}
	b.Set(7, false)
	if b.Get(7) {
		t.Error("clearing bit 7 failed")
	}
}

func TestBitmapPanics(t *testing.T) {
	b := NewBitmap(4)
	for _, i := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) should panic", i)
				}
			}()
			b.Set(i, true)
		}()
	}
}

func TestBitmapCloneEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBitmap(20)
	for i := 0; i < 20; i++ {
		b.Set(i, rng.Intn(2) == 0)
	}
	c := b.Clone()
	if !b.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(3, !c.Get(3))
	if b.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	if b.Get(3) == c.Get(3) {
		t.Fatal("clone shares storage with original")
	}
	if b.Equal(NewBitmap(21)) {
		t.Fatal("different lengths compare equal")
	}
}

func TestBitmapRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(64) + 1
		b := NewBitmap(n)
		ref := make([]bool, n)
		for op := 0; op < 200; op++ {
			i := rng.Intn(n)
			v := rng.Intn(2) == 0
			b.Set(i, v)
			ref[i] = v
		}
		for i, v := range ref {
			if b.Get(i) != v {
				t.Fatalf("trial %d: bit %d = %v, want %v", trial, i, b.Get(i), v)
			}
		}
	}
}

func TestAllMessagesImplementInterface(t *testing.T) {
	// Every concrete message: Kind is stable and Size covers the header.
	msgs := []Message{
		PositionReport{}, VelocityReport{}, CellChangeReport{},
		ContainmentReport{}, GroupContainmentReport{}, FocalInfoResponse{},
		DepartureReport{}, Ping{},
		QueryInstall{}, QueryRemove{}, VelocityChange{},
		FocalNotify{}, FocalInfoRequest{}, Pong{},
		NodeHello{}, NodeHeartbeat{}, AssignRange{}, Handoff{},
		HandoffAck{}, NodeOp{}, NodeOpDone{}, NodeDownlink{},
		NodeTelemetry{}, NodeStatus{},
		CheckpointRequest{}, NodeCheckpoint{},
	}
	seen := map[Kind]bool{}
	for _, m := range msgs {
		if m.Size() < HeaderSize {
			t.Errorf("%v: size %d below header", m.Kind(), m.Size())
		}
		if seen[m.Kind()] {
			t.Errorf("duplicate kind %v", m.Kind())
		}
		seen[m.Kind()] = true
	}
	if len(seen) != NumKinds {
		t.Errorf("covered %d kinds, want %d", len(seen), NumKinds)
	}
}

func TestDepartureReportShape(t *testing.T) {
	m := DepartureReport{OID: 3}
	if !m.Kind().Uplink() {
		t.Error("DepartureReport must be uplink")
	}
	if m.Size() != HeaderSize+IDSize {
		t.Errorf("Size = %d", m.Size())
	}
}

// TestRetainCopiesLentStateLists: after Retain, overwriting or appending to
// the source's state list — what a server does to the scratch it lent —
// leaves the copy as it was, for both kinds that carry one; every other kind
// comes back unchanged.
func TestRetainCopiesLentStateLists(t *testing.T) {
	scratch := make([]QueryState, 2, 4)
	scratch[0] = QueryState{QID: 1, Focal: 7, Region: model.CircleRegion{R: 3}}
	scratch[1] = QueryState{QID: 2, Focal: 7, Region: model.CircleRegion{R: 5}}
	want := []QueryState{scratch[0], scratch[1]}
	for _, lent := range []Message{
		QueryInstall{Queries: scratch},
		VelocityChange{Focal: 7, Queries: scratch},
	} {
		kept := Retain(lent)
		scratch[0] = QueryState{QID: 9}
		_ = append(scratch[:1], QueryState{QID: 10})
		var got []QueryState
		switch k := kept.(type) {
		case QueryInstall:
			got = k.Queries
		case VelocityChange:
			got = k.Queries
			if k.Focal != 7 {
				t.Errorf("VelocityChange focal %d after Retain, want 7", k.Focal)
			}
		default:
			t.Fatalf("Retain(%v) returned %v", lent.Kind(), kept.Kind())
		}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%v kept %v after the scratch was reused, want %v", lent.Kind(), got, want)
		}
		scratch[0], scratch[1] = want[0], want[1]
	}
	eqp := Message(VelocityChange{Focal: 3})
	if allocs := testing.AllocsPerRun(10, func() { eqp = Retain(eqp) }); allocs != 0 {
		t.Errorf("Retain of an EQP VelocityChange allocates %v times, want 0", allocs)
	}
	if vc := eqp.(VelocityChange); vc.Focal != 3 || vc.Queries != nil {
		t.Errorf("Retain changed an EQP VelocityChange: %+v", vc)
	}
	for _, m := range []Message{
		QueryRemove{QIDs: []model.QueryID{4}},
		FocalNotify{OID: 3, QID: 4, Install: true},
		FocalInfoRequest{OID: 3},
		CellChangeReport{OID: 3},
	} {
		if got := Retain(m); !reflect.DeepEqual(got, m) {
			t.Errorf("Retain(%#v) = %#v, want it unchanged", m, got)
		}
	}
}
