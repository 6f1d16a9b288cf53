package wire

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// downlinkSamples returns the downlink kinds of sampleMessages plus the
// shapes the compact encoding treats specially: a zero filter, a polygon,
// an unknown region, negative and off-grid cells, and IDs that need five
// varint bytes.
func downlinkSamples(rng *rand.Rand) []msg.Message {
	var out []msg.Message
	for _, m := range sampleMessages(rng) {
		if k := m.Kind(); !k.Uplink() && !k.Node() {
			out = append(out, m)
		}
	}
	st := model.MotionState{Pos: geo.Pt(-7, 1e9), Vel: geo.Vec(0, -0.5), Tm: 1e6}
	far := msg.QueryState{
		QID: -1, Focal: 1 << 28, State: st,
		Region: model.NewPolygonRegion([]geo.Point{geo.Pt(-2, -1), geo.Pt(2, -1), geo.Pt(0, 3)}),
		MonRegion: grid.CellRange{
			Min: grid.CellID{Col: -1, Row: -(1 << 31)},
			Max: grid.CellID{Col: 1<<31 - 1, Row: 64},
		},
		FocalMaxVel: 1,
	}
	plain := msg.QueryState{QID: 130, Focal: 3, State: st, Region: model.CircleRegion{R: 1}}
	odd := plain
	odd.Region = weirdRegion{}
	odd.Filter = model.Filter{Permille: 1000}
	return append(out,
		msg.QueryInstall{},
		msg.QueryInstall{Queries: []msg.QueryState{far, plain, odd}},
		msg.QueryRemove{},
		msg.QueryRemove{QIDs: []model.QueryID{-1, 0, 128, 1<<31 - 1}},
		msg.VelocityChange{Focal: -(1 << 31), State: st, Queries: []msg.QueryState{plain}},
		msg.FocalNotify{OID: 300, QID: 1},
		msg.Pong{},
	)
}

// TestCompactRoundTrip: a compact frame decodes to what the legacy frame of
// the same message decodes to, with its trace ID, and Decode — the legacy
// decoder — refuses it as a version it does not read.
func TestCompactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range downlinkSamples(rng) {
		want, err := Decode(Encode(m))
		if err != nil {
			t.Fatal(err)
		}
		for _, tid := range []uint64{0, 1, 1<<64 - 1} {
			b := EncodeCompact(m, tid)
			ver := CompactVersion
			if tid != 0 {
				ver = CompactTracedVersion
			}
			if b[2] != ver {
				t.Fatalf("%T tid %d: version %d, want %d", m, tid, b[2], ver)
			}
			got, gotTID, err := DecodeTraced(b)
			if err != nil {
				t.Fatalf("%T tid %d: %v", m, tid, err)
			}
			if gotTID != tid || !messagesEqual(got, want) {
				t.Fatalf("%T tid %d: round trip gave %#v (tid %d), want %#v", m, tid, got, gotTID, want)
			}
			var ve *VersionError
			if _, err := Decode(b); !errors.As(err, &ve) || ve.Got != ver {
				t.Fatalf("%T: legacy Decode of a compact frame: %v, want a VersionError", m, err)
			}
		}
	}
}

// TestCompactSizeMatchesEncoding: the size the server charges equals the
// compact frame's length, for every downlink shape, plain and traced.
func TestCompactSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, m := range downlinkSamples(rng) {
		for _, tid := range []uint64{0, 9} {
			if got, want := CompactSize(m, tid), len(EncodeCompact(m, tid)); got != want {
				t.Errorf("CompactSize(%T, %d) = %d, encoded frame is %d bytes", m, tid, got, want)
			}
		}
	}
}

// benchState is a query state as the benchmark's workloads install them:
// two-byte IDs, a circle, no filter, a 3×3 monitoring region in the
// interior of the grid.
func benchState(i int) msg.QueryState {
	return msg.QueryState{
		QID: model.QueryID(1000 + i), Focal: model.ObjectID(5000 + i),
		State:       model.MotionState{Pos: geo.Pt(51.25, 48.5), Vel: geo.Vec(-3, 4), Tm: 493000.125},
		Region:      model.CircleRegion{R: 2},
		MonRegion:   grid.CellRange{Min: grid.CellID{Col: 9, Row: 8}, Max: grid.CellID{Col: 11, Row: 10}},
		FocalMaxVel: 20,
	}
}

// TestCompactEncodingPinned fixes the compact bytes of each downlink kind.
// The legacy bytes are pinned elsewhere and do not change with these.
func TestCompactEncodingPinned(t *testing.T) {
	st := model.MotionState{Pos: geo.Pt(1, 2), Vel: geo.Vec(-1, 0.5), Tm: 4}
	qs := msg.QueryState{
		QID: 300, Focal: 5, State: st, Region: model.CircleRegion{R: 3},
		Filter:      model.Filter{Seed: 0x0102030405060708, Permille: 750},
		MonRegion:   grid.CellRange{Min: grid.CellID{Col: -1, Row: 0}, Max: grid.CellID{Col: 1, Row: 70}},
		FocalMaxVel: 2,
	}
	const motion = "000000000000f03f" + "0000000000000040" + "000000000000f0bf" + "000000000000e03f" + "0000000000001040"
	const state = "ac02" + "05" + motion + "01" + "0000000000000840" + "01" + "0807060504030201" + "ee05" +
		"01" + "00" + "02" + "8c01" + "0000000000000040"
	for _, c := range []struct {
		m   msg.Message
		tid uint64
		hex string
	}{
		{msg.QueryInstall{Queries: []msg.QueryState{qs}}, 0, "e5e70308" + "01" + state},
		{msg.QueryRemove{QIDs: []model.QueryID{1, 300}}, 0, "e5e70309" + "02" + "01" + "ac02"},
		{msg.VelocityChange{Focal: 5, State: st}, 0, "e5e7030a" + "05" + motion + "00"},
		{msg.VelocityChange{Focal: 5, State: st}, 0x1122, "e5e7040a" + "2211000000000000" + "05" + motion + "00"},
		{msg.FocalNotify{OID: 5, QID: 300, Install: true}, 0, "e5e7030b" + "05" + "ac02" + "01"},
		{msg.FocalInfoRequest{OID: 128}, 0, "e5e7030c" + "8001"},
		{msg.Pong{Token: 7}, 0, "e5e7030d" + "0700000000000000"},
	} {
		if got := hex.EncodeToString(EncodeCompact(c.m, c.tid)); got != c.hex {
			t.Errorf("%T (tid %#x):\n got %s\nwant %s", c.m, c.tid, got, c.hex)
		}
	}
	// The sizes the change was made for: a benchmark-shaped state drops
	// from 101 to 66 bytes, a state-less VelocityChange from 62 to 47.
	one := msg.QueryInstall{Queries: []msg.QueryState{benchState(7)}}
	if got := CompactSize(one, 0) - compactHeaderSize - 1; got != 66 {
		t.Errorf("compact benchmark QueryState is %d bytes, want 66", got)
	}
	vc := msg.VelocityChange{Focal: 5000, State: st}
	if got := CompactSize(vc, 0); got != 47 || vc.Size() != 62 {
		t.Errorf("VelocityChange: compact %d bytes, legacy %d; want 47 and 62", got, vc.Size())
	}
}

// TestCompactDecodeRejects: every byte string the compact decoder accepts
// has exactly one encoding, so overlong varints, unknown flag bits, a zero
// filter marked present, trailing bytes and out-of-range values are
// refused, as are kinds with no compact form.
func TestCompactDecodeRejects(t *testing.T) {
	fin := EncodeCompact(msg.FocalInfoRequest{OID: 5}, 0)
	filtered := msg.QueryState{QID: 1, Focal: 2, Region: model.CircleRegion{R: 1}, Filter: model.Filter{Seed: 1}}
	qi := EncodeCompact(msg.QueryInstall{Queries: []msg.QueryState{filtered}}, 0)
	flags := 4 + 1 + 1 + 1 + 40 + 1 + 8      // header, count, ids, motion, circle
	zeroFilter := append([]byte(nil), qi...) // the permille is already 0
	clear(zeroFilter[flags+1 : flags+9])
	cases := map[string][]byte{
		"overlong oid":        {0xE5, 0xE7, 3, byte(msg.KindFocalInfoRequest), 0x85, 0x00},
		"oid past uint32":     {0xE5, 0xE7, 3, byte(msg.KindFocalInfoRequest), 0x80, 0x80, 0x80, 0x80, 0x10},
		"truncated varint":    {0xE5, 0xE7, 3, byte(msg.KindFocalInfoRequest), 0x80},
		"trailing bytes":      append(append([]byte(nil), fin...), 0),
		"unknown filter flag": mutate(qi, flags, 0x03),
		"zero filter present": zeroFilter,
		"uplink kind":         {0xE5, 0xE7, 3, byte(msg.KindDepartureReport), 0x05},
		"node kind":           {0xE5, 0xE7, 3, byte(msg.KindNodeHeartbeat), 0x05},
		"zero trace ID":       {0xE5, 0xE7, 4, byte(msg.KindFocalInfoRequest), 0, 0, 0, 0, 0, 0, 0, 0, 0x05},
		"lying count":         {0xE5, 0xE7, 3, byte(msg.KindQueryInstall), 0x02, 0x01},
		"bad circle tag":      mutate(qi, flags-9, 9),
		"short header":        fin[:3],
	}
	for name, b := range cases {
		if m, _, err := DecodeTraced(b); err == nil {
			t.Errorf("%s: accepted %x as %#v", name, b, m)
		}
	}
	// The unmutated frames decode, so the cases above fail for their
	// mutation alone.
	for _, b := range [][]byte{fin, qi} {
		if _, _, err := DecodeTraced(b); err != nil {
			t.Fatalf("valid frame %x: %v", b, err)
		}
	}
}

// frameSink keeps the benchmarked encodes from being optimized away.
var frameSink []byte

// BenchmarkDownlinkCodec compares the legacy and compact encodings of the
// downlinks that dominate the network server's traffic: a QueryInstall with
// one state (a focal's relocation) and with seven (a fresh query's cell),
// and a VelocityChange. B/msg is the encoded length.
func BenchmarkDownlinkCodec(b *testing.B) {
	seven := make([]msg.QueryState, 7)
	for i := range seven {
		seven[i] = benchState(i)
	}
	vc := benchState(1)
	msgs := []struct {
		name string
		m    msg.Message
	}{
		{"QueryInstall1", msg.QueryInstall{Queries: seven[:1]}},
		{"QueryInstall7", msg.QueryInstall{Queries: seven}},
		{"VelocityChange", msg.VelocityChange{Focal: vc.Focal, State: vc.State}},
	}
	codecs := []struct {
		name   string
		encode func(msg.Message) []byte
	}{
		{"legacy", Encode},
		{"compact", func(m msg.Message) []byte { return EncodeCompact(m, 0) }},
	}
	for _, mm := range msgs {
		for _, c := range codecs {
			frame := c.encode(mm.m)
			b.Run(mm.name+"/"+c.name+"/encode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					frameSink = c.encode(mm.m)
				}
				b.ReportMetric(float64(len(frame)), "B/msg")
			})
			b.Run(mm.name+"/"+c.name+"/decode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := DecodeTraced(frame); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(frame)), "B/msg")
			})
		}
	}
}
