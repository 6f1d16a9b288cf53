package history

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindQuery, T: 0, QID: 1, OID: 7, X: 0.25},
		{Kind: KindPos, T: 0, OID: 7, X: 1.5, Y: 2.5},
		{Kind: KindPos, T: 0, OID: 9, X: 3.25, Y: 4.75},
		{Kind: KindEnter, T: 0.5, QID: 1, Seq: 1, OID: 9},
		{Kind: KindPos, T: 1, OID: 9, X: 9.125, Y: 0.5},
		{Kind: KindLeave, T: 1, QID: 1, Seq: 2, OID: 9},
		{Kind: KindQueryRemove, T: 1.5, QID: 1},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs := sampleRecords()
	buf := EncodeLog(recs)
	if want := HeaderSize + len(recs)*RecordSize; len(buf) != want {
		t.Fatalf("encoded length = %d, want %d", len(buf), want)
	}
	got, err := DecodeLog(buf)
	if err != nil {
		t.Fatalf("DecodeLog: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
	// A log is any concatenation of segments.
	got2, err := DecodeLog(append(append([]byte{}, buf...), buf...))
	if err != nil {
		t.Fatalf("DecodeLog(2 segments): %v", err)
	}
	if len(got2) != 2*len(recs) {
		t.Fatalf("2-segment decode = %d records, want %d", len(got2), 2*len(recs))
	}
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	good := EncodeLog(sampleRecords())

	cases := map[string]func([]byte) []byte{
		"bad magic":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version": func(b []byte) []byte { binary.LittleEndian.PutUint16(b[4:], 99); return b },
		"header pad":  func(b []byte) []byte { b[6] = 1; return b },
		"unknown kind": func(b []byte) []byte {
			b[HeaderSize] = 42
			return b
		},
		"truncated header": func(b []byte) []byte { return b[:4] },
		"truncated record": func(b []byte) []byte { return b[:HeaderSize+RecordSize-1] },
		"query-remove padding": func(b []byte) []byte {
			// Last record is the query-remove; dirty its third field.
			off := len(b) - RecordSize + 1 + 8 + 8
			b[off] = 1
			return b
		},
	}
	for name, mutate := range cases {
		b := mutate(append([]byte{}, good...))
		if _, err := DecodeLog(b); err == nil {
			t.Errorf("%s: decode accepted non-canonical log", name)
		}
	}
}

func TestAppendRecordPanicsOnPaddingViolation(t *testing.T) {
	bad := []Record{
		{Kind: KindEnter, QID: 1, Seq: 1, OID: 2, X: 3},
		{Kind: KindPos, OID: 1, QID: 5},
		{Kind: KindQuery, QID: 1, OID: 2, X: 3, Y: 4},
		{Kind: KindQueryRemove, QID: 1, OID: 2},
		{Kind: Kind(99)},
	}
	for _, r := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendRecord(%+v) did not panic", r)
				}
			}()
			AppendRecord(nil, r)
		}()
	}
}

func TestStoreReplayAndTimeline(t *testing.T) {
	s := NewStore(1 << 20)
	s.AppendQuery(0, 1, 7, 0.25)
	s.AppendQuery(0, 2, 8, 0.5)
	s.AppendPos(0, 9, 1, 2)
	s.AppendResult(0.5, 1, 1, 9, true)
	s.AppendResult(0.5, 2, 1, 9, true)
	s.AppendResult(1, 1, 2, 9, false)
	s.AppendQueryRemove(1.5, 1)

	if got := s.Records(); got != 7 {
		t.Fatalf("Records() = %d, want 7", got)
	}
	replay := s.Replay(1)
	wantKinds := []Kind{KindQuery, KindEnter, KindLeave, KindQueryRemove}
	if len(replay) != len(wantKinds) {
		t.Fatalf("Replay(1) = %d records, want %d: %+v", len(replay), len(wantKinds), replay)
	}
	for i, r := range replay {
		if r.Kind != wantKinds[i] {
			t.Fatalf("Replay(1)[%d].Kind = %v, want %v", i, r.Kind, wantKinds[i])
		}
	}
	tl := s.Timeline(1)
	if len(tl) != 2 || tl[0].Kind != KindEnter || tl[1].Kind != KindLeave {
		t.Fatalf("Timeline(1) = %+v", tl)
	}
	if tl[0].Seq != 1 || tl[1].Seq != 2 {
		t.Fatalf("Timeline(1) seqs = %d,%d want 1,2", tl[0].Seq, tl[1].Seq)
	}

	// WriteTo / ReadLog round trip reproduces the record stream exactly.
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	back, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if !reflect.DeepEqual(back, s.All()) {
		t.Fatalf("ReadLog != All:\n got %+v\nwant %+v", back, s.All())
	}
}

func TestStoreEvictsOldestSegmentsWhole(t *testing.T) {
	// Budget of ~4 small segments; each segment holds 2 records
	// (8 + 2*33 = 74 <= 80).
	s := NewStore(320)
	s.segBytes = 80
	const n = 100
	for i := 0; i < n; i++ {
		s.AppendPos(float64(i), int64(i), 1, 2)
	}
	if got := s.Bytes(); got > 320 {
		t.Fatalf("Bytes() = %d exceeds budget 320", got)
	}
	appended, written, esegs, erecs := s.Stats()
	if appended != n {
		t.Fatalf("appended = %d, want %d", appended, n)
	}
	if esegs == 0 || erecs == 0 {
		t.Fatalf("no eviction despite overflow: segs=%d recs=%d", esegs, erecs)
	}
	if int(erecs)+s.Records() != n {
		t.Fatalf("evicted %d + retained %d != appended %d", erecs, s.Records(), n)
	}
	if written != int64(s.Bytes())+int64(esegs)*74 {
		t.Fatalf("bytesWritten = %d, want retained %d + evicted %d segments * 74", written, s.Bytes(), esegs)
	}
	// The retained window is the most recent suffix, in order.
	recs := s.All()
	for i, r := range recs {
		if want := float64(n - len(recs) + i); r.T != want {
			t.Fatalf("retained[%d].T = %v, want %v (not a contiguous suffix)", i, r.T, want)
		}
	}
}

func TestStoreCostHookChargesEveryByte(t *testing.T) {
	s := NewStore(1 << 20)
	var hooked int64
	s.SetCostHook(func(b int) { hooked += int64(b) })
	s.AppendQuery(0, 1, 7, 0.25)
	for i := 0; i < 50; i++ {
		s.AppendPos(float64(i), 9, 1, 2)
	}
	_, written, _, _ := s.Stats()
	if hooked != written {
		t.Fatalf("cost hook charged %d bytes, store wrote %d", hooked, written)
	}
	if hooked != int64(s.Bytes()) {
		t.Fatalf("cost hook charged %d bytes, log holds %d", hooked, s.Bytes())
	}
}

func TestNilStoreIsDisabled(t *testing.T) {
	var s *Store
	s.AppendPos(0, 1, 2, 3) // must not panic
	s.AppendResult(0, 1, 1, 2, true)
	s.SetCostHook(func(int) {})
	if s.Bytes() != 0 || s.Records() != 0 || s.All() != nil {
		t.Fatal("nil store reported state")
	}
	if n, err := s.WriteTo(&bytes.Buffer{}); n != 0 || err != nil {
		t.Fatalf("nil WriteTo = %d, %v", n, err)
	}
}

func TestFramesReconstruction(t *testing.T) {
	frames := Frames(sampleRecords())
	// Timestamps 0, 0.5, 1, 1.5 -> four frames.
	if len(frames) != 4 {
		t.Fatalf("Frames = %d, want 4", len(frames))
	}
	f0 := frames[0]
	if f0.T != 0 || len(f0.Pos) != 2 || f0.Queries[1].Focal != 7 || f0.Queries[1].Radius != 0.25 {
		t.Fatalf("frame 0 = %+v", f0)
	}
	if len(f0.Results[1]) != 0 {
		t.Fatalf("frame 0 has premature results: %+v", f0.Results)
	}
	if !frames[1].Results[1][9] {
		t.Fatalf("frame 1 missing enter: %+v", frames[1].Results)
	}
	f2 := frames[2]
	if f2.Results[1][9] {
		t.Fatalf("frame 2 kept left object: %+v", f2.Results)
	}
	if p := f2.Pos[9]; p != [2]float64{9.125, 0.5} {
		t.Fatalf("frame 2 pos[9] = %v", p)
	}
	f3 := frames[3]
	if len(f3.Queries) != 0 {
		t.Fatalf("frame 3 kept removed query: %+v", f3.Queries)
	}
	// Positions persist across frames.
	if p := f3.Pos[7]; p != [2]float64{1.5, 2.5} {
		t.Fatalf("frame 3 pos[7] = %v", p)
	}
	if Frames(nil) != nil {
		t.Fatal("Frames(nil) != nil")
	}
}

func TestHTTPEndpoint(t *testing.T) {
	s := NewStore(1 << 20)
	s.AppendQuery(0, 1, 7, 0.25)
	s.AppendPos(0, 9, 1.5, 2.5)
	s.AppendResult(0.5, 1, 1, 9, true)

	mux := http.NewServeMux()
	mux.Handle("/debug/history", s.View())
	get := func(url string) *httptest.ResponseRecorder {
		rw := httptest.NewRecorder()
		mux.ServeHTTP(rw, httptest.NewRequest("GET", url, nil))
		return rw
	}

	if rw := get("/debug/history"); rw.Code != 200 || !strings.Contains(rw.Body.String(), "3 records") {
		t.Fatalf("summary: %d %q", rw.Code, rw.Body.String())
	}
	if rw := get("/debug/history?qid=1"); !strings.Contains(rw.Body.String(), "seq 1 oid 9 enter") {
		t.Fatalf("qid text: %q", rw.Body.String())
	}
	if rw := get("/debug/history?oid=9"); !strings.Contains(rw.Body.String(), "pos 1.500000 2.500000") {
		t.Fatalf("oid text: %q", rw.Body.String())
	}
	rw := get("/debug/history?qid=1&format=json")
	var recs []Record
	if err := json.Unmarshal(rw.Body.Bytes(), &recs); err != nil || len(recs) != 2 {
		t.Fatalf("qid json: %v %q", err, rw.Body.String())
	}
	if rw := get("/debug/history?qid=99&format=json"); strings.TrimSpace(rw.Body.String()) != "[]" {
		t.Fatalf("empty qid json = %q", rw.Body.String())
	}
	if rw := get("/debug/history?qid=bogus"); rw.Code != http.StatusBadRequest {
		t.Fatalf("bad qid: %d", rw.Code)
	}
	raw := get("/debug/history?format=raw")
	back, err := DecodeLog(raw.Body.Bytes())
	if err != nil || len(back) != 3 {
		t.Fatalf("raw decode: %v (%d records)", err, len(back))
	}

	// A nil store answers 404 so probes can tell "disabled" from "empty".
	mux2 := http.NewServeMux()
	mux2.Handle("/debug/history", (*Store)(nil).View())
	rw2 := httptest.NewRecorder()
	mux2.ServeHTTP(rw2, httptest.NewRequest("GET", "/debug/history", nil))
	if rw2.Code != http.StatusNotFound {
		t.Fatalf("nil store: %d", rw2.Code)
	}
}

func TestFloatFidelity(t *testing.T) {
	// Exact float64 bit patterns survive the log, including negatives and
	// denormals — the replay oracle depends on byte-identical re-encoding.
	vals := []float64{0, -0.0, 1e-310, math.MaxFloat64, -123.456}
	s := NewStore(1 << 20)
	for i, v := range vals {
		s.AppendPos(v, int64(i+1), v, -v)
	}
	for i, r := range s.All() {
		want := vals[i]
		if math.Float64bits(r.T) != math.Float64bits(want) ||
			math.Float64bits(r.X) != math.Float64bits(want) ||
			math.Float64bits(r.Y) != math.Float64bits(-want) {
			t.Fatalf("record %d = %+v, want %v bits", i, r, want)
		}
	}
}
