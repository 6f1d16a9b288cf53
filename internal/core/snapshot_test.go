package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
)

// TestSnapshotRestoreMidRun is the fault-tolerance property: snapshot the
// server mid-run, replace it with a restored copy, keep the world moving —
// results stay exact at every step, as if nothing happened.
func TestSnapshotRestoreMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	h := newHarness(smallGrid(), Options{})
	for i := 0; i < 40; i++ {
		pos := geo.Pt(10+rng.Float64()*80, 10+rng.Float64()*80)
		h.addObject(model.ObjectID(i+1), pos, geo.Vec(0, 0), 200, rng.Uint64())
	}
	h.randomizeVelocities(rng, 40)
	var qids []model.QueryID
	for i := 0; i < 8; i++ {
		qids = append(qids, h.install(model.ObjectID(i+1), 1+rng.Float64()*4, matchAll, 250))
	}

	for step := 0; step < 10; step++ {
		h.keepInside()
		h.randomizeVelocities(rng, 8)
		h.step(model.FromSeconds(30))
	}
	for _, qid := range qids {
		if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
			t.Fatalf("pre-snapshot q%d: %v vs %v", qid, got, want)
		}
	}

	// Crash: snapshot, discard the server, restore.
	var buf bytes.Buffer
	if err := h.server.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreServer(h.g, h.optsVal, harnessDown{h}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	h.server = restored
	h.flushDown()

	// Immediately consistent…
	for _, qid := range qids {
		if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
			t.Fatalf("post-restore q%d: %v vs %v", qid, got, want)
		}
	}
	// …and stays exact while the world keeps moving.
	for step := 0; step < 15; step++ {
		h.keepInside()
		h.randomizeVelocities(rng, 8)
		h.step(model.FromSeconds(30))
		for _, qid := range qids {
			if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
				t.Fatalf("step %d after restore, q%d: %v vs %v", step, qid, got, want)
			}
		}
	}
}

func TestSnapshotPreservesExpiries(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	qid := h.server.InstallQueryUntil(1, model.CircleRegion{R: 3}, matchAll, 100, model.FromSeconds(60))
	h.flushDown()

	var buf bytes.Buffer
	if err := h.server.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreServer(h.g, h.optsVal, harnessDown{h}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	h.server = restored
	if expired := h.server.ExpireQueries(model.FromSeconds(30)); len(expired) != 0 {
		t.Fatalf("expired early: %v", expired)
	}
	if expired := h.server.ExpireQueries(model.FromSeconds(90)); len(expired) != 1 || expired[0] != qid {
		t.Fatalf("ExpireQueries = %v, want [%d]", expired, qid)
	}
}

func TestSnapshotPreservesPendingInstalls(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	// Enqueue the install but do NOT deliver the FocalInfoRequest: the
	// installation is pending at snapshot time.
	qid := h.server.InstallQuery(1, model.CircleRegion{R: 3}, matchAll, 100)
	h.downQueue = nil // drop the in-flight request, as a crash would

	var buf bytes.Buffer
	if err := h.server.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreServer(h.g, h.optsVal, harnessDown{h}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	h.server = restored
	// Restore re-issued the FocalInfoRequest; delivering it completes the
	// install.
	h.flushDown()
	if _, ok := h.server.Query(qid); !ok {
		t.Fatal("pending install did not complete after restore")
	}
	h.step(model.FromSeconds(30))
	if got, want := h.server.Result(qid), h.groundTruth(qid); !idsEqual(got, want) {
		t.Fatalf("Result = %v, want %v", got, want)
	}
}

func TestSnapshotNextQIDPreserved(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	q1 := h.install(1, 3, matchAll, 100)

	var buf bytes.Buffer
	if err := h.server.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreServer(h.g, h.optsVal, harnessDown{h}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	h.server = restored
	q2 := h.install(1, 5, matchAll, 100)
	if q2 <= q1 {
		t.Fatalf("restored server reused query IDs: %d after %d", q2, q1)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	g := smallGrid()
	down := harnessDown{newHarness(g, Options{})}
	for name, data := range map[string][]byte{
		"empty":     nil,
		"bad magic": []byte("NOPE1234"),
		"truncated": []byte("MOBS"),
	} {
		if _, err := RestoreServer(g, Options{}, down, bytes.NewReader(data)); err == nil {
			t.Errorf("%s: restore accepted invalid snapshot", name)
		}
	}
}

// testSlice encodes a focal row at cell holding the given queries, each
// with monitoring region mon and results res.
func testSlice(oid model.ObjectID, maxVel float64, cell grid.CellID, mon grid.CellRange, res []model.ObjectID, qids ...model.QueryID) []byte {
	fe := &fotEntry{state: model.MotionState{Pos: geo.Pt(52, 52), Vel: geo.Vec(1, 2), Tm: 3}, maxVel: maxVel, currCell: cell, queries: qids}
	rec := focalRecord{oid: oid, fe: fe}
	for _, qid := range qids {
		result := make(map[model.ObjectID]struct{})
		for _, o := range res {
			result[o] = struct{}{}
		}
		rec.entries = append(rec.entries, &sqtEntry{
			query:     model.Query{ID: qid, Focal: oid, Region: model.CircleRegion{R: 3}, Filter: matchAll},
			monRegion: mon,
			result:    result,
		})
	}
	return encodeFocalSlice(rec)
}

// restoreEverywhere restores data into a serial server and into a 2-node
// router, returning each backend's error.
func restoreEverywhere(data []byte) (map[string]ServerAPI, map[string]error) {
	servers, errs := map[string]ServerAPI{}, map[string]error{}
	s, err := RestoreServer(smallGrid(), Options{}, nullDown{}, bytes.NewReader(data))
	servers["serial"], errs["serial"] = s, err
	cs := NewClusterServer(smallGrid(), Options{}, nullDown{}, 2)
	servers["router"], errs["router"] = cs, cs.Restore(bytes.NewReader(data))
	return servers, errs
}

// TestRestoreValidates: a snapshot is outside input. Each case below
// restored without error in the previous format, or would have (an
// int32-spanning monitoring region loops ~2⁶² times in rqiEdit), and left
// tables that CheckInvariants rejects or that reuse a query ID. Serial and
// router restore refuse every one; the well-formed baseline passes.
func TestRestoreValidates(t *testing.T) {
	cell := grid.CellID{Col: 10, Row: 10}
	mon := grid.CellRange{Min: grid.CellID{Col: 9, Row: 9}, Max: grid.CellID{Col: 11, Row: 11}}
	res := []model.ObjectID{3, 7}
	ok := testSlice(1, 100, cell, mon, res, 1)
	snap := func(next model.QueryID, pending map[model.ObjectID][]pendingInstall, focals ...[]byte) []byte {
		return appendSnapshot(nil, &queryBook{next: next, pending: pending}, focals)
	}
	// splice joins one slice's header to another's query records.
	splice := func(head, body []byte) []byte {
		return append(append([]byte(nil), head[:focalSliceHeaderLen]...), body[focalSliceHeaderLen:]...)
	}
	withResults := func(a, b uint32) []byte {
		f := append([]byte(nil), ok...)
		binary.LittleEndian.PutUint32(f[len(f)-8:], a)
		binary.LittleEndian.PutUint32(f[len(f)-4:], b)
		return f
	}
	pendingOn := func(focal model.ObjectID, qid model.QueryID) map[model.ObjectID][]pendingInstall {
		q := model.Query{ID: qid, Focal: focal, Region: model.CircleRegion{R: 2}, Filter: matchAll}
		return map[model.ObjectID][]pendingInstall{focal: {{qid, q, 50}}}
	}
	v1 := snap(2, nil, ok)
	binary.LittleEndian.PutUint16(v1[4:], 1)

	if _, errs := restoreEverywhere(snap(3, pendingOn(9, 2), ok)); errs["serial"] != nil || errs["router"] != nil {
		t.Fatalf("well-formed baseline refused: %v", errs)
	}
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"version 1", "unsupported snapshot version 1", v1},
		{"counter at an installed qid", "outside [1, 1)", snap(1, nil, ok)},
		{"counter at a pending qid", "outside [1, 2)", snap(2, pendingOn(9, 2), ok)},
		{"zero counter", "not positive", snap(0, nil)},
		{"duplicate qid across focals", "query 1 twice", snap(2, nil, ok, testSlice(2, 100, cell, mon, nil, 1))},
		{"duplicate qid in the pending table", "query 1 twice", snap(2, pendingOn(9, 1), ok)},
		{"oids descending", "not strictly ascending", snap(3, nil, testSlice(2, 100, cell, mon, nil, 2), ok)},
		{"oid repeated", "not strictly ascending", snap(3, nil, ok, testSlice(1, 100, cell, mon, nil, 2))},
		{"queries descending", "queries not strictly ascending", snap(3, nil, testSlice(1, 100, cell, mon, nil, 2, 1))},
		{"focal without a query", "lists no query", snap(2, nil, ok, testSlice(2, 100, cell, mon, nil))},
		{"off-grid cell", "off the grid", snap(2, nil, testSlice(1, 100, grid.CellID{Col: 20, Row: 0}, mon, nil, 1))},
		{"off-grid monitoring region", "off the grid", snap(2, nil, testSlice(1, 100, cell,
			grid.CellRange{Min: grid.CellID{Col: -1, Row: 0}, Max: grid.CellID{Col: 3, Row: 3}}, nil, 1))},
		{"int32-spanning monitoring region", "off the grid", snap(2, nil, testSlice(1, 100, cell,
			grid.CellRange{Min: grid.CellID{Col: math.MinInt32, Row: math.MinInt32}, Max: grid.CellID{Col: math.MaxInt32, Row: math.MaxInt32}}, nil, 1))},
		{"record max velocity differs from the row", "canonical", snap(2, nil, splice(ok, testSlice(1, 200, cell, mon, res, 1)))},
		{"record focal differs from the row", "canonical", snap(2, nil, splice(ok, testSlice(2, 100, cell, mon, res, 1)))},
		{"results unsorted", "canonical", snap(2, nil, withResults(7, 3))},
		{"results repeated", "canonical", snap(2, nil, withResults(3, 3))},
		{"trailing bytes", "trailing bytes", append(snap(2, nil, ok), 0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, errs := restoreEverywhere(c.data)
			for backend, err := range errs {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: restore error %v, want one containing %q", backend, err, c.want)
				}
			}
		})
	}
}

// TestInjectValidates: a Handoff frame's slice is a peer's bytes, like a
// snapshot. Each case below was injected without error and left tables
// that CheckInvariants rejects, that reuse a held oid or qid, or (the
// int32-spanning region) that loop ~2⁶² times in rqiEdit. InjectFocal
// refuses every one with the node's tables untouched.
func TestInjectValidates(t *testing.T) {
	cell := grid.CellID{Col: 10, Row: 10}
	mon := grid.CellRange{Min: grid.CellID{Col: 9, Row: 9}, Max: grid.CellID{Col: 11, Row: 11}}
	held := testSlice(1, 100, cell, mon, []model.ObjectID{3, 7}, 1)
	for _, c := range []struct {
		name, want string
		slice      []byte
		at         grid.CellID
	}{
		{"off-grid cell", "off the grid", testSlice(2, 100, grid.CellID{Col: 500, Row: 500},
			grid.CellRange{Min: grid.CellID{Col: -3, Row: -3}, Max: grid.CellID{Col: 30, Row: 30}}, nil, 2), cell},
		{"off-grid monitoring region", "off the grid", testSlice(2, 100, cell,
			grid.CellRange{Min: grid.CellID{Col: -3, Row: -3}, Max: grid.CellID{Col: 30, Row: 30}}, nil, 2), cell},
		{"off-grid target cell", "off the grid", testSlice(2, 100, cell, mon, nil, 2), grid.CellID{Col: 20, Row: 3}},
		{"focal without a query", "lists no query", testSlice(2, 100, cell, mon, nil), cell},
		{"queries descending", "queries not strictly ascending", testSlice(2, 100, cell, mon, nil, 3, 2), cell},
		{"oid already held", "already held", testSlice(1, 100, cell, mon, nil, 2), cell},
		{"qid already held", "already held", testSlice(2, 100, cell, mon, nil, 1), cell},
		{"int32-spanning monitoring region", "off the grid", testSlice(2, 100, cell,
			grid.CellRange{Min: grid.CellID{Col: math.MinInt32, Row: math.MinInt32}, Max: grid.CellID{Col: math.MaxInt32, Row: math.MaxInt32}}, nil, 2), cell},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := NewNodeServer(smallGrid(), Options{}, nullDown{})
			if err := n.InjectFocal(held, model.MotionState{}, cell, false, false, 0); err != nil {
				t.Fatalf("well-formed slice refused: %v", err)
			}
			before, _ := n.SnapshotData()
			err := n.InjectFocal(c.slice, model.MotionState{}, c.at, false, false, 0)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("inject error %v, want one containing %q", err, c.want)
			}
			if after, _ := n.SnapshotData(); !bytes.Equal(before, after) {
				t.Error("a refused inject changed the node's tables")
			}
			if err := n.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPendingInstallDropped: removing or expiring a query whose focal has
// not answered its FocalInfoRequest yet drops the pending install, so the
// late FocalInfoResponse installs only the focal's other pending query, and
// a departure drops the pending installs' expiries with them — on the
// serial server and on the router built through each constructor.
func TestPendingInstallDropped(t *testing.T) {
	backends := lifecycleBackends()
	for _, c := range []struct {
		name     string
		drop     func(t *testing.T, s ServerAPI, qid model.QueryID)
		siblings bool // the focal's other pending install survives
	}{
		{"expire", func(t *testing.T, s ServerAPI, qid model.QueryID) {
			if got := s.ExpireQueries(model.FromSeconds(90)); !slices.Equal(got, []model.QueryID{qid}) {
				t.Errorf("ExpireQueries = %v, want [%d]", got, qid)
			}
		}, true},
		{"remove", func(t *testing.T, s ServerAPI, qid model.QueryID) {
			if !s.RemoveQuery(qid) {
				t.Error("RemoveQuery of a pending query = false")
			}
			if s.RemoveQuery(qid) {
				t.Error("second RemoveQuery of the same query = true")
			}
		}, true},
		{"depart", func(t *testing.T, s ServerAPI, qid model.QueryID) {
			s.HandleUplink(msg.DepartureReport{OID: 1})
		}, false},
	} {
		for name, newBackend := range backends {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				s := newBackend()
				qid := s.InstallQueryUntil(1, model.CircleRegion{R: 3}, matchAll, 100, model.FromSeconds(60))
				sibling := s.InstallQuery(1, model.CircleRegion{R: 2}, matchAll, 100)
				c.drop(t, s, qid)
				s.HandleUplink(msg.FocalInfoResponse{OID: 1, Pos: geo.Pt(50, 50), Tm: model.FromSeconds(100)})
				if _, installed := s.Query(qid); installed {
					t.Errorf("dropped query %d installed", qid)
				}
				if _, installed := s.Query(sibling); installed != c.siblings {
					t.Errorf("sibling query %d installed = %v, want %v", sibling, installed, c.siblings)
				}
				if got := s.ExpireQueries(model.FromSeconds(1e6)); len(got) != 0 {
					t.Errorf("a later sweep expired %v", got)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// lifecycleBackends builds the serial server and a 2-node router through
// each router constructor on smallGrid, by name.
func lifecycleBackends() map[string]func() ServerAPI {
	backends := map[string]func() ServerAPI{
		"serial": func() ServerAPI { return NewServer(smallGrid(), Options{}, nullDown{}) },
	}
	for _, r := range routerRenderings {
		backends[r.name] = func() ServerAPI { return r.new(smallGrid(), Options{}, nullDown{}, 2) }
	}
	return backends
}

// TestZeroExpiryNeverExpires: InstallQueryUntil with a zero expiry installs
// a query without one, as InstallQuery does — whether it installs at once
// or waits on its focal — on the serial server and on the router built
// through each constructor. The
// serial server used to expire both at the next sweep.
func TestZeroExpiryNeverExpires(t *testing.T) {
	for name, newBackend := range lifecycleBackends() {
		t.Run(name, func(t *testing.T) {
			s := newBackend()
			s.InstallQuery(1, model.CircleRegion{R: 3}, matchAll, 100)
			s.HandleUplink(msg.FocalInfoResponse{OID: 1, Pos: geo.Pt(50, 50)})
			installed := s.InstallQueryUntil(1, model.CircleRegion{R: 2}, matchAll, 100, 0)
			pending := s.InstallQueryUntil(2, model.CircleRegion{R: 2}, matchAll, 100, 0)
			for _, now := range []model.Time{1, model.FromSeconds(1e6)} {
				if got := s.ExpireQueries(now); len(got) != 0 {
					t.Errorf("ExpireQueries(%v) = %v, want none", now, got)
				}
			}
			if _, ok := s.Query(installed); !ok {
				t.Errorf("query %d was uninstalled", installed)
			}
			s.HandleUplink(msg.FocalInfoResponse{OID: 2, Pos: geo.Pt(20, 20)})
			if _, ok := s.Query(pending); !ok {
				t.Errorf("pending query %d did not install", pending)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPendingGaugeTracksBook: the pending-installs gauge reads the number
// of installs waiting on a focal after every change — install, remove,
// expiry, completion and departure — on the serial server and on the
// router built through each constructor. The serial server's used to keep its value across a
// remove or an expiry of a pending install.
func TestPendingGaugeTracksBook(t *testing.T) {
	for name, newBackend := range lifecycleBackends() {
		t.Run(name, func(t *testing.T) {
			s := newBackend()
			reg := obs.NewRegistry()
			s.Instrument(reg)
			expect := func(step string, want float64) {
				t.Helper()
				if got := reg.Snapshot()[metricPending]; got != want {
					t.Errorf("after %s: %s = %v, want %v", step, metricPending, got, want)
				}
			}
			expect("instrumenting", 0)
			qid := s.InstallQuery(1, model.CircleRegion{R: 3}, matchAll, 100)
			expect("an install", 1)
			s.RemoveQuery(qid)
			expect("its removal", 0)
			s.InstallQueryUntil(1, model.CircleRegion{R: 3}, matchAll, 100, model.FromSeconds(60))
			s.InstallQuery(1, model.CircleRegion{R: 2}, matchAll, 100)
			expect("two installs on one focal", 2)
			s.ExpireQueries(model.FromSeconds(90))
			expect("an expiry", 1)
			s.HandleUplink(msg.FocalInfoResponse{OID: 1, Pos: geo.Pt(50, 50)})
			expect("completion", 0)
			s.InstallQuery(2, model.CircleRegion{R: 3}, matchAll, 100)
			s.HandleUplink(msg.DepartureReport{OID: 2})
			expect("a departure", 0)
		})
	}
}

// TestStaleFocalInfoResponseIgnored: a FocalInfoResponse answering an
// install that was removed before it arrived finds nothing to complete and
// no FOT row to refresh, so it must create none. Otherwise a later install
// on the same focal completes at once from the stale motion state, without
// a FocalInfoRequest, behind a row that listed no query — on the serial
// server and on the router built through each constructor.
func TestStaleFocalInfoResponseIgnored(t *testing.T) {
	harnesses := map[string]func() *harness{
		"serial":  func() *harness { return newHarness(smallGrid(), Options{}) },
		"sharded": func() *harness { return newShardedHarness(smallGrid(), Options{}, 2) },
		"cluster": func() *harness { return newClusterHarness(smallGrid(), Options{}, 2) },
	}
	for name, newH := range harnesses {
		t.Run(name, func(t *testing.T) {
			h := newH()
			s := h.server
			first := s.InstallQuery(5, model.CircleRegion{R: 3}, matchAll, 100)
			s.RemoveQuery(first)
			s.HandleUplink(msg.FocalInfoResponse{OID: 5, Pos: geo.Pt(20, 20), Tm: 1})
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("after the stale response: %v", err)
			}
			second := s.InstallQuery(5, model.CircleRegion{R: 3}, matchAll, 100)
			if n := s.NumQueries(); n != 0 {
				t.Fatalf("the second install completed from the stale response: %d queries installed", n)
			}
			if n := h.downCount[msg.KindFocalInfoRequest]; n != 2 {
				t.Errorf("%d FocalInfoRequests sent, want one per install", n)
			}
			s.HandleUplink(msg.FocalInfoResponse{OID: 5, Pos: geo.Pt(70, 70), Tm: 2})
			if _, ok := s.Query(second); !ok {
				t.Fatal("the fresh response did not complete the second install")
			}
			if got := s.NearbyQueries(smallGrid().CellOf(geo.Pt(70, 70))); !slices.Contains(got, second) {
				t.Errorf("the query is not monitored around the fresh position: nearby %v", got)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzRestore: no input panics a restore, serial and a 2-node router agree
// on whether to accept it, and an accepted snapshot yields tables that pass
// CheckInvariants and re-snapshot byte-identically.
func FuzzRestore(f *testing.F) {
	h := newHarness(smallGrid(), Options{})
	runScenario(h)
	h.server.InstallQueryUntil(99, model.CircleRegion{R: 2}, matchAll, 50, model.FromSeconds(9999))
	var buf bytes.Buffer
	if err := h.server.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var empty bytes.Buffer
	NewServer(smallGrid(), Options{}, nullDown{}).Snapshot(&empty)
	f.Add(empty.Bytes())
	mon := grid.CellRange{Min: grid.CellID{Col: 9, Row: 9}, Max: grid.CellID{Col: 11, Row: 11}}
	f.Add(appendSnapshot(nil, &queryBook{next: 4}, [][]byte{
		testSlice(1, 100, grid.CellID{Col: 10, Row: 10}, mon, []model.ObjectID{3, 7}, 1, 2),
		testSlice(5, 100, grid.CellID{Col: 2, Row: 19}, mon, nil),
	}))
	f.Add(appendSnapshot(nil, &queryBook{next: 4}, [][]byte{
		testSlice(1, 100, grid.CellID{Col: 10, Row: 10}, mon, []model.ObjectID{3, 7}, 1, 2),
		testSlice(5, 100, grid.CellID{Col: 2, Row: 19}, mon, nil, 3),
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		servers, errs := restoreEverywhere(data)
		serialErr := errs["serial"]
		for backend, err := range errs {
			if (err == nil) != (serialErr == nil) {
				t.Fatalf("serial restore error %v, %s restore error %v", serialErr, backend, err)
			}
		}
		if serialErr != nil {
			return
		}
		for backend, s := range servers {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s: accepted snapshot fails invariants: %v", backend, err)
			}
			var again bytes.Buffer
			if err := s.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), data) {
				t.Fatalf("%s: re-snapshot differs from the accepted input", backend)
			}
		}
	})
}
