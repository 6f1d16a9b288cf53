package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// TestProtocolFuzz drives the full protocol through randomized operation
// interleavings — query installs and removals mid-flight, objects joining
// and departing, velocity churn — under every option combination, checking
// the server's results against brute-force ground truth after every step.
// Under EQP with Δ=0 the results must be exact at all times.
func TestProtocolFuzz(t *testing.T) {
	optionSets := []Options{
		{},
		{SafePeriod: true},
		{Grouping: true},
		{SafePeriod: true, Grouping: true},
	}
	for oi, opts := range optionSets {
		opts := opts
		for seed := int64(1); seed <= 3; seed++ {
			fuzzRun(t, opts, seed+int64(oi)*100)
		}
	}
}

func fuzzRun(t *testing.T, opts Options, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := newHarness(smallGrid(), opts)

	// Population: 40 objects, some initially present.
	const maxObjects = 40
	present := make(map[model.ObjectID]bool)
	nextOID := model.ObjectID(1)
	addObject := func() {
		if int(nextOID) > maxObjects {
			return
		}
		oid := nextOID
		nextOID++
		pos := geo.Pt(10+rng.Float64()*80, 10+rng.Float64()*80)
		maxVel := []float64{50, 100, 150, 200, 250}[rng.Intn(5)]
		h.addObject(oid, pos, geo.Vec(0, 0), maxVel, rng.Uint64())
		i := h.byOID[oid]
		h.randomizeVelocities(rng, 1) // churn someone
		h.clients[i].Join(h.objs[i].Pos, h.objs[i].Vel, h.now)
		h.flushDown()
		present[oid] = true
	}
	for i := 0; i < 25; i++ {
		addObject()
	}

	// Live queries, keyed by qid. Departed objects stay in h.objs (the
	// harness cannot remove them) but are exiled far outside the UoD so
	// ground truth ignores them.
	live := map[model.QueryID]bool{}
	installRandom := func() {
		// Pick a present focal object.
		var candidates []model.ObjectID
		for oid, on := range present {
			if on {
				candidates = append(candidates, oid)
			}
		}
		if len(candidates) == 0 {
			return
		}
		focal := candidates[rng.Intn(len(candidates))]
		var region model.Region
		if rng.Intn(3) == 0 {
			region = model.RectRegion{W: 1 + rng.Float64()*6, H: 1 + rng.Float64()*6}
		} else {
			region = model.CircleRegion{R: 0.5 + rng.Float64()*4.5}
		}
		filter := model.Filter{Seed: rng.Uint64(), Permille: 750}
		qid := h.installRegion(focal, region, filter, 250)
		live[qid] = true
	}
	for i := 0; i < 6; i++ {
		installRandom()
	}

	for step := 0; step < 25; step++ {
		switch rng.Intn(10) {
		case 0:
			installRandom()
		case 1: // remove a random live query
			for qid := range live {
				h.server.RemoveQuery(qid)
				h.flushDown()
				delete(live, qid)
				break
			}
		case 2:
			addObject()
		case 3: // depart a random present non... any present object
			for oid, on := range present {
				if !on {
					continue
				}
				i := h.byOID[oid]
				h.clients[i].Depart()
				h.flushDown()
				present[oid] = false
				// Exile so ground truth and future steps ignore it; it
				// stops moving and never crosses cells again.
				h.objs[i].Pos = geo.Pt(-1e6, -1e6)
				h.objs[i].Vel = geo.Vec(0, 0)
				// Queries it was focal of are gone.
				for qid := range live {
					if q, ok := h.server.Query(qid); !ok || q.Focal == oid {
						delete(live, qid)
					}
				}
				break
			}
		}

		h.keepInside()
		h.randomizeVelocities(rng, 6)
		h.step(model.FromSeconds(30))

		if err := h.server.CheckInvariants(); err != nil {
			t.Fatalf("opts %+v seed %d step %d: %v", opts, seed, step, err)
		}
		for qid := range live {
			got, want := h.server.Result(qid), h.fuzzGroundTruth(qid, present)
			if !idsEqual(got, want) {
				t.Fatalf("opts %+v seed %d step %d q%d: result %v, ground truth %v",
					opts, seed, step, qid, got, want)
			}
		}
	}
}

// fuzzGroundTruth is groundTruth restricted to present objects.
func (h *harness) fuzzGroundTruth(qid model.QueryID, present map[model.ObjectID]bool) []model.ObjectID {
	full := h.groundTruth(qid)
	out := full[:0]
	for _, oid := range full {
		if present[oid] {
			out = append(out, oid)
		}
	}
	return out
}

// Query-lifecycle fuzz operations: one opcode byte and two argument bytes
// each (see FuzzQueryLifecycle).
const (
	opInstall         = iota // focal 1+a%4, radius 1+b%4
	opInstallUntil           // focal 1+a%4, expiry lifecycleExpiries[b%4]
	opRemove                 // qid 1+a%8
	opExpire                 // now lifecycleNows[a%4]
	opFocalInfo              // oid 1+a%4 at lifecyclePositions[b%4]
	opCellChange             // oid 1+a%6 enters lifecyclePositions[b%4]; a join when b&4, else from lifecyclePositions[(b>>3)%4]
	opDepart                 // oid 1+a%6
	opSnapshotRestore        // every backend is replaced by a restore of its snapshot
	opGroupReport            // oid 5+a%2, focal 1+b%4, qids 1+(a>>1)%8 and 1+(b>>2)%8, both bits set
	opContainment            // oid 5+a%2, qid 1+b%8, target when b&8
	numLifecycleOps
)

var (
	lifecycleExpiries  = [4]model.Time{0, model.FromSeconds(10), model.FromSeconds(20), model.FromSeconds(40)}
	lifecycleNows      = [4]model.Time{1, model.FromSeconds(15), model.FromSeconds(30), model.FromSeconds(1e6)}
	lifecyclePositions = [4]geo.Point{geo.Pt(20, 25), geo.Pt(20, 75), geo.Pt(80, 30), geo.Pt(60, 90)}
)

// lifecycleOps encodes a sequence of FuzzQueryLifecycle operations.
func lifecycleOps(ops ...[3]byte) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, op[:]...)
	}
	return b
}

// FuzzQueryLifecycle decodes bytes into installs (with and without an
// expiry, zero included), removals, expiry sweeps, focal-info responses
// (stale ones included), joining and moving cell changes, departures,
// group and single containment reports and snapshot → restore, and runs
// them on the serial server and on a 2-node router. After every operation
// the two must have returned the same values and agree on QueryIDs,
// NumQueries, every Query and Result, and their snapshots byte for byte,
// and each must pass CheckInvariants; every QueryInstall either sent during
// the operation must match the other's in order, target and wire bytes. The
// seeds replay the lifecycle bugs found in the two servers' former copies of
// this code.
func FuzzQueryLifecycle(f *testing.F) {
	for _, seed := range [][]byte{
		// A pending install survived its removal, and its expiry.
		lifecycleOps([3]byte{opInstall, 0, 0}, [3]byte{opRemove, 0, 0}, [3]byte{opFocalInfo, 0, 0}),
		lifecycleOps([3]byte{opInstallUntil, 0, 1}, [3]byte{opExpire, 1, 0}, [3]byte{opFocalInfo, 0, 0}),
		// A pending install's expiry survived its focal's departure.
		lifecycleOps([3]byte{opInstallUntil, 0, 1}, [3]byte{opDepart, 0, 0}, [3]byte{opExpire, 3, 0}),
		// A group report listing another focal's query.
		lifecycleOps([3]byte{opInstall, 0, 0}, [3]byte{opFocalInfo, 0, 0}, [3]byte{opInstall, 1, 0}, [3]byte{opFocalInfo, 1, 1},
			[3]byte{opGroupReport, 0, 4}, [3]byte{opGroupReport, 2, 0}),
		// A stale FocalInfoResponse left a FOT row with no query.
		lifecycleOps([3]byte{opInstall, 0, 0}, [3]byte{opRemove, 0, 0}, [3]byte{opFocalInfo, 0, 0}, [3]byte{opInstall, 0, 0},
			[3]byte{opFocalInfo, 0, 1}),
		// A zero expiry expired at the next sweep on the serial server.
		lifecycleOps([3]byte{opInstall, 0, 0}, [3]byte{opFocalInfo, 0, 0}, [3]byte{opInstallUntil, 0, 0},
			[3]byte{opInstallUntil, 1, 0}, [3]byte{opExpire, 0, 0}),
		// Pending installs across a snapshot, a handoff and a rejoin.
		lifecycleOps([3]byte{opInstallUntil, 0, 2}, [3]byte{opInstall, 1, 1}, [3]byte{opSnapshotRestore, 0, 0},
			[3]byte{opCellChange, 0, 4}, [3]byte{opFocalInfo, 1, 1}, [3]byte{opCellChange, 1, 8}, [3]byte{opContainment, 0, 9},
			[3]byte{opExpire, 2, 0}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 48
		if len(data) > 3*maxOps {
			data = data[:3*maxOps]
		}
		g := smallGrid()
		names := []string{"serial", "router"}
		logs := []*installLog{{}, {}}
		servers := []ServerAPI{NewServer(g, Options{}, logs[0]), NewClusterServer(g, Options{}, logs[1], 2)}
		var maxQID model.QueryID
		for i := 0; i+3 <= len(data); i += 3 {
			op, a, b := data[i]%numLifecycleOps, data[i+1], data[i+2]
			tm := model.FromSeconds(float64(i))
			if op == opSnapshotRestore {
				var buf bytes.Buffer
				if err := servers[0].Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				s, err := RestoreServer(g, Options{}, logs[0], bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("op %d: serial restore: %v", i/3, err)
				}
				cs := NewClusterServer(g, Options{}, logs[1], 2)
				if err := cs.Restore(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("op %d: router restore: %v", i/3, err)
				}
				servers[0], servers[1] = s, cs
			}
			got := make([]string, len(servers))
			for k, s := range servers {
				switch op {
				case opInstall:
					got[k] = fmt.Sprint(s.InstallQuery(model.ObjectID(1+a%4), model.CircleRegion{R: float64(1 + b%4)}, matchAll, 100))
				case opInstallUntil:
					got[k] = fmt.Sprint(s.InstallQueryUntil(model.ObjectID(1+a%4), model.CircleRegion{R: 2}, matchAll, 100, lifecycleExpiries[b%4]))
				case opRemove:
					got[k] = fmt.Sprint(s.RemoveQuery(model.QueryID(1 + a%8)))
				case opExpire:
					got[k] = fmt.Sprint(s.ExpireQueries(lifecycleNows[a%4]))
				case opFocalInfo:
					s.HandleUplink(msg.FocalInfoResponse{OID: model.ObjectID(1 + a%4), Pos: lifecyclePositions[b%4], Tm: tm})
				case opCellChange:
					pos := lifecyclePositions[b%4]
					prev := grid.CellID{Col: -1, Row: -1}
					if b&4 == 0 {
						prev = g.CellOf(lifecyclePositions[(b>>3)%4])
					}
					s.HandleUplink(msg.CellChangeReport{OID: model.ObjectID(1 + a%6), PrevCell: prev, NewCell: g.CellOf(pos), Pos: pos, Tm: tm})
				case opDepart:
					s.HandleUplink(msg.DepartureReport{OID: model.ObjectID(1 + a%6)})
				case opGroupReport:
					bits := msg.NewBitmap(2)
					bits.Set(0, true)
					bits.Set(1, true)
					s.HandleUplink(msg.GroupContainmentReport{OID: model.ObjectID(5 + a%2), Focal: model.ObjectID(1 + b%4),
						QIDs: []model.QueryID{model.QueryID(1 + (a>>1)%8), model.QueryID(1 + (b>>2)%8)}, Bitmap: bits})
				case opContainment:
					s.HandleUplink(msg.ContainmentReport{OID: model.ObjectID(5 + a%2), QID: model.QueryID(1 + b%8), IsTarget: b&8 != 0})
				}
			}
			if op == opInstall || op == opInstallUntil {
				maxQID++
			}
			step := fmt.Sprintf("op %d (%d %d %d)", i/3, op, a, b)
			compareLifecycle(t, step, names, servers, got, maxQID)
			if !slices.Equal(logs[1].sends, logs[0].sends) {
				t.Fatalf("%s: router sent QueryInstalls\n%v\nserial\n%v", step, logs[1].sends, logs[0].sends)
			}
			logs[0].sends, logs[1].sends = logs[0].sends[:0], logs[1].sends[:0]
		}
	})
}

// installLog is a downlink that records every QueryInstall as its target and
// wire bytes, encoded during the call: the server lends the state list only
// for the call (see Downlink).
type installLog struct{ sends []string }

func (l *installLog) Broadcast(region grid.CellRange, m msg.Message) { l.keep(region.String(), m) }
func (l *installLog) Unicast(oid model.ObjectID, m msg.Message)      { l.keep(fmt.Sprint("oid ", oid), m) }

func (l *installLog) keep(to string, m msg.Message) {
	if m.Kind() == msg.KindQueryInstall {
		l.sends = append(l.sends, fmt.Sprintf("%s %x", to, wire.Encode(m)))
	}
}

// compareLifecycle fails t unless every server returned what the serial
// server (servers[0]) did, agrees with it on every query and snapshot byte,
// and passes CheckInvariants.
func compareLifecycle(t *testing.T, step string, names []string, servers []ServerAPI, got []string, maxQID model.QueryID) {
	t.Helper()
	var want bytes.Buffer
	if err := servers[0].Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	ref := servers[0]
	for k, s := range servers {
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %s: %v", step, names[k], err)
		}
		if k == 0 {
			continue
		}
		if got[k] != got[0] {
			t.Fatalf("%s: %s returned %s, serial %s", step, names[k], got[k], got[0])
		}
		if n, m := s.NumQueries(), ref.NumQueries(); n != m {
			t.Fatalf("%s: %s has %d queries, serial %d", step, names[k], n, m)
		}
		if ids, ref := s.QueryIDs(), ref.QueryIDs(); !slices.Equal(ids, ref) {
			t.Fatalf("%s: %s QueryIDs %v, serial %v", step, names[k], ids, ref)
		}
		for qid := model.QueryID(1); qid <= maxQID; qid++ {
			q, ok := s.Query(qid)
			rq, rok := ref.Query(qid)
			if ok != rok || q != rq {
				t.Fatalf("%s: %s Query(%d) = %v %v, serial %v %v", step, names[k], qid, q, ok, rq, rok)
			}
			if res, rres := s.Result(qid), ref.Result(qid); !slices.Equal(res, rres) {
				t.Fatalf("%s: %s Result(%d) = %v, serial %v", step, names[k], qid, res, rres)
			}
		}
		var snap bytes.Buffer
		if err := s.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Bytes(), want.Bytes()) {
			t.Fatalf("%s: %s snapshot differs from the serial server's", step, names[k])
		}
	}
}
