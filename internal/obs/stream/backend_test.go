package stream_test

// Backend tests: the tap fed from core.ServerAPI.SetResultListener must
// deliver snapshot-then-delta streams that match the engine's result sets
// exactly, identically across the serial server and the router over four
// and over three in-process nodes, and the engine's result sets must match
// brute-force ground truth.

import (
	"fmt"
	"sort"
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/stream"
)

var matchAll = model.Filter{Seed: 1, Permille: 1000}

// harness is a minimal deterministic protocol driver (queued downlinks, one
// giant base station) mirroring the core package's test harness, usable from
// outside core.
type harness struct {
	g       *grid.Grid
	srv     core.ServerAPI
	objs    []*model.MovingObject
	clients []*core.Client
	byOID   map[model.ObjectID]int
	queue   []queuedDown
	now     model.Time
	opts    core.Options
}

type queuedDown struct {
	target model.ObjectID // -1 for broadcast
	m      msg.Message
}

// hDown queues each send for delivery after the op, so it keeps msg.Retain
// of the lent message.
type hDown struct{ h *harness }

func (d hDown) Broadcast(_ grid.CellRange, m msg.Message) {
	d.h.queue = append(d.h.queue, queuedDown{target: -1, m: msg.Retain(m)})
}
func (d hDown) Unicast(oid model.ObjectID, m msg.Message) {
	d.h.queue = append(d.h.queue, queuedDown{target: oid, m: msg.Retain(m)})
}

type hUp struct{ h *harness }

func (u hUp) Send(m msg.Message) { u.h.srv.HandleUplink(m) }

// newHarness builds the harness over the router with nodes in-process
// nodes, or over the serial server for nodes == 0.
func newHarness(nodes int) *harness {
	h := &harness{byOID: map[model.ObjectID]int{}}
	h.g = grid.New(geo.NewRect(0, 0, 100, 100), 5)
	if nodes > 0 {
		h.srv = core.NewClusterServer(h.g, h.opts, hDown{h}, nodes)
	} else {
		h.srv = core.NewServer(h.g, h.opts, hDown{h})
	}
	return h
}

func (h *harness) addObject(oid model.ObjectID, pos geo.Point, vel geo.Vector, maxVel float64, key uint64) {
	o := &model.MovingObject{ID: oid, Pos: pos, Vel: vel, MaxVel: maxVel, Props: model.Props{Key: key}}
	c := core.NewClient(h.g, h.opts, hUp{h}, oid, o.Props, maxVel, pos)
	h.byOID[oid] = len(h.objs)
	h.objs = append(h.objs, o)
	h.clients = append(h.clients, c)
}

func (h *harness) flushDown() {
	for len(h.queue) > 0 {
		q := h.queue[0]
		h.queue = h.queue[1:]
		if q.target >= 0 {
			i := h.byOID[q.target]
			h.clients[i].OnDownlink(q.m, h.objs[i].Pos, h.objs[i].Vel, h.now)
			continue
		}
		for i, c := range h.clients {
			c.OnDownlink(q.m, h.objs[i].Pos, h.objs[i].Vel, h.now)
		}
	}
}

func (h *harness) install(focal model.ObjectID, radius float64, maxVel float64) model.QueryID {
	qid := h.srv.InstallQuery(focal, model.CircleRegion{R: radius}, matchAll, maxVel)
	h.flushDown()
	return qid
}

func (h *harness) step(dt model.Time) {
	h.now += dt
	for _, o := range h.objs {
		o.Move(dt)
	}
	for i, c := range h.clients {
		c.TickCellChange(h.objs[i].Pos, h.objs[i].Vel, h.now)
	}
	h.flushDown()
	for i, c := range h.clients {
		c.TickDeadReckoning(h.objs[i].Pos, h.objs[i].Vel, h.now)
	}
	h.flushDown()
	for i, c := range h.clients {
		c.TickEvaluate(h.objs[i].Pos, h.objs[i].Vel, h.now)
	}
	h.flushDown()
}

// subscriberView integrates a snapshot-then-delta stream and checks
// gap-freeness as it goes.
type subscriberView struct {
	t       *testing.T
	name    string
	seq     map[int64]uint64
	members map[int64]map[int64]bool
	known   map[int64]bool // qids present in the snapshot
}

func newView(t *testing.T, name string, snap []stream.SnapshotEntry) *subscriberView {
	v := &subscriberView{
		t: t, name: name,
		seq:     map[int64]uint64{},
		members: map[int64]map[int64]bool{},
		known:   map[int64]bool{},
	}
	for _, e := range snap {
		v.seq[e.QID] = e.Seq
		v.known[e.QID] = true
		set := map[int64]bool{}
		for _, oid := range e.Members {
			set[oid] = true
		}
		v.members[e.QID] = set
	}
	return v
}

func (v *subscriberView) apply(evs []stream.Event) {
	for _, ev := range evs {
		// A qid absent from the snapshot (installed after a firehose
		// subscribe, or never seen for a specific subscribe) starts at
		// base 0: its first delta must be seq 1.
		if v.seq[ev.QID]+1 != ev.Seq {
			v.t.Fatalf("%s: qid %d sequence gap: have %d, got event seq %d",
				v.name, ev.QID, v.seq[ev.QID], ev.Seq)
		}
		v.seq[ev.QID] = ev.Seq
		if v.members[ev.QID] == nil {
			v.members[ev.QID] = map[int64]bool{}
		}
		if ev.Enter {
			if v.members[ev.QID][ev.OID] {
				v.t.Fatalf("%s: qid %d duplicate enter for oid %d", v.name, ev.QID, ev.OID)
			}
			v.members[ev.QID][ev.OID] = true
		} else {
			if !v.members[ev.QID][ev.OID] {
				v.t.Fatalf("%s: qid %d leave for non-member oid %d", v.name, ev.QID, ev.OID)
			}
			delete(v.members[ev.QID], ev.OID)
		}
	}
}

func (v *subscriberView) set(qid int64) []int64 {
	var out []int64
	for oid := range v.members[qid] {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// groundTruth is qid's exact result by brute force over the objects'
// positions, which every backend must hold at a quiescent point: the
// harness runs eager propagation with Δ = 0.
func (h *harness) groundTruth(qid model.QueryID) []int64 {
	q, ok := h.srv.Query(qid)
	if !ok {
		return nil
	}
	focal := h.objs[h.byOID[q.Focal]].Pos
	var out []int64
	for _, o := range h.objs {
		if q.Filter.Matches(o.Props) && q.Region.Contains(focal, o.Pos) {
			out = append(out, int64(o.ID))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func engineSet(srv core.ServerAPI, qid model.QueryID) []int64 {
	var out []int64
	for _, oid := range srv.Result(qid) {
		out = append(out, int64(oid))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func eq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotThenDeltaBackends runs the same scripted workload on every
// backend: subscribers attach mid-run (firehose and per-query), integrate
// their delta streams, and must converge to the engine's exact result sets
// at every quiescent point with contiguous sequence numbers throughout;
// the engine's result sets must equal ground truth there too. Each step's
// cell crossings queue several state-carrying QueryInstalls with different
// query sets before the harness delivers any, so a downlink that kept the
// server's lent messages without copying them would install the wrong
// queries on the clients and miss ground truth.
func TestSnapshotThenDeltaBackends(t *testing.T) {
	for _, nodes := range []int{0, 4, 3} {
		backend := "serial"
		if nodes > 0 {
			backend = fmt.Sprintf("nodes=%d", nodes)
		}
		t.Run(backend, func(t *testing.T) {
			h := newHarness(nodes)
			tap := stream.NewTap()
			h.srv.SetResultListener(func(ev core.ResultEvent) {
				tap.Publish(int64(ev.QID), int64(ev.OID), ev.Entered)
			})

			// Two rows of stationary focals, one query each, and movers
			// sweeping both rows east and west through the queries'
			// monitoring regions.
			var qids []model.QueryID
			for i, y := range []float64{30, 70} {
				for j, x := range []float64{20, 50, 80} {
					oid := model.ObjectID(3*i + j + 1)
					h.addObject(oid, geo.Pt(x, y), geo.Vec(0, 0), 200, uint64(oid))
				}
			}
			for i := 7; i <= 30; i++ {
				y := 28 + float64(i%3)*2 + float64(i%2)*40
				x := 20 + float64(i*13%60)
				vx := 150.0
				if i%4 < 2 {
					vx = -vx
				}
				h.addObject(model.ObjectID(i), geo.Pt(x, y), geo.Vec(vx, 0), 200, uint64(i))
			}
			for oid := model.ObjectID(1); oid <= 6; oid++ {
				qids = append(qids, h.install(oid, 4+float64(oid%3), 200))
			}
			q1 := qids[0]
			h.step(model.FromSeconds(30))
			h.step(model.FromSeconds(30))

			// Mid-run subscribers: one firehose, one per query.
			fireSub, fireSnap := tap.Subscribe(stream.Firehose, 1<<16)
			fire := newView(t, backend+"/firehose", fireSnap)
			q1Sub, q1Snap := tap.Subscribe(int64(q1), 1<<16)
			v1 := newView(t, backend+"/q1", q1Snap)

			// The snapshot must equal the engine's result set at the cut.
			for _, e := range fireSnap {
				if got, want := e.Members, engineSet(h.srv, model.QueryID(e.QID)); !eq(got, want) {
					t.Fatalf("snapshot qid %d = %v, engine has %v", e.QID, got, want)
				}
			}

			for s := 0; s < 12; s++ {
				h.step(model.FromSeconds(30))
				// Quiescent between steps: drain and compare exactly.
				evs, evicted := fireSub.Drain()
				if evicted {
					t.Fatal("firehose subscriber evicted")
				}
				fire.apply(evs)
				evs1, _ := q1Sub.Drain()
				v1.apply(evs1)
				for _, ev := range evs1 {
					if ev.QID != int64(q1) {
						t.Fatalf("per-query sub saw qid %d", ev.QID)
					}
				}
				for _, qid := range qids {
					engine := engineSet(h.srv, qid)
					if got := fire.set(int64(qid)); !eq(got, engine) {
						t.Fatalf("%s step %d qid %d: stream view %v != engine %v",
							backend, s, qid, got, engine)
					}
					if want := h.groundTruth(qid); !eq(engine, want) {
						t.Fatalf("%s step %d qid %d: engine %v != ground truth %v",
							backend, s, qid, engine, want)
					}
				}
				if got, want := v1.set(int64(q1)), engineSet(h.srv, q1); !eq(got, want) {
					t.Fatalf("%s step %d q1 view %v != engine %v", backend, s, got, want)
				}
			}

			// Removal streams the implicit leaves; the view converges to
			// empty.
			h.srv.RemoveQuery(q1)
			evs, _ := fireSub.Drain()
			fire.apply(evs)
			if got := fire.set(int64(q1)); len(got) != 0 {
				t.Fatalf("after removal, view of q1 = %v", got)
			}
			fireSub.Close()
			q1Sub.Close()
			if n := tap.Subscribers(); n != 0 {
				t.Fatalf("subscribers after close = %d", n)
			}
			if err := h.srv.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
		})
	}
}

// TestLateQueryReachesFirehose pins the base-0 rule: a query installed
// after a firehose subscriber connected streams from seq 1 with no
// snapshot entry.
func TestLateQueryReachesFirehose(t *testing.T) {
	h := newHarness(0)
	tap := stream.NewTap()
	h.srv.SetResultListener(func(ev core.ResultEvent) {
		tap.Publish(int64(ev.QID), int64(ev.OID), ev.Entered)
	})
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)

	sub, snap := tap.Subscribe(stream.Firehose, 64)
	if len(snap) != 0 {
		t.Fatalf("snapshot before any query = %v", snap)
	}
	v := newView(t, "late", snap)
	qid := h.install(1, 3, 100)
	h.step(model.FromSeconds(30))
	evs, _ := sub.Drain()
	if len(evs) == 0 {
		t.Fatal("no events for late query")
	}
	if evs[0].Seq != 1 {
		t.Fatalf("first seq for late query = %d, want 1", evs[0].Seq)
	}
	v.apply(evs)
	if got, want := v.set(int64(qid)), engineSet(h.srv, qid); !eq(got, want) {
		t.Fatalf("late view %v != engine %v", got, want)
	}
	sub.Close()
}

func ExampleTap() {
	tap := stream.NewTap()
	sub, _ := tap.Subscribe(stream.Firehose, 16)
	tap.Publish(1, 42, true)
	evs, _ := sub.Drain()
	fmt.Printf("qid %d seq %d oid %d enter %v\n", evs[0].QID, evs[0].Seq, evs[0].OID, evs[0].Enter)
	// Output: qid 1 seq 1 oid 42 enter true
}
