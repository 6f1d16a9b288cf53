package core

import (
	"math"
	"math/rand"
	"sort"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// harness wires one Server and a set of Clients with queued, deterministic
// message delivery. Broadcasts reach every object (as under one giant base
// station); clients self-filter by monitoring region, which is exactly the
// protocol behavior under test.
type harness struct {
	g       *grid.Grid
	server  ServerAPI
	objs    []*model.MovingObject
	clients []*Client
	byOID   map[model.ObjectID]int

	// queued downlink deliveries (processed in FIFO order).
	downQueue []queuedDown
	upCount   map[msg.Kind]int
	downCount map[msg.Kind]int
	now       model.Time
	optsVal   Options
}

type queuedDown struct {
	target model.ObjectID // -1 for broadcast
	m      msg.Message
}

func newHarness(g *grid.Grid, opts Options) *harness {
	return newHarnessOver(g, opts, func(down Downlink) ServerAPI { return NewServer(g, opts, down) })
}

// newHarnessOver builds a harness around the server newServer returns;
// everything else (clients, queued delivery) is identical across servers,
// which is what makes the serial-vs-router equivalence tests direct
// comparisons.
func newHarnessOver(g *grid.Grid, opts Options, newServer func(Downlink) ServerAPI) *harness {
	h := &harness{
		g:         g,
		byOID:     make(map[model.ObjectID]int),
		upCount:   make(map[msg.Kind]int),
		downCount: make(map[msg.Kind]int),
		optsVal:   opts,
	}
	h.server = newServer(harnessDown{h})
	return h
}

// newClusterHarness is newHarness over the router with nodes in-process
// worker nodes (NewClusterServer).
func newClusterHarness(g *grid.Grid, opts Options, nodes int) *harness {
	return newHarnessOver(g, opts, func(down Downlink) ServerAPI { return NewClusterServer(g, opts, down, nodes) })
}

// newShardedHarness is newClusterHarness built through NewShardedServer,
// the constructor the benchmark harness calls.
func newShardedHarness(g *grid.Grid, opts Options, shards int) *harness {
	return newHarnessOver(g, opts, func(down Downlink) ServerAPI { return NewShardedServer(g, opts, down, shards) })
}

func (h *harness) addObject(oid model.ObjectID, pos geo.Point, vel geo.Vector, maxVel float64, key uint64) {
	o := &model.MovingObject{ID: oid, Pos: pos, Vel: vel, MaxVel: maxVel, Props: model.Props{Key: key}}
	c := NewClient(h.g, h.optsVal, harnessUp{h, oid}, oid, o.Props, maxVel, pos)
	h.byOID[oid] = len(h.objs)
	h.objs = append(h.objs, o)
	h.clients = append(h.clients, c)
}

// harnessDown queues each send for flushDown, so it keeps msg.Retain of the
// lent message.
type harnessDown struct{ h *harness }

func (d harnessDown) Broadcast(region grid.CellRange, m msg.Message) {
	d.h.downCount[m.Kind()]++
	d.h.downQueue = append(d.h.downQueue, queuedDown{target: -1, m: msg.Retain(m)})
}

func (d harnessDown) Unicast(oid model.ObjectID, m msg.Message) {
	d.h.downCount[m.Kind()]++
	d.h.downQueue = append(d.h.downQueue, queuedDown{target: oid, m: msg.Retain(m)})
}

type harnessUp struct {
	h   *harness
	oid model.ObjectID
}

func (u harnessUp) Send(m msg.Message) {
	u.h.upCount[m.Kind()]++
	u.h.server.HandleUplink(m)
}

// flushDown delivers all queued downlink messages (deliveries may enqueue
// more, e.g. a FocalInfoRequest answer triggering an install broadcast).
func (h *harness) flushDown() {
	for len(h.downQueue) > 0 {
		q := h.downQueue[0]
		h.downQueue = h.downQueue[1:]
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

// install installs a query and completes all resulting message exchange.
func (h *harness) install(focal model.ObjectID, radius float64, filter model.Filter, maxVel float64) model.QueryID {
	qid := h.server.InstallQuery(focal, model.CircleRegion{R: radius}, filter, maxVel)
	h.flushDown()
	return qid
}

// step advances the simulation one tick of the given duration: move, then
// the three client phases with full message delivery between them.
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

// groundTruth computes the exact result of a query by brute force.
func (h *harness) groundTruth(qid model.QueryID) []model.ObjectID {
	q, ok := h.server.Query(qid)
	if !ok {
		return nil
	}
	fi, ok := h.byOID[q.Focal]
	if !ok {
		return nil
	}
	focalPos := h.objs[fi].Pos
	var out []model.ObjectID
	for _, o := range h.objs {
		if !q.Filter.Matches(o.Props) {
			continue
		}
		if q.Region.Contains(focalPos, o.Pos) {
			out = append(out, o.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func idsEqual(a, b []model.ObjectID) bool {
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

// randomizeVelocities re-aims n random objects, like the workload generator.
func (h *harness) randomizeVelocities(rng *rand.Rand, n int) {
	for k := 0; k < n; k++ {
		o := h.objs[rng.Intn(len(h.objs))]
		ang := rng.Float64() * 2 * math.Pi
		speed := rng.Float64() * o.MaxVel
		o.Vel = geo.Vec(speed*math.Cos(ang), speed*math.Sin(ang))
	}
}

// keepInside reflects object velocities at the UoD border so objects stay
// inside during long runs.
func (h *harness) keepInside() {
	u := h.g.UoD()
	for _, o := range h.objs {
		if o.Pos.X < u.LX+1 && o.Vel.X < 0 {
			o.Vel.X = -o.Vel.X
		}
		if o.Pos.X > u.HX-1 && o.Vel.X > 0 {
			o.Vel.X = -o.Vel.X
		}
		if o.Pos.Y < u.LY+1 && o.Vel.Y < 0 {
			o.Vel.Y = -o.Vel.Y
		}
		if o.Pos.Y > u.HY-1 && o.Vel.Y > 0 {
			o.Vel.Y = -o.Vel.Y
		}
	}
}
