package simtest

import (
	"bytes"
	"fmt"
	"sort"

	"mobieyes/internal/core"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/workload"
)

// system is one engine under test. All three (serial, router, remote) are
// driven through this interface by the runner, with the shared workload
// objects as the single source of positional truth.
// Local implementations cannot fail mid-operation; the remote one can
// (settle timeout = suspected deadlock), hence the error returns.
type system interface {
	name() string
	join(o *model.MovingObject, now model.Time) error
	depart(oid model.ObjectID, now model.Time) error
	install(spec workload.QuerySpec, maxVel float64, now model.Time) (model.QueryID, error)
	installUntil(spec workload.QuerySpec, maxVel float64, expiry, now model.Time) (model.QueryID, error)
	remove(qid model.QueryID, now model.Time) error
	expire(now model.Time) error
	step(now model.Time) error
	queryIDs() []model.QueryID
	result(qid model.QueryID) []model.ObjectID
	invariants() error
	snapshot() ([]byte, error)
	close()
}

// localSystem drives a core.Server or the core.ClusterServer router with
// in-process clients and queued FIFO message delivery — the
// internal/core test-harness idiom. Broadcasts reach every active object
// (one giant base station); clients self-filter by monitoring region, which
// is the protocol behavior under test.
type localSystem struct {
	label   string
	g       *grid.Grid
	opts    core.Options
	srv     core.ServerAPI
	objs    []*model.MovingObject // shared world; index = oid-1
	clients []*core.Client        // parallel to objs
	active  map[model.ObjectID]bool
	queue   []queuedDown
	now     model.Time

	// dropNthBroadcast is the deliberate-bug hook the acceptance test uses:
	// every Nth broadcast vanishes, so the engine silently skips part of a
	// monitoring-region update. The differential oracle must catch this.
	dropNthBroadcast int
	broadcasts       int

	// rec is the flight recorder of a traced run (Scenario.Trace); nil
	// otherwise. deliverTID is the trace ID of the downlink currently being
	// delivered, so client responses continue the causing trace.
	rec        *trace.Recorder
	deliverTID trace.ID

	// acct is this system's cost accountant (Scenario.Costs); nil otherwise.
	// traffic is its global ledger, or a private one without it. Uplinks
	// and downlinks are charged there at the queued transport, so two
	// systems running the same schedule must produce identical global
	// ledgers — the ledger oracle.
	acct    *cost.Accountant
	traffic *cost.Ledger
}

type queuedDown struct {
	target model.ObjectID // -1 for broadcast
	m      msg.Message
	tid    trace.ID
}

// newLocalSystem builds a local engine over the shared object population:
// the router over nodes in-process worker nodes (core.NewClusterServer), or
// the serial core.Server for nodes == 0. traced attaches a per-system flight
// recorder so oracle failures can print the causal timeline of the
// divergence.
func newLocalSystem(label string, g *grid.Grid, opts core.Options, objs []*model.MovingObject, nodes, dropNth int, traced bool) *localSystem {
	return newLocalSystemOver(label, g, opts, objs, dropNth, traced, func(down core.Downlink) core.ServerAPI {
		if nodes > 0 {
			return core.NewClusterServer(g, opts, down, nodes)
		}
		return core.NewServer(g, opts, down)
	})
}

// newLocalSystemOver is newLocalSystem around the server newServer returns.
func newLocalSystemOver(label string, g *grid.Grid, opts core.Options, objs []*model.MovingObject, dropNth int, traced bool, newServer func(core.Downlink) core.ServerAPI) *localSystem {
	ls := &localSystem{
		label:            label,
		g:                g,
		opts:             opts,
		objs:             objs,
		clients:          make([]*core.Client, len(objs)),
		active:           make(map[model.ObjectID]bool),
		traffic:          new(cost.Ledger),
		dropNthBroadcast: dropNth,
	}
	ls.srv = newServer(localDown{ls})
	if traced {
		ls.rec = trace.NewRecorder(trace.DefaultSize)
		ls.srv.SetTracer(ls.rec)
	}
	return ls
}

// attachCosts wires a cost accountant into the system: the server (and its
// nodes) for per-entity and per-node attribution, the transport for
// global ledger charges, and every client — present and future (join
// attaches fresh clients) — for compute units. Call before the first join.
func (ls *localSystem) attachCosts(a *cost.Accountant) {
	ls.acct = a
	ls.traffic = a.Traffic()
	ls.srv.SetAccountant(a)
}

func (ls *localSystem) tracer() *trace.Recorder { return ls.rec }

func (ls *localSystem) name() string { return ls.label }

// localDown queues each send for flush, so it keeps msg.Retain of the lent
// message.
type localDown struct{ ls *localSystem }

var _ core.TracedDownlink = localDown{}

func (d localDown) Broadcast(region grid.CellRange, m msg.Message) {
	d.BroadcastTraced(region, m, 0)
}

func (d localDown) BroadcastTraced(region grid.CellRange, m msg.Message, tid trace.ID) {
	d.ls.broadcasts++
	if n := d.ls.dropNthBroadcast; n > 0 && d.ls.broadcasts%n == 0 {
		// Injected bug: this monitoring-region update is never sent. A traced
		// run records the loss, so the dumped timeline of the divergent query
		// shows exactly which message vanished.
		if d.ls.rec != nil {
			oid, qid := core.TraceRef(m)
			d.ls.rec.Event(tid, trace.KindDrop, d.ls.label, oid, qid, m.Kind().String()+" (injected fault)")
		}
		return
	}
	d.ls.traffic.ChargeDownlink(m.Kind(), m.Size(), 1)
	d.ls.queue = append(d.ls.queue, queuedDown{target: -1, m: msg.Retain(m), tid: tid})
}

func (d localDown) Unicast(oid model.ObjectID, m msg.Message) {
	d.UnicastTraced(oid, m, 0)
}

func (d localDown) UnicastTraced(oid model.ObjectID, m msg.Message, tid trace.ID) {
	d.ls.traffic.ChargeDownlink(m.Kind(), m.Size(), 1)
	d.ls.queue = append(d.ls.queue, queuedDown{target: oid, m: msg.Retain(m), tid: tid})
}

// flush delivers queued downlinks in FIFO order until quiescent;
// deliveries may enqueue more (e.g. a FocalInfoResponse completing an
// install, which broadcasts the query). Messages to departed objects are
// dropped: their device is gone.
func (ls *localSystem) flush() {
	for len(ls.queue) > 0 {
		q := ls.queue[0]
		ls.queue = ls.queue[1:]
		ls.deliverTID = q.tid
		if q.target >= 0 {
			if !ls.active[q.target] {
				continue
			}
			i := int(q.target) - 1
			ls.clients[i].OnDownlink(q.m, ls.objs[i].Pos, ls.objs[i].Vel, ls.now)
			continue
		}
		for i, c := range ls.clients {
			if c == nil || !ls.active[model.ObjectID(i+1)] {
				continue
			}
			c.OnDownlink(q.m, ls.objs[i].Pos, ls.objs[i].Vel, ls.now)
		}
	}
	ls.deliverTID = 0
}

func (ls *localSystem) join(o *model.MovingObject, now model.Time) error {
	ls.now = now
	i := int(o.ID) - 1
	// A fresh Client on every (re)join: the device that left is gone and a
	// new one arrives, exactly as in the remote deployment.
	ls.clients[i] = core.NewClient(ls.g, ls.opts, localUp{ls}, o.ID, o.Props, o.MaxVel, o.Pos)
	ls.clients[i].SetAccountant(ls.acct)
	ls.active[o.ID] = true
	ls.clients[i].Join(o.Pos, o.Vel, now)
	ls.flush()
	return nil
}

func (ls *localSystem) depart(oid model.ObjectID, now model.Time) error {
	ls.now = now
	ls.clients[int(oid)-1].Depart()
	ls.active[oid] = false
	ls.flush()
	return nil
}

type localUp struct{ ls *localSystem }

func (u localUp) Send(m msg.Message) {
	u.ls.traffic.ChargeUplink(m.Kind(), m.Size())
	u.ls.srv.HandleUplinkTraced(m, u.ls.deliverTID)
}

func (ls *localSystem) install(spec workload.QuerySpec, maxVel float64, now model.Time) (model.QueryID, error) {
	ls.now = now
	qid := ls.srv.InstallQuery(spec.Focal, model.CircleRegion{R: spec.Radius}, spec.Filter, maxVel)
	ls.flush()
	return qid, nil
}

func (ls *localSystem) installUntil(spec workload.QuerySpec, maxVel float64, expiry, now model.Time) (model.QueryID, error) {
	ls.now = now
	qid := ls.srv.InstallQueryUntil(spec.Focal, model.CircleRegion{R: spec.Radius}, spec.Filter, maxVel, expiry)
	ls.flush()
	return qid, nil
}

func (ls *localSystem) remove(qid model.QueryID, now model.Time) error {
	ls.now = now
	ls.srv.RemoveQuery(qid)
	ls.flush()
	return nil
}

func (ls *localSystem) expire(now model.Time) error {
	ls.now = now
	ls.srv.ExpireQueries(now)
	ls.flush()
	return nil
}

// step runs the three client protocol phases with full message delivery
// between them. The world itself (object positions) has already been
// advanced by the runner.
func (ls *localSystem) step(now model.Time) error {
	ls.now = now
	ls.eachActive(func(i int, c *core.Client) { c.TickCellChange(ls.objs[i].Pos, ls.objs[i].Vel, now) })
	ls.flush()
	ls.eachActive(func(i int, c *core.Client) { c.TickDeadReckoning(ls.objs[i].Pos, ls.objs[i].Vel, now) })
	ls.flush()
	ls.eachActive(func(i int, c *core.Client) { c.TickEvaluate(ls.objs[i].Pos, ls.objs[i].Vel, now) })
	ls.flush()
	return nil
}

func (ls *localSystem) eachActive(fn func(i int, c *core.Client)) {
	for i, c := range ls.clients {
		if c == nil || !ls.active[model.ObjectID(i+1)] {
			continue
		}
		fn(i, c)
	}
}

func (ls *localSystem) queryIDs() []model.QueryID {
	ids := ls.srv.QueryIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (ls *localSystem) result(qid model.QueryID) []model.ObjectID { return ls.srv.Result(qid) }

func (ls *localSystem) invariants() error { return ls.srv.CheckInvariants() }

func (ls *localSystem) snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := ls.srv.Snapshot(&buf); err != nil {
		return nil, fmt.Errorf("%s: snapshot: %w", ls.label, err)
	}
	return buf.Bytes(), nil
}

func (ls *localSystem) close() {}
