package simtest

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/remote"
	"mobieyes/internal/wire"
	"mobieyes/internal/workload"
)

// pipeListener is an in-memory net.Listener fed by dial(): each accepted
// connection is one end of a net.Pipe, so the remote server runs its real
// accept/serve/outbox machinery with no sockets and no timing dependence.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// remoteClient is the harness-driven device side of one connection: a real
// core.Client whose uplink writes wire frames, a reader goroutine decoding
// downlink frames into a mailbox, and a pong channel for the barrier.
type remoteClient struct {
	oid    model.ObjectID
	client *core.Client

	conn       net.Conn // current client-side end; swapped on reconnect
	readerDone chan struct{}

	mu   sync.Mutex
	mail []remoteMail

	pongs chan uint64
	dead  bool // connection killed or object departed

	// curTID is the trace ID of the downlink being delivered (set by the
	// settle loop, which is the only goroutine calling OnDownlink), stamped
	// onto response uplinks so traces chain across the pipe.
	curTID uint64
}

// remoteMail is one decoded downlink plus its frame's trace ID.
type remoteMail struct {
	m   msg.Message
	tid uint64
}

func (rc *remoteClient) takeMail() []remoteMail {
	rc.mu.Lock()
	m := rc.mail
	rc.mail = nil
	rc.mu.Unlock()
	return m
}

// remoteClientUp is the client's uplink. Write errors are ignored: a dead
// connection means the frame is lost, exactly the device-offline semantics
// the resync protocol exists to heal.
type remoteClientUp struct{ rc *remoteClient }

func (u remoteClientUp) Send(m msg.Message) {
	_ = remote.WriteFrame(u.rc.conn, wire.EncodeTraced(m, u.rc.curTID))
}

// remoteSystem drives the internal/remote server over in-memory pipes.
// Determinism comes from quiescence, not timing: after every burst of
// traffic the harness runs a two-round Ping/Pong barrier per connection
// (round one confirms the server dispatched all prior uplinks — uplink
// handling is synchronous, so their downlinks are already queued in the
// outboxes; round two confirms the FIFO outboxes drained to the readers)
// and loops delivering mailbox contents until a barrier turns up nothing.
type remoteSystem struct {
	label  string
	g      *grid.Grid
	opts   core.Options
	srv    *remote.Server
	ln     *pipeListener
	objs   []*model.MovingObject
	conns  []*remoteClient // index = oid-1
	active map[model.ObjectID]bool
	now    model.Time
	tokens atomic.Uint64
	faults *faultInjector // nil when the scenario is fault-free
	rec    *trace.Recorder
}

// settleTimeout bounds every pong wait; exceeding it is reported as a
// suspected deadlock.
const settleTimeout = 10 * time.Second

func newRemoteSystem(label string, uod geo.Rect, alpha float64, opts core.Options, objs []*model.MovingObject, nodes int, plan *FaultPlan, traced bool) *remoteSystem {
	rs := &remoteSystem{
		label:  label,
		g:      grid.New(uod, alpha),
		opts:   opts,
		ln:     newPipeListener(),
		objs:   objs,
		conns:  make([]*remoteClient, len(objs)),
		active: make(map[model.ObjectID]bool),
	}
	if plan != nil {
		rs.faults = newFaultInjector(*plan)
	}
	if traced {
		rs.rec = trace.NewRecorder(trace.DefaultSize)
	}
	// An in-process router cannot fail to build; the error path exists
	// only for factories that dial worker processes.
	rs.srv, _ = remote.Serve(remote.ServerConfig{
		UoD:     uod,
		Alpha:   alpha,
		Options: opts,
		Backend: func(g *grid.Grid, opts core.Options, down core.Downlink) (*core.ClusterServer, error) {
			return core.NewClusterServer(g, opts, down, nodes), nil
		},
		Trace: rs.rec,
		// Killed connections must not depart their objects: the harness
		// reconnects them within the scenario, never after a minute.
		DisconnectGrace: time.Minute,
	}, rs.ln)
	return rs
}

func (rs *remoteSystem) name() string { return rs.label }

func (rs *remoteSystem) tracer() *trace.Recorder { return rs.rec }

// dial opens one connection (through the fault relay when configured) and
// performs the hello handshake.
func (rs *remoteSystem) dial(oid model.ObjectID) (net.Conn, error) {
	var cli, srv net.Conn
	if rs.faults != nil {
		cli, srv = rs.faults.pipe()
	} else {
		cli, srv = net.Pipe()
	}
	select {
	case rs.ln.ch <- srv:
	case <-time.After(settleTimeout):
		return nil, fmt.Errorf("%s: server stopped accepting", rs.label)
	}
	if err := remote.WriteFrame(cli, remote.EncodeHello(oid)); err != nil {
		return nil, fmt.Errorf("%s: hello for object %d: %w", rs.label, oid, err)
	}
	return cli, nil
}

// readLoop decodes downlink frames for one connection generation. Pongs
// route to the barrier channel; everything else queues for delivery at the
// next settle.
func (rs *remoteSystem) readLoop(rc *remoteClient, conn net.Conn, done chan struct{}) {
	defer close(done)
	br := bufio.NewReader(conn)
	for {
		payload, err := remote.ReadFrame(br)
		if err != nil {
			return
		}
		m, tid, err := wire.DecodeTraced(payload)
		if err != nil {
			return
		}
		if pong, ok := m.(msg.Pong); ok {
			select {
			case rc.pongs <- pong.Token:
			default: // overflow: the barrier will time out and report it
			}
			continue
		}
		rc.mu.Lock()
		rc.mail = append(rc.mail, remoteMail{m: m, tid: tid})
		rc.mu.Unlock()
	}
}

func (rs *remoteSystem) join(o *model.MovingObject, now model.Time) error {
	rs.now = now
	conn, err := rs.dial(o.ID)
	if err != nil {
		return err
	}
	rc := &remoteClient{
		oid:        o.ID,
		conn:       conn,
		readerDone: make(chan struct{}),
		pongs:      make(chan uint64, 64),
	}
	rc.client = core.NewClient(rs.g, rs.opts, remoteClientUp{rc}, o.ID, o.Props, o.MaxVel, o.Pos)
	rs.conns[int(o.ID)-1] = rc
	rs.active[o.ID] = true
	go rs.readLoop(rc, conn, rc.readerDone)
	rc.client.Join(o.Pos, o.Vel, now)
	return rs.settle()
}

func (rs *remoteSystem) depart(oid model.ObjectID, now model.Time) error {
	rs.now = now
	rc := rs.conns[int(oid)-1]
	rc.client.Depart()
	// The server closes the connection after dispatching the departure, so
	// the reader's exit doubles as the processed-acknowledgement.
	select {
	case <-rc.readerDone:
	case <-time.After(settleTimeout):
		return fmt.Errorf("%s: departure of object %d not acknowledged", rs.label, oid)
	}
	rc.dead = true
	rs.active[oid] = false
	rc.conn.Close()
	return rs.settle()
}

func (rs *remoteSystem) install(spec workload.QuerySpec, maxVel float64, now model.Time) (model.QueryID, error) {
	rs.now = now
	qid := rs.srv.InstallQuery(spec.Focal, model.CircleRegion{R: spec.Radius}, spec.Filter, maxVel)
	return qid, rs.settle()
}

func (rs *remoteSystem) installUntil(spec workload.QuerySpec, maxVel float64, expiry, now model.Time) (model.QueryID, error) {
	rs.now = now
	qid := rs.srv.InstallQueryUntil(spec.Focal, model.CircleRegion{R: spec.Radius}, spec.Filter, maxVel, expiry)
	return qid, rs.settle()
}

func (rs *remoteSystem) remove(qid model.QueryID, now model.Time) error {
	rs.now = now
	rs.srv.RemoveQuery(qid)
	return rs.settle()
}

// expire is a no-op: the remote server's expiry sweep runs on the wall
// clock, so scenarios that include remote engines exclude expiry ops
// (GenConfig.AllowExpiry).
func (rs *remoteSystem) expire(model.Time) error { return nil }

func (rs *remoteSystem) step(now model.Time) error {
	rs.now = now
	phases := []func(rc *remoteClient, o *model.MovingObject){
		func(rc *remoteClient, o *model.MovingObject) { rc.client.TickCellChange(o.Pos, o.Vel, now) },
		func(rc *remoteClient, o *model.MovingObject) { rc.client.TickDeadReckoning(o.Pos, o.Vel, now) },
		func(rc *remoteClient, o *model.MovingObject) { rc.client.TickEvaluate(o.Pos, o.Vel, now) },
	}
	for _, phase := range phases {
		for i, rc := range rs.conns {
			if rc == nil || !rs.active[model.ObjectID(i+1)] {
				continue
			}
			// Dead (killed, not yet reconnected) devices keep ticking —
			// the device works, the network doesn't — and their uplinks
			// are lost, which Resync later repairs.
			phase(rc, rs.objs[i])
		}
		if err := rs.settle(); err != nil {
			return err
		}
	}
	return nil
}

// settle drives the system to quiescence: barrier, deliver all queued
// downlinks, repeat until a barrier yields no new mail. The round cap and
// the barrier timeout turn protocol livelocks and deadlocks into test
// failures instead of hangs.
func (rs *remoteSystem) settle() error {
	for round := 0; ; round++ {
		if round > 200 {
			return fmt.Errorf("%s: settle did not quiesce after %d rounds", rs.label, round)
		}
		if err := rs.barrier(); err != nil {
			return err
		}
		delivered := false
		for i, rc := range rs.conns {
			if rc == nil || rc.dead || !rs.active[model.ObjectID(i+1)] {
				continue
			}
			for _, in := range rc.takeMail() {
				o := rs.objs[i]
				rc.curTID = in.tid
				rc.client.OnDownlink(in.m, o.Pos, o.Vel, rs.now)
				rc.curTID = 0
				delivered = true
			}
		}
		if !delivered {
			return nil
		}
	}
}

// barrier runs the two Ping/Pong rounds over every live connection.
func (rs *remoteSystem) barrier() error {
	for round := 0; round < 2; round++ {
		type pending struct {
			rc    *remoteClient
			token uint64
		}
		var waits []pending
		for _, rc := range rs.conns {
			if rc == nil || rc.dead {
				continue
			}
			token := rs.tokens.Add(1)
			if err := remote.WriteFrame(rc.conn, wire.Encode(msg.Ping{Token: token})); err != nil {
				return fmt.Errorf("%s: ping to object %d: %w", rs.label, rc.oid, err)
			}
			waits = append(waits, pending{rc, token})
		}
		deadline := time.After(settleTimeout)
		for _, w := range waits {
			for {
				select {
				case got := <-w.rc.pongs:
					if got == w.token {
						// Stale pongs from before are drained and ignored.
					} else {
						continue
					}
				case <-deadline:
					return fmt.Errorf("%s: no pong from object %d within %v (deadlock?)", rs.label, w.rc.oid, settleTimeout)
				}
				break
			}
		}
	}
	return nil
}

// kill severs an object's connection mid fault window. The device's state
// survives; its traffic is lost until reconnect.
func (rs *remoteSystem) kill(oid model.ObjectID) {
	rc := rs.conns[int(oid)-1]
	if rc == nil || rc.dead || !rs.active[oid] {
		return
	}
	rc.dead = true
	rc.conn.Close()
	rc.takeMail() // in-flight downlinks died with the link
}

// reconnect re-establishes a killed object's connection and resyncs its
// client state with the server, mirroring remote.Object's redial path.
func (rs *remoteSystem) reconnect(oid model.ObjectID, now model.Time) error {
	rc := rs.conns[int(oid)-1]
	if rc == nil || !rc.dead || !rs.active[oid] {
		return nil
	}
	conn, err := rs.dial(oid)
	if err != nil {
		return err
	}
	rc.conn = conn
	rc.readerDone = make(chan struct{})
	rc.dead = false
	go rs.readLoop(rc, conn, rc.readerDone)
	o := rs.objs[int(oid)-1]
	rc.client.Resync(o.Pos, o.Vel, now)
	return nil
}

// heal runs when the fault window closes: reconnect every killed object,
// then resync every client so state lost to dropped frames is re-reported,
// and settle. The oracle stays weakened for ConvergeSteps more ops while
// results re-converge.
func (rs *remoteSystem) heal(now model.Time) error {
	rs.now = now
	for i, rc := range rs.conns {
		oid := model.ObjectID(i + 1)
		if rc == nil || !rs.active[oid] {
			continue
		}
		if rc.dead {
			if err := rs.reconnect(oid, now); err != nil {
				return err
			}
			continue
		}
		o := rs.objs[i]
		rc.client.Resync(o.Pos, o.Vel, now)
	}
	return rs.settle()
}

func (rs *remoteSystem) queryIDs() []model.QueryID {
	ids := rs.srv.QueryIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (rs *remoteSystem) result(qid model.QueryID) []model.ObjectID { return rs.srv.Result(qid) }

func (rs *remoteSystem) invariants() error { return rs.srv.CheckInvariants() }

func (rs *remoteSystem) snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := rs.srv.Snapshot(&buf); err != nil {
		return nil, fmt.Errorf("%s: snapshot: %w", rs.label, err)
	}
	return buf.Bytes(), nil
}

func (rs *remoteSystem) close() { rs.srv.Close() }
