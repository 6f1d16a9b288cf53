package remote

import (
	"bufio"
	"net"
	"sync"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// ObjectConfig configures one moving-object node.
type ObjectConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// UoD, Alpha and Options must match the server's configuration (in a
	// real deployment they would be provisioned together).
	UoD     geo.Rect
	Alpha   float64
	Options core.Options

	OID    model.ObjectID
	Pos    geo.Point
	Vel    geo.Vector
	MaxVel float64
	Props  model.Props

	// TickInterval is the device's local processing period (cell-change
	// detection, dead reckoning, query evaluation). Default 100 ms.
	TickInterval time.Duration

	// Reconnect makes the object redial after losing its connection and
	// resync its state with the server (core.Client.Resync) instead of
	// going silent. RedialInterval is the wait between failed attempts
	// (default 50 ms). Pair with the server's DisconnectGrace so the
	// transient drop does not tear down the object's focal queries.
	Reconnect      bool
	RedialInterval time.Duration
}

// Object is a moving object participating in a remote MobiEyes deployment:
// it integrates its own position, runs the core.Client protocol logic, and
// exchanges wire frames with the server over TCP.
type Object struct {
	cfg    ObjectConfig
	conn   net.Conn
	client *core.Client

	ctrl chan func(*objState)
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mail *objMailbox

	// curTID is the trace ID of the downlink being processed, stamped onto
	// any uplinks the client sends in response so the server can chain the
	// causality across the round trip. Owned by the device goroutine.
	curTID uint64
	// wbuf is the device goroutine's framing buffer (writeFrame).
	wbuf []byte
}

// objState is the goroutine-owned mutable state.
type objState struct {
	pos   geo.Point
	vel   geo.Vector
	lastT model.Time
}

// objMailbox queues decoded downlink messages without blocking the reader.
type objMailbox struct {
	mu     sync.Mutex
	queue  []interface{}
	signal chan struct{}
}

func (mb *objMailbox) put(v interface{}) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, v)
	mb.mu.Unlock()
	select {
	case mb.signal <- struct{}{}:
	default:
	}
}

func (mb *objMailbox) drain() []interface{} {
	mb.mu.Lock()
	q := mb.queue
	mb.queue = nil
	mb.mu.Unlock()
	return q
}

// Dial connects a moving object to the server and starts its device loop.
func Dial(cfg ObjectConfig) (*Object, error) {
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 100 * time.Millisecond
	}
	if cfg.RedialInterval == 0 {
		cfg.RedialInterval = 50 * time.Millisecond
	}
	conn, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	o := &Object{
		cfg:  cfg,
		conn: conn,
		ctrl: make(chan func(*objState), 16),
		done: make(chan struct{}),
		mail: &objMailbox{signal: make(chan struct{}, 1)},
	}
	if err := o.writeFrame(conn, EncodeHello(cfg.OID)); err != nil {
		conn.Close()
		return nil, err
	}
	g := grid.New(cfg.UoD, cfg.Alpha)
	o.client = core.NewClient(g, cfg.Options, objUplink{o}, cfg.OID, cfg.Props, cfg.MaxVel, cfg.Pos)

	o.wg.Add(2)
	go o.readLoop(conn)
	go o.deviceLoop()
	return o, nil
}

// objUplink sends client messages as wire frames, carrying the trace ID of
// the downlink that provoked them (zero for tick-driven uplinks, which start
// fresh traces at the server).
type objUplink struct{ o *Object }

func (u objUplink) Send(m msg.Message) {
	// Write errors surface on the read side as a disconnect; the device
	// keeps functioning locally.
	_ = u.o.writeFrame(u.o.conn, wire.EncodeTraced(m, u.o.curTID))
}

// writeFrame frames payload into the device's scratch buffer and writes it
// to conn in one call. Only the device goroutine writes (Dial before it
// starts), so the buffer needs no lock.
func (o *Object) writeFrame(conn net.Conn, payload []byte) error {
	buf, err := AppendFrame(o.wbuf[:0], payload)
	if err != nil {
		return err
	}
	o.wbuf = buf
	_, err = conn.Write(buf)
	return err
}

// connLost is the mailbox sentinel a dying read loop leaves behind so the
// device loop knows to redial.
type connLost struct{}

// inbound is one decoded downlink message plus its frame's trace ID.
type inbound struct {
	m   msg.Message
	tid uint64
}

// readLoop decodes downlink frames into the mailbox. On a read or decode
// error the loop exits; with Reconnect enabled it first posts a connLost
// sentinel so the device loop redials.
func (o *Object) readLoop(conn net.Conn) {
	defer o.wg.Done()
	br := bufio.NewReader(conn)
	for {
		payload, err := ReadFrame(br)
		if err != nil {
			break // disconnected
		}
		m, tid, err := wire.DecodeTraced(payload)
		if err != nil {
			break
		}
		o.mail.put(inbound{m: m, tid: tid})
	}
	if o.cfg.Reconnect {
		select {
		case <-o.done:
		default:
			o.mail.put(connLost{})
		}
	}
}

// deviceLoop is the object's "firmware": integrate position, process
// downlink messages, and run the protocol ticks.
func (o *Object) deviceLoop() {
	defer o.wg.Done()
	st := &objState{pos: o.cfg.Pos, vel: o.cfg.Vel, lastT: nowHours()}

	advance := func() {
		now := nowHours()
		st.pos = st.pos.Add(st.vel, float64(now-st.lastT))
		st.lastT = now
	}

	// Announce arrival so standing queries reach us.
	o.client.Join(st.pos, st.vel, st.lastT)

	ticker := time.NewTicker(o.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-o.done:
			advance()
			o.client.Depart()
			// Closing the connection unblocks the read loop.
			o.conn.Close()
			return
		case <-o.mail.signal:
			for _, v := range o.mail.drain() {
				if _, lost := v.(connLost); lost {
					o.redial(st)
					continue
				}
				advance()
				in := v.(inbound)
				o.curTID = in.tid
				o.client.OnDownlink(in.m, st.pos, st.vel, st.lastT)
				o.curTID = 0
			}
		case fn := <-o.ctrl:
			fn(st)
		case <-ticker.C:
			advance()
			o.client.TickCellChange(st.pos, st.vel, st.lastT)
			o.client.TickDeadReckoning(st.pos, st.vel, st.lastT)
			o.client.TickEvaluate(st.pos, st.vel, st.lastT)
		}
	}
}

// redial re-establishes the connection after a drop and resyncs the
// client's state with the server. Runs on the device goroutine (the only
// writer of o.conn), so uplinks never race the swap; the device is simply
// offline until the redial succeeds or Close aborts it.
func (o *Object) redial(st *objState) {
	o.conn.Close()
	for {
		select {
		case <-o.done:
			return
		default:
		}
		conn, err := net.Dial("tcp", o.cfg.Addr)
		if err == nil {
			if err = o.writeFrame(conn, EncodeHello(o.cfg.OID)); err == nil {
				o.conn = conn
				o.wg.Add(1)
				go o.readLoop(conn)
				now := nowHours()
				st.pos = st.pos.Add(st.vel, float64(now-st.lastT))
				st.lastT = now
				o.client.Resync(st.pos, st.vel, st.lastT)
				return
			}
			conn.Close()
		}
		select {
		case <-o.done:
			return
		case <-time.After(o.cfg.RedialInterval):
		}
	}
}

// withState runs fn on the device goroutine and waits.
func (o *Object) withState(fn func(*objState)) bool {
	doneCh := make(chan struct{})
	select {
	case o.ctrl <- func(st *objState) {
		fn(st)
		close(doneCh)
	}:
	case <-o.done:
		return false
	}
	select {
	case <-doneCh:
		return true
	case <-o.done:
		return false
	}
}

// SetVelocity changes the object's velocity vector.
func (o *Object) SetVelocity(vel geo.Vector) {
	o.withState(func(st *objState) {
		now := nowHours()
		st.pos = st.pos.Add(st.vel, float64(now-st.lastT))
		st.lastT = now
		st.vel = vel
	})
}

// Position returns the object's current position.
func (o *Object) Position() geo.Point {
	var p geo.Point
	o.withState(func(st *objState) {
		p = st.pos.Add(st.vel, float64(nowHours()-st.lastT))
	})
	return p
}

// Close departs cleanly: a departure report is sent, then the connection
// closes.
func (o *Object) Close() {
	o.once.Do(func() {
		close(o.done)
		o.wg.Wait()
	})
}
