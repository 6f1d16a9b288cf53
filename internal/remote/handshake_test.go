package remote

import (
	"bufio"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// These tests cover what an object that is not connected misses and what
// its next handshake delivers: every unicast but a FocalNotify is dropped,
// because the join or Resync that opens the next session re-derives it, and
// the newest FocalNotify is parked for that session.

// gatedListener holds accepted connections while its gate is shut. An
// object redialing then connects at the TCP level and writes its Hello and
// Resync, but the server handshakes it only once the gate opens, so a test
// can keep an object away and release its handshake when it chooses.
type gatedListener struct {
	net.Listener
	mu   sync.Mutex
	gate chan struct{} // closed while the gate is open
}

func (l *gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	l.mu.Lock()
	gate := l.gate
	l.mu.Unlock()
	<-gate
	return c, err
}

func (l *gatedListener) shut() {
	l.mu.Lock()
	select {
	case <-l.gate:
		l.gate = make(chan struct{})
	default:
	}
	l.mu.Unlock()
}

func (l *gatedListener) open() {
	l.mu.Lock()
	select {
	case <-l.gate:
	default:
		close(l.gate)
	}
	l.mu.Unlock()
}

// graceServer serves on a gated loopback listener with the given
// DisconnectGrace, so a dropped object keeps its state while it is away.
func graceServer(t *testing.T, grace time.Duration) (*Server, *gatedListener) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &gatedListener{Listener: inner, gate: make(chan struct{})}
	close(ln.gate)
	s, err := Serve(ServerConfig{UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5, DisconnectGrace: grace}, ln)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	t.Cleanup(ln.open) // runs first: Close waits for the accept loop
	return s, ln
}

// dialReconnecting connects a stationary object that redials and resyncs
// whenever its connection drops.
func dialReconnecting(t *testing.T, s *Server, oid model.ObjectID, pos geo.Point) *Object {
	t.Helper()
	o, err := Dial(ObjectConfig{
		Addr: s.Addr().String(), UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5,
		OID: oid, Pos: pos,
		MaxVel: 100000, Props: model.Props{Key: uint64(oid)},
		TickInterval: 2 * time.Millisecond,
		Reconnect:    true, RedialInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

// hasMQ and lqt read the device's protocol state on its own goroutine.
func (o *Object) hasMQ() (has bool) {
	o.withState(func(*objState) { has = o.client.HasMQ() })
	return has
}

func (o *Object) lqt() (qids []model.QueryID) {
	o.withState(func(*objState) { qids = o.client.InstalledQueries() })
	return qids
}

func (s *Server) connected(oid model.ObjectID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.conns[oid] != nil
}

// dropSession closes oid's session from the server side, as a lost radio
// link would, and waits until the server has unregistered it.
func (s *Server) dropSession(t *testing.T, oid model.ObjectID) {
	t.Helper()
	s.mu.RLock()
	sc := s.conns[oid]
	s.mu.RUnlock()
	if sc == nil {
		t.Fatalf("object %d is not connected", oid)
	}
	sc.conn.Close()
	if !waitFor(t, 3*time.Second, func() bool { return !s.connected(oid) }) {
		t.Fatalf("object %d still registered after its connection closed", oid)
	}
}

func (s *Server) pendingUnicasts() float64 {
	return s.reg.Snapshot()[metricPendingUni].(float64)
}

// rawSession is a device connection driven frame by frame. It discards its
// downlinks, and sync returns once the server has dispatched every frame
// sent before it: the Pong of a Ping follows them.
type rawSession struct {
	conn  net.Conn
	pongs chan uint64
	token uint64
}

func dialRaw(t *testing.T, s *Server, oid model.ObjectID) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := &rawSession{conn: conn, pongs: make(chan uint64, 1)}
	if err := WriteFrame(conn, EncodeHello(oid)); err != nil {
		t.Fatal(err)
	}
	go func() {
		br := bufio.NewReader(conn)
		for {
			payload, err := ReadFrame(br)
			if err != nil {
				return
			}
			if m, _, err := wire.DecodeTraced(payload); err == nil {
				if p, ok := m.(msg.Pong); ok {
					r.pongs <- p.Token
				}
			}
		}
	}()
	return r
}

func (r *rawSession) send(t *testing.T, m msg.Message) {
	t.Helper()
	if err := WriteFrame(r.conn, messageFrame(m)); err != nil {
		t.Fatal(err)
	}
}

func (r *rawSession) sync(t *testing.T) {
	t.Helper()
	r.token++
	r.send(t, msg.Ping{Token: r.token})
	select {
	case tok := <-r.pongs:
		if tok != r.token {
			t.Fatalf("pong %d, want %d", tok, r.token)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no pong")
	}
}

var noCell = grid.CellID{Col: -1, Row: -1}

// TestHandshakeParkedFocalNotifyNotOvertaken: while a focal is away, a burst
// of installs on it each notify it; at its handshake the last query goes,
// racing the delivery of what was parked. The notification the device acts
// on last must be the server's last word: the parked frame is queued to the
// new session before any unicast can reach it. Each round ends only once
// the device's hasMQ agrees with whether the server lists a query on it.
func TestHandshakeParkedFocalNotifyNotOvertaken(t *testing.T) {
	s, ln := graceServer(t, time.Minute)
	const focal, rounds, burst = 1, 12, 60
	o := dialReconnecting(t, s, focal, geo.Pt(50, 50))
	if !waitFor(t, 3*time.Second, func() bool { return s.connected(focal) }) {
		t.Fatal("focal never connected")
	}
	circle := model.CircleRegion{R: 3}
	for round := 0; round < rounds; round++ {
		first := s.InstallQuery(focal, circle, acceptAll, 100000)
		if !waitFor(t, 3*time.Second, o.hasMQ) {
			t.Fatalf("round %d: install never made the device focal", round)
		}
		ln.shut()
		s.dropSession(t, focal)
		qids := make([]model.QueryID, burst)
		for i := range qids {
			qids[i] = s.InstallQuery(focal, circle, acceptAll, 100000)
		}
		s.RemoveQuery(first)
		last := qids[burst-1]
		for _, qid := range qids[:burst-1] {
			s.RemoveQuery(qid)
		}
		ln.open()
		for deadline := time.Now().Add(3 * time.Second); !s.connected(focal); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: focal never reconnected", round)
			}
		}
		s.RemoveQuery(last)
		if !waitFor(t, 3*time.Second, func() bool {
			return s.connected(focal) && s.NumQueries() == 0 && !o.hasMQ()
		}) {
			t.Fatalf("round %d: device hasMQ = %v with %d queries on its focal", round, o.hasMQ(), s.NumQueries())
		}
	}
}

// TestHandshakeInstallBeforeConnect: an install on an object that has never
// connected drops its FocalInfoRequest; the object's join carries the motion
// state that completes the install, and the FocalNotify then reaches it.
func TestHandshakeInstallBeforeConnect(t *testing.T) {
	s := testServer(t)
	const focal = 7
	qid := s.InstallQuery(focal, model.CircleRegion{R: 3}, acceptAll, 100000)
	if n := s.om.droppedUni[msg.KindFocalInfoRequest].Value(); n != 1 {
		t.Errorf("dropped FocalInfoRequests = %d, want 1", n)
	}
	if g := s.pendingUnicasts(); g != 0 {
		t.Errorf("pending unicasts = %v before the object connected, want 0", g)
	}
	o := dialObject(t, s, focal, geo.Pt(50, 50), geo.Vec(0, 0))
	if !waitFor(t, 3*time.Second, func() bool {
		return s.NumQueries() == 1 && o.hasMQ() && slices.Equal(s.Result(qid), []model.ObjectID{focal})
	}) {
		t.Fatalf("after the join: %d queries, device hasMQ = %v, result %v", s.NumQueries(), o.hasMQ(), s.Result(qid))
	}
}

// TestResyncAfterMissedQueryInstalls: a device away while queries are
// installed around it misses their broadcasts and the unicasts its cell
// reports would have earned; its Resync re-derives them, so it ends with
// the same LQT as a twin in the same cell that stayed connected.
func TestResyncAfterMissedQueryInstalls(t *testing.T) {
	s, ln := graceServer(t, time.Minute)
	const n = 5
	pos := geo.Pt(50, 50)
	away := dialReconnecting(t, s, 1, pos)
	twin := dialObject(t, s, 2, geo.Pt(50.5, 50), geo.Vec(0, 0))
	dialObject(t, s, 3, geo.Pt(52, 50), geo.Vec(0, 0))
	mux := dialRaw(t, s, 99)
	if !waitFor(t, 3*time.Second, func() bool { return s.NumConnected() == 4 }) {
		t.Fatalf("%d of 4 connected", s.NumConnected())
	}
	ln.shut()
	s.dropSession(t, 1)
	for i := 0; i < n; i++ {
		s.InstallQuery(3, model.CircleRegion{R: 3 + float64(i)}, acceptAll, 100000)
	}
	if !waitFor(t, 3*time.Second, func() bool { return s.NumQueries() == n }) {
		t.Fatalf("%d of %d queries installed", s.NumQueries(), n)
	}
	// Cell reports for the absent device, carried by another connection as
	// a multiplexing client may: the server answers each with a QueryInstall
	// of the nearby queries, which the device misses.
	before := s.om.droppedUni[msg.KindQueryInstall].Value()
	for i := 0; i < n; i++ {
		mux.send(t, msg.CellChangeReport{OID: 1, PrevCell: noCell, NewCell: s.g.CellOf(pos), Pos: pos, Tm: nowHours()})
	}
	mux.sync(t)
	if got := s.om.droppedUni[msg.KindQueryInstall].Value() - before; got != n {
		t.Errorf("dropped QueryInstalls = %d, want %d", got, n)
	}
	if !waitFor(t, 3*time.Second, func() bool { return len(twin.lqt()) == n }) {
		t.Fatalf("twin LQT = %v, want %d queries", twin.lqt(), n)
	}
	if q := away.lqt(); len(q) != 0 {
		t.Fatalf("absent device LQT = %v before its Resync", q)
	}
	ln.open()
	if !waitFor(t, 3*time.Second, func() bool { return slices.Equal(away.lqt(), twin.lqt()) }) {
		t.Fatalf("after Resync: LQT %v, twin %v", away.lqt(), twin.lqt())
	}
}

// TestParkedFocalNotifyReachesReconnect: removing an away focal's last
// query parks its FocalNotify, the one thing its Resync cannot re-derive;
// the next session delivers it, so the device stops acting focal.
func TestParkedFocalNotifyReachesReconnect(t *testing.T) {
	s, ln := graceServer(t, time.Minute)
	o := dialReconnecting(t, s, 1, geo.Pt(50, 50))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, o.hasMQ) {
		t.Fatal("install never made the device focal")
	}
	ln.shut()
	s.dropSession(t, 1)
	s.RemoveQuery(qid)
	if g := s.pendingUnicasts(); g != 1 {
		t.Errorf("pending unicasts = %v during the grace window, want 1", g)
	}
	ln.open()
	if !waitFor(t, 3*time.Second, func() bool { return s.connected(1) && !o.hasMQ() }) {
		t.Fatalf("after reconnect: connected %v, device hasMQ = %v", s.connected(1), o.hasMQ())
	}
	if g := s.pendingUnicasts(); g != 0 {
		t.Errorf("pending unicasts = %v after the handshake, want 0", g)
	}
}

// TestAbsentUnicastsBoundedByFocals: unicasts of every kind to a thousand
// objects that are not connected leave at most one parked frame per focal
// among them, and none once the grace departures of the focals fire.
func TestAbsentUnicastsBoundedByFocals(t *testing.T) {
	const grace = 3 * time.Second
	s, _ := graceServer(t, grace)
	const objects, focals = 1000, 100
	// Every focal had a session that vanished, so it departs once the grace
	// period lapses.
	for oid := model.ObjectID(1); oid <= focals; oid++ {
		r := dialRaw(t, s, oid)
		r.sync(t)
		r.conn.Close()
	}
	closed := time.Now()
	if !waitFor(t, grace, func() bool { return s.NumConnected() == 0 }) {
		t.Fatalf("%d sessions still registered", s.NumConnected())
	}
	mux := dialRaw(t, s, objects+1)
	for oid := model.ObjectID(1); oid <= focals; oid++ {
		s.InstallQuery(oid, model.CircleRegion{R: 3}, acceptAll, 100000)
	}
	// Each join, carried by the multiplexing connection, earns its object a
	// QueryInstall and completes the pending install of a focal, which
	// notifies it.
	for oid := model.ObjectID(1); oid <= objects; oid++ {
		pos := geo.Pt(30+float64(oid%40), 30+float64(oid/40))
		mux.send(t, msg.CellChangeReport{OID: oid, PrevCell: noCell, NewCell: s.g.CellOf(pos), Pos: pos, Tm: nowHours()})
	}
	mux.sync(t)
	if n := s.NumQueries(); n != focals {
		t.Fatalf("%d queries installed, want %d", n, focals)
	}
	for _, k := range []msg.Kind{msg.KindFocalInfoRequest, msg.KindQueryInstall} {
		if s.om.droppedUni[k].Value() == 0 {
			t.Errorf("no %v dropped", k)
		}
	}
	g := s.pendingUnicasts()
	if g > focals {
		t.Errorf("pending unicasts = %v, more than the %d focals", g, focals)
	}
	if g == 0 && time.Since(closed) < grace {
		t.Error("no FocalNotify parked for the absent focals")
	}
	if !waitFor(t, grace+3*time.Second, func() bool { return s.pendingUnicasts() == 0 && s.NumQueries() == 0 }) {
		t.Fatalf("after the grace departures: pending unicasts = %v, %d queries", s.pendingUnicasts(), s.NumQueries())
	}
}
