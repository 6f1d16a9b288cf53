package remote

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/history"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/stream"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/wire"
)

// ServerConfig configures a network MobiEyes server.
type ServerConfig struct {
	// Addr is the TCP listen address, e.g. ":7070" or "127.0.0.1:0".
	Addr string
	// UoD and Alpha define the grid, exactly as in the simulation.
	UoD   geo.Rect
	Alpha float64
	// Options selects the protocol variant.
	Options core.Options
	// Deprecated: Shards is ignored; the built-in backend is the router
	// over one in-process node (DESIGN.md §13).
	Shards int
	// Backend, when non-nil, builds the router over the server's grid and
	// downlink in place of the built-in one: the hook the cluster-router
	// entrypoint uses to route over TCP worker processes (internal/cluster).
	Backend func(g *grid.Grid, opts core.Options, down core.Downlink) (*core.ClusterServer, error)
	// Metrics is the registry transport and backend metrics attach to,
	// typically shared with an obs.HTTPServer. Nil means the server keeps
	// a private registry, still reachable via Metrics() and the admin
	// STATS command.
	Metrics *obs.Registry
	// Trace is the flight recorder the backend records causal events into
	// (see internal/obs/trace and DESIGN.md §11). Uplink frames carrying a
	// trace ID continue that trace; downlink frames carry the causing trace
	// ID back to the object. Nil disables tracing (the default) — the
	// disabled path costs a single nil check per event site.
	Trace *trace.Recorder
	// Costs is the cost accountant the server attributes protocol traffic
	// and backend work to (see internal/obs/cost and DESIGN.md §12): the
	// transport charges every protocol frame at the codec boundary with its
	// true on-the-wire size (length prefix included), and the backend
	// charges per-node dispatch, per-entity traffic, and compute units.
	// The server Configures it at startup (no base stations — the TCP
	// fabric has no lattice) and exposes it via Costs() and the admin COSTS
	// command. Nil disables accounting (the default).
	Costs *cost.Accountant
	// Stream, when non-nil, is the live result gateway's fan-out tap
	// (internal/obs/stream, DESIGN.md §17): the server installs a result
	// listener that publishes every differential result event into it,
	// composing with any listener installed later via SetResultListener.
	// The listener reaches the in-process nodes only: a backend over
	// remote workers (cluster.NewRouter) publishes nothing, because a
	// worker has no result listener, so mobieyes-server refuses -stream
	// with -cluster router. Exposed via Stream() and the admin SUB command.
	Stream *stream.Tap
	// History, when non-nil, is the append-only replay store
	// (internal/history): the server tees result transitions (sequenced
	// through Stream, or through a private tap when Stream is nil) plus
	// object position samples from uplinks into it, stamped with
	// wall-clock hours. Its result transitions, like Stream's, come from
	// in-process nodes only. Appends are charged to Costs' history egress
	// meter. Exposed by the history view (Views).
	History *history.Store
	// DisconnectGrace defers the synthesized DepartureReport after an
	// abrupt disconnect (one without a DepartureReport frame) by this long,
	// canceled if the object reconnects in time. Zero keeps the original
	// behavior: an abrupt disconnect departs immediately. Set it when
	// clients reconnect and resync, so a transient connection loss does not
	// tear down the object's focal queries.
	DisconnectGrace time.Duration
}

// Server is a MobiEyes server listening for moving-object connections.
// Its query-management methods (InstallQuery, RemoveQuery, Result) are safe
// for concurrent use.
type Server struct {
	cfg ServerConfig
	g   *grid.Grid
	ln  net.Listener

	backend *core.ClusterServer
	rec     *trace.Recorder
	lat     *obs.LatencyView // per-stage latency over rec; nil without tracing
	acct    *cost.Accountant // nil-safe; charged at the frame codec boundary
	tap     *stream.Tap      // result fan-out tap; nil unless streaming or history is on
	hist    *history.Store   // append-only replay store; nil unless history is on
	// userFn is the application listener installed via SetResultListener
	// when a tap owns the backend listener slot; the tap's composite
	// callback invokes it after publishing.
	userFn  atomic.Pointer[func(core.ResultEvent)]
	done    chan struct{}
	closing sync.Once
	wg      sync.WaitGroup

	reg *obs.Registry
	om  *remoteObs

	// traffic meters every protocol frame once, at the codec boundary:
	// Costs' global ledger, or a private one without it.
	traffic *cost.Ledger

	mu    sync.RWMutex
	conns map[model.ObjectID]*serverConn
	// parked holds the newest FocalNotify frame addressed to each object
	// that is not connected (yet, or between reconnects), handed to its
	// next session at the handshake. It is the one unicast a join cannot
	// re-derive; every other unicast to an absent object is dropped
	// (UnicastTraced), so this holds at most one frame per focal object.
	parked map[model.ObjectID][]byte
	// graceTimers holds the pending deferred-departure timer of each
	// abruptly disconnected object (only with DisconnectGrace > 0).
	graceTimers map[model.ObjectID]*time.Timer
}

// serverConn is one connected moving object.
type serverConn struct {
	oid  model.ObjectID
	conn net.Conn
	out  *outbox
}

// ListenAndServe starts a server on cfg.Addr.
func ListenAndServe(cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s, err := Serve(cfg, ln)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Serve starts a server on an existing listener. Any net.Listener works,
// including in-memory ones — the deterministic simulation harness serves
// over net.Pipe connections this way. cfg.Addr is ignored. The error is
// non-nil only when a cfg.Backend factory fails (e.g. a cluster router that
// cannot reach its workers); the built-in backend cannot fail.
func Serve(cfg ServerConfig, ln net.Listener) (*Server, error) {
	return serve(cfg, ln, nil)
}

// serve starts a server on ln, first restoring the backend from snapshot
// when it is non-nil.
func serve(cfg ServerConfig, ln net.Listener, snapshot io.Reader) (*Server, error) {
	s := newServer(cfg, ln)
	backend, err := s.buildBackend()
	if err == nil && snapshot != nil {
		if err = backend.Restore(snapshot); err != nil {
			backend.Close() // a TCP router releases its workers for the next router
		}
	}
	if err != nil {
		ln.Close()
		return nil, err
	}
	s.backend = backend
	s.wire()
	return s, nil
}

// buildBackend builds cfg.Backend, or else the router over one in-process
// node.
func (s *Server) buildBackend() (*core.ClusterServer, error) {
	if s.cfg.Backend != nil {
		return s.cfg.Backend(s.g, s.cfg.Options, serverDownlink{s})
	}
	return core.NewClusterServer(s.g, s.cfg.Options, serverDownlink{s}, 1), nil
}

// wire attaches the configured observers to the freshly built backend and
// starts serving.
func (s *Server) wire() {
	if s.rec != nil {
		s.backend.SetTracer(s.rec)
	}
	s.wireCosts()
	s.wireStream()
	s.start()
}

// wireCosts connects the configured accountant: sized to the grid and the
// router's node count (no base stations over TCP), instrumented into the
// server's registry, and attached to the backend for per-node and
// per-entity attribution.
func (s *Server) wireCosts() {
	if s.cfg.Costs == nil {
		return
	}
	s.acct = s.cfg.Costs
	s.acct.Configure(s.g.NumCells(), 0, s.backend.NumNodes())
	s.acct.Instrument(s.reg)
	s.backend.SetAccountant(s.acct)
}

// wireStream connects the result-stream tap and the history store: the
// backend's listener slot goes to a composite that publishes into the tap
// (and forwards to any application listener), the tap's sink tees sequenced
// result transitions into the history store stamped with wall hours, and
// history appends are charged to the accountant's egress meter. When only
// History is configured, a private tap provides the sequencing.
func (s *Server) wireStream() {
	s.tap = s.cfg.Stream
	s.hist = s.cfg.History
	if s.hist != nil {
		if s.tap == nil {
			s.tap = stream.NewTap()
		}
		if s.acct != nil {
			s.hist.SetCostHook(s.acct.HistoryAppend)
		}
		s.hist.Instrument(s.reg)
		hist := s.hist
		s.tap.SetSink(func(qid int64, seq uint64, oid int64, enter bool) {
			hist.AppendResult(float64(nowHours()), qid, seq, oid, enter)
		})
	}
	if s.tap == nil {
		return
	}
	s.tap.Instrument(s.reg)
	tap := s.tap
	s.backend.SetResultListener(func(ev core.ResultEvent) {
		tap.Publish(int64(ev.QID), int64(ev.OID), ev.Entered)
		if fn := s.userFn.Load(); fn != nil {
			(*fn)(ev)
		}
	})
}

func newServer(cfg ServerConfig, ln net.Listener) *Server {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var lat *obs.LatencyView
	if cfg.Trace != nil {
		lat = obs.NewLatencyView(cfg.Trace)
		lat.Instrument(reg)
	}
	return &Server{
		cfg:         cfg,
		g:           grid.New(cfg.UoD, cfg.Alpha),
		ln:          ln,
		rec:         cfg.Trace,
		lat:         lat,
		done:        make(chan struct{}),
		reg:         reg,
		traffic:     cfg.Costs.Traffic(),
		conns:       make(map[model.ObjectID]*serverConn),
		parked:      make(map[model.ObjectID][]byte),
		graceTimers: make(map[model.ObjectID]*time.Timer),
	}
}

func (s *Server) start() {
	s.instrument()
	s.wg.Add(2)
	go s.expiryLoop()
	go func() {
		defer s.wg.Done()
		acceptLoop(s.ln, s.done, func(conn net.Conn) {
			s.wg.Add(1)
			go s.serveConn(conn)
		})
	}()
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the server and disconnects every object.
func (s *Server) Close() {
	s.closing.Do(func() {
		close(s.done)
		s.ln.Close()
		s.mu.Lock()
		for _, c := range s.conns {
			c.conn.Close()
		}
		for oid, t := range s.graceTimers {
			t.Stop()
			delete(s.graceTimers, oid)
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
}

// expiryLoop sweeps duration-bound queries once a second, and — with a
// telemetry plane attached to the backend (ClusterServer.SetTelemetry) —
// runs the periodic telemetry round on the same tick: probe every live
// node (which pumps the workers' pending telemetry into the plane) and
// evaluate the invariant watchdog. The router is safe for concurrent use,
// so the sweep runs alongside the connection goroutines' uplink dispatch.
func (s *Server) expiryLoop() {
	defer s.wg.Done()
	expiry := time.NewTicker(time.Second)
	defer expiry.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-expiry.C:
			s.ExpireQueries(nowHours())
			if s.backend.Telemetry() != nil {
				s.backend.TelemetryRound()
			}
		}
	}
}

// InstallQuery installs a moving query.
func (s *Server) InstallQuery(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64) model.QueryID {
	return s.InstallQueryUntil(focal, region, filter, focalMaxVel, 0)
}

// InstallQueryUntil installs a moving query with an expiry time; zero means
// none. The history store's query mark is written under the backend's lock
// before the install's first send, so no event the install causes — a
// device's fast ContainmentReport, say — can be logged ahead of it.
func (s *Server) InstallQueryUntil(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64, expiry model.Time) model.QueryID {
	var note func(model.QueryID)
	if s.hist != nil {
		// A circle records its radius; other shapes record 0 (the replay
		// still carries the query's lifecycle and result timeline).
		radius := 0.0
		if c, ok := region.(model.CircleRegion); ok {
			radius = c.R
		}
		note = func(qid model.QueryID) {
			s.hist.AppendQuery(float64(nowHours()), int64(qid), int64(focal), radius)
		}
	}
	return s.backend.InstallQueryNoted(focal, region, filter, focalMaxVel, expiry, note)
}

// RemoveQuery uninstalls a query, installed or pending, and reports
// whether there was one; only a removal is logged to the history store.
func (s *Server) RemoveQuery(qid model.QueryID) bool {
	removed := s.backend.RemoveQuery(qid)
	if removed && s.hist != nil {
		s.hist.AppendQueryRemove(float64(nowHours()), int64(qid))
	}
	return removed
}

// NumQueries returns the number of installed queries.
func (s *Server) NumQueries() int { return s.backend.NumQueries() }

// QueryIDs returns the sorted identifiers of installed queries.
func (s *Server) QueryIDs() []model.QueryID { return s.backend.QueryIDs() }

// CheckInvariants validates the backend's internal consistency (see
// core.Server.CheckInvariants).
func (s *Server) CheckInvariants() error { return s.backend.CheckInvariants() }

// Latency returns the per-stage latency view over the flight recorder, or
// nil when tracing is off.
func (s *Server) Latency() *obs.LatencyView { return s.lat }

// Result returns a query's current result set.
func (s *Server) Result(qid model.QueryID) []model.ObjectID {
	return s.backend.Result(qid)
}

// SetResultListener streams differential result events. The callback may
// fire concurrently from multiple connection goroutines; keep it fast and
// make it safe for concurrent use. When a stream tap or history store is
// configured, the tap owns the backend's single listener slot and the
// application listener is invoked from its composite, after the event is
// published.
func (s *Server) SetResultListener(fn func(core.ResultEvent)) {
	if s.tap != nil {
		if fn == nil {
			s.userFn.Store(nil)
		} else {
			s.userFn.Store(&fn)
		}
		return
	}
	s.backend.SetResultListener(fn)
}

// Stream returns the result fan-out tap, or nil when streaming is off. It
// backs the admin SUB command and can be served as SSE by a stream.Gateway.
func (s *Server) Stream() *stream.Tap { return s.tap }

// Snapshot serializes the server's durable query state (see
// core.Server.Snapshot) for restart without reinstalling queries.
func (s *Server) Snapshot(w io.Writer) error {
	return s.backend.Snapshot(w)
}

// ListenAndRestore starts a server whose query state is restored from a
// snapshot — into the built-in router, or into cfg.Backend's, whose workers
// must then hold no rows. Connected objects resume being tracked as they
// reconnect and report.
func ListenAndRestore(cfg ServerConfig, snapshot io.Reader) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	return serve(cfg, ln, snapshot)
}

// Costs returns the attached cost accountant, or nil when accounting is off.
func (s *Server) Costs() *cost.Accountant { return s.acct }

// ExpireQueries removes duration-bound queries past the given time.
func (s *Server) ExpireQueries(now model.Time) []model.QueryID {
	expired := s.backend.ExpireQueries(now)
	if s.hist != nil {
		for _, qid := range expired {
			s.hist.AppendQueryRemove(float64(nowHours()), int64(qid))
		}
	}
	return expired
}

// Stats reads the traffic ledger: message and byte totals per direction
// plus the per-kind breakdown. It is the same ledger as Costs().Global()
// when accounting is on. Bytes are on-the-wire sizes (encoded frame plus
// length prefix), matching the frames_in/out byte metrics: legacy frames
// up, compact frames (wire.EncodeCompact) down. A unicast dropped for want
// of a connection is charged as sent, at 4 plus wire.CompactSize. A
// broadcast counts once (the TCP fabric has one logical downlink per
// object; per-connection fan-out is visible in the frame metrics). The
// counters are read one by one, so a snapshot taken under load may split a
// message between its count and its bytes.
func (s *Server) Stats() (uplinkMsgs, downlinkMsgs, uplinkBytes, downlinkBytes int64, byKind []cost.KindStats) {
	t := s.traffic.Snap()
	return t.UplinkMsgs(), t.DownlinkMsgs(), t.UplinkBytes(), t.DownlinkBytes(), t.ByKind()
}

// NumConnected returns the number of connected objects.
func (s *Server) NumConnected() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.conns)
}

// acceptLoop hands every connection ln accepts to serve until done closes.
// A failed Accept (EMFILE, say) is retried after a pause that starts at
// 5 ms and doubles up to 1 s, as net/http does, and resets on success — a
// persistent error must not pin a core.
func acceptLoop(ln net.Listener, done <-chan struct{}, serve func(net.Conn)) {
	var pause time.Duration
	for {
		conn, err := ln.Accept()
		if err == nil {
			pause = 0
			serve(conn)
			continue
		}
		pause = min(max(2*pause, 5*time.Millisecond), time.Second)
		select {
		case <-done:
			return
		case <-time.After(pause):
		}
	}
}

// serveConn handles one object connection: handshake, register, then
// dispatch uplink frames straight into the backend — each connection
// goroutine drives the router directly. A vanished connection is treated
// as a departure so the population stays consistent.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	br := bufio.NewReader(conn)

	hello, err := ReadFrame(br)
	if err != nil {
		conn.Close()
		return
	}
	s.om.framesIn.Add(1)
	s.om.bytesIn.Add(int64(4 + len(hello)))
	oid, err := decodeHello(hello)
	if err != nil {
		var ve *HelloVersionError
		if errors.As(err, &ve) {
			s.om.versionRejects.Add(1)
		} else {
			s.om.decodeErrors.Add(1)
		}
		conn.Close()
		return
	}
	s.om.connects.Add(1)

	sc := &serverConn{oid: oid, conn: conn, out: newOutbox(conn, s.om)}
	s.mu.Lock()
	if old, ok := s.conns[oid]; ok {
		old.conn.Close() // a reconnect replaces the stale session
	}
	if t, ok := s.graceTimers[oid]; ok {
		t.Stop() // the object came back: cancel its deferred departure
		delete(s.graceTimers, oid)
	}
	s.conns[oid] = sc
	// Hand over the FocalNotify parked while the object was away — a query
	// on it installed or its last one removed — ahead of anything sent once
	// the session is visible: queueing it under s.mu means no unicast
	// through conns can overtake it. The rest of what the object missed its
	// join or Resync re-derives (UnicastTraced).
	if frame, ok := s.parked[oid]; ok {
		delete(s.parked, oid)
		sc.out.send(frame)
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go sc.out.run(&s.wg)

	sawBye := false
	for {
		payload, err := ReadFrame(br)
		if err != nil {
			break
		}
		s.om.framesIn.Add(1)
		s.om.bytesIn.Add(int64(4 + len(payload)))
		m, tid, err := wire.DecodeTraced(payload)
		if err != nil {
			s.om.decodeErrors.Add(1)
			break // protocol violation: drop the connection
		}
		if p, isPing := m.(msg.Ping); isPing {
			// Transport-level probe: echo the token after every frame
			// received before it, and after every downlink already queued.
			// Never dispatched into the query engine.
			sc.out.send(wire.EncodeCompact(msg.Pong{Token: p.Token}, 0))
			continue
		}
		if r := s.admit(m); r != admitted {
			s.om.rejected[r].Add(1)
			break // protocol violation: drop the connection
		}
		// The codec boundary is the one place uplink traffic is metered.
		s.traffic.ChargeUplink(m.Kind(), 4+len(payload))
		if s.hist != nil {
			// Tee position-bearing uplinks into the replay store so a
			// recorded log can reconstruct visible state, not just result
			// membership.
			switch v := m.(type) {
			case msg.VelocityReport:
				s.hist.AppendPos(float64(nowHours()), int64(v.OID), v.Pos.X, v.Pos.Y)
			case msg.CellChangeReport:
				s.hist.AppendPos(float64(nowHours()), int64(v.OID), v.Pos.X, v.Pos.Y)
			case msg.FocalInfoResponse:
				s.hist.AppendPos(float64(nowHours()), int64(v.OID), v.Pos.X, v.Pos.Y)
			}
		}
		start := time.Now()
		s.backend.HandleUplinkTraced(m, trace.ID(tid))
		s.om.observeUplink(m.Kind(), start)
		if _, bye := m.(msg.DepartureReport); bye {
			sawBye = true
			break
		}
	}

	s.mu.Lock()
	if sawBye {
		// A departed object's parked frame is void; a later rejoin is a
		// fresh arrival and must not receive it.
		delete(s.parked, oid)
	}
	replaced := false
	if s.conns[oid] == sc {
		delete(s.conns, oid)
	} else {
		// A newer session for the same object took over; this one must not
		// tear its state down on the way out.
		_, replaced = s.conns[oid]
	}
	s.mu.Unlock()
	sc.out.close()
	conn.Close()
	if sawBye || replaced {
		return
	}
	// The object vanished without a departure. Synthesize one — immediately
	// by default, or after DisconnectGrace so a reconnecting object keeps
	// its focal queries and result entries across a transient drop.
	select {
	case <-s.done:
		return
	default:
	}
	if grace := s.cfg.DisconnectGrace; grace > 0 {
		s.mu.Lock()
		if _, back := s.conns[oid]; !back {
			if t, ok := s.graceTimers[oid]; ok {
				t.Stop()
			}
			s.graceTimers[oid] = time.AfterFunc(grace, func() { s.graceDeparture(oid) })
		}
		s.mu.Unlock()
		return
	}
	s.depart(oid)
}

// rejectReason is why admit refused a frame; it labels
// mobieyes_remote_rejected_frames_total.
type rejectReason uint8

const (
	admitted   rejectReason = iota
	rejectKind              // not one of the six uplink kinds
	rejectCell              // a cell change whose NewCell is off the grid
	numRejectReasons
)

var rejectReasonNames = [numRejectReasons]string{"", "kind", "cell"}

// admit decides whether a decoded uplink may reach the backend, whose
// dispatch panics on anything else: one of the six MobiEyes uplink kinds,
// and for a cell change a NewCell on the grid. An off-grid PrevCell stays
// legal — it marks a join or rejoin. The sender's OID is not checked against
// the session's Hello: a client may multiplex several objects over one
// connection.
func (s *Server) admit(m msg.Message) rejectReason {
	switch v := m.(type) {
	case msg.CellChangeReport:
		if !s.g.Valid(v.NewCell) {
			return rejectCell
		}
		return admitted
	case msg.VelocityReport, msg.ContainmentReport, msg.GroupContainmentReport,
		msg.FocalInfoResponse, msg.DepartureReport:
		return admitted
	}
	return rejectKind
}

// graceDeparture fires when an abruptly disconnected object's grace period
// lapses without a reconnect: the object is finally declared departed.
func (s *Server) graceDeparture(oid model.ObjectID) {
	select {
	case <-s.done:
		return
	default:
	}
	s.mu.Lock()
	delete(s.graceTimers, oid)
	_, back := s.conns[oid]
	s.mu.Unlock()
	if !back {
		s.depart(oid)
	}
}

// depart synthesizes the DepartureReport of an object that vanished, then
// discards what the departure parked for it — the FocalNotify removing its
// last query — so a departed object holds no frame.
func (s *Server) depart(oid model.ObjectID) {
	s.backend.HandleUplink(msg.DepartureReport{OID: oid})
	s.mu.Lock()
	if _, back := s.conns[oid]; !back {
		delete(s.parked, oid)
	}
	s.mu.Unlock()
}

// serverDownlink fans server messages out to connections. Broadcasts go to
// every connected object (clients self-filter by monitoring region, exactly
// as under ubiquitous base-station coverage); unicasts to one. It implements
// core.TracedDownlink so the backend can hand it the causing trace ID, which
// rides in the frame (wire.CompactTracedVersion) down to the object.
type serverDownlink struct{ s *Server }

var _ core.TracedDownlink = serverDownlink{}

func (d serverDownlink) Broadcast(region grid.CellRange, m msg.Message) {
	d.BroadcastTraced(region, m, 0)
}

func (d serverDownlink) BroadcastTraced(region grid.CellRange, m msg.Message, tid trace.ID) {
	frame := wire.EncodeCompact(m, uint64(tid))
	d.s.traffic.ChargeDownlink(m.Kind(), 4+len(frame), 1)
	d.s.mu.RLock()
	defer d.s.mu.RUnlock()
	d.s.om.broadcastFanout.Observe(float64(len(d.s.conns)))
	for _, c := range d.s.conns {
		c.out.send(frame)
	}
}

func (d serverDownlink) Unicast(oid model.ObjectID, m msg.Message) {
	d.UnicastTraced(oid, m, 0)
}

// UnicastTraced sends m to oid's connection. An object that is not
// connected misses it, as an object out of its base station's reach would
// (§2), except a FocalNotify, which is parked. Its next session opens with a
// join or Resync CellChangeReport whose PrevCell is invalid, and the backend
// answers that report with every query of its cell (covering a QueryInstall)
// and completes installs pending on it from the motion state the report
// carries (covering a FocalInfoRequest). Nothing re-sends whether the object
// is focal, so the newest FocalNotify waits for the handshake. A dropped
// frame is never encoded, but it is metered as sent: the traffic ledger
// counts what the backend sent, not what a device received.
func (d serverDownlink) UnicastTraced(oid model.ObjectID, m msg.Message, tid trace.ID) {
	s := d.s
	s.mu.RLock()
	c := s.conns[oid]
	s.mu.RUnlock()
	k := m.Kind()
	if c == nil && k != msg.KindFocalNotify {
		s.traffic.ChargeDownlink(k, 4+wire.CompactSize(m, uint64(tid)), 1)
		s.om.droppedUni[k].Add(1)
		return
	}
	frame := wire.EncodeCompact(m, uint64(tid))
	s.traffic.ChargeDownlink(k, 4+len(frame), 1)
	if c == nil {
		if c = s.park(oid, frame); c == nil {
			return
		}
	}
	c.out.send(frame)
}

// park holds frame, a FocalNotify, for oid's next session, replacing (and
// counting as dropped) an older one: hasMQ follows the newest notification.
// If oid connected since the caller looked, park returns that connection
// instead, and the caller sends the frame there.
func (s *Server) park(oid model.ObjectID, frame []byte) *serverConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.conns[oid]; c != nil {
		return c
	}
	if _, ok := s.parked[oid]; ok {
		s.om.droppedUni[msg.KindFocalNotify].Add(1)
	}
	s.parked[oid] = frame
	return nil
}

// maxWrite bounds one conn.Write of the outbox: a backlog goes out in
// chunks of this size, so the writer's buffer stays within maxWrite plus
// one frame however far the connection falls behind.
const maxWrite = 64 << 10

// outbox serializes writes to one connection without ever blocking the
// core loop: frames queue in memory and a dedicated writer goroutine drains
// them. Each wakeup takes the whole queue, frames it into one buffer and
// writes it at once — one syscall per wakeup (per maxWrite bytes), not two
// per frame — with no timer: a queue is written the moment it is drained.
type outbox struct {
	conn   net.Conn
	om     *remoteObs
	mu     sync.Mutex
	queue  [][]byte
	signal chan struct{}
	closed bool

	buf []byte // writer-owned: the framed bytes of the batch being written
}

func newOutbox(conn net.Conn, om *remoteObs) *outbox {
	return &outbox{conn: conn, om: om, signal: make(chan struct{}, 1)}
}

func (o *outbox) send(frame []byte) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.queue = append(o.queue, frame)
	o.mu.Unlock()
	select {
	case o.signal <- struct{}{}:
	default:
	}
}

func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	select {
	case o.signal <- struct{}{}:
	default:
	}
}

// run is the connection's writer. It swaps the whole queue out per
// iteration — the drained slice, cleared, becomes the next queue — and
// writes it as one batch. A write error closes the connection and the
// outbox.
func (o *outbox) run(wg *sync.WaitGroup) {
	defer wg.Done()
	var batch [][]byte
	for range o.signal {
		for {
			o.mu.Lock()
			if o.closed {
				o.mu.Unlock()
				return
			}
			if len(o.queue) == 0 {
				o.mu.Unlock()
				break
			}
			batch, o.queue = o.queue, batch[:0]
			o.mu.Unlock()
			err := o.write(batch)
			clear(batch) // drop the frames; the slice is the next queue
			if err != nil {
				o.conn.Close()
				o.mu.Lock()
				o.closed = true
				o.mu.Unlock()
				return
			}
		}
	}
}

// write frames batch into o.buf and writes it: every full maxWrite chunk as
// soon as it fills, the rest once the batch is framed. The frame and byte
// counters advance by the whole batch once its last write succeeds.
func (o *outbox) write(batch [][]byte) error {
	var nbytes int64
	for _, frame := range batch {
		o.reserve(4 + len(frame))
		var err error
		if o.buf, err = AppendFrame(o.buf, frame); err != nil {
			return err
		}
		nbytes += int64(4 + len(frame))
		if len(o.buf) >= maxWrite {
			full := len(o.buf) - len(o.buf)%maxWrite
			for off := 0; off < full; off += maxWrite {
				if _, err := o.conn.Write(o.buf[off : off+maxWrite]); err != nil {
					return err
				}
			}
			o.buf = o.buf[:copy(o.buf, o.buf[full:])]
		}
	}
	if len(o.buf) > 0 {
		if _, err := o.conn.Write(o.buf); err != nil {
			return err
		}
		o.buf = o.buf[:0]
	}
	if cap(o.buf) > 2*maxWrite {
		o.buf = nil // a frame larger than maxWrite grew it; do not keep that
	}
	o.om.framesOut.Add(int64(len(batch)))
	o.om.bytesOut.Add(nbytes)
	return nil
}

// reserve makes room for n more bytes in o.buf. It grows the buffer by
// doubling, but never past what the current chunk needs once maxWrite is
// reached, so append's own growth cannot carry it beyond maxWrite plus one
// frame.
func (o *outbox) reserve(n int) {
	need := len(o.buf) + n
	if need <= cap(o.buf) {
		return
	}
	o.buf = append(make([]byte, 0, max(need, min(2*cap(o.buf), maxWrite))), o.buf...)
}
