package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/telemetry"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/remote"
)

// newTelemetryCluster assembles a wire cluster whose workers carry their own
// observability surfaces and push telemetry to a router-side plane, with the
// router instrumented on the plane's registry: the full DESIGN.md §14
// topology over in-memory pipes.
func newTelemetryCluster(t *testing.T, n int) (*core.ClusterServer, []*RemoteNode, *telemetry.Plane, *obs.Registry, *trace.Recorder) {
	t.Helper()
	down := &sinkDown{}
	rns := make([]*RemoteNode, n)
	handles := make([]core.NodeHandle, n)
	for i := 0; i < n; i++ {
		rc, wc := net.Pipe()
		w := NewWorker(WorkerConfig{
			UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5.0,
			Metrics: obs.NewRegistry(), Trace: trace.NewRecorder(4096),
		})
		go func() { _ = w.ServeConn(wc) }()
		rn, err := NewRemoteNode(rc, i, down)
		if err != nil {
			t.Fatalf("handshake with worker %d: %v", i, err)
		}
		rns[i] = rn
		handles[i] = rn
	}
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(8192)
	// A generous RTT SLO: loopback heartbeats can stall on a loaded CI
	// scheduler, and the SLO check has its own unit tests.
	plane := telemetry.New(telemetry.Config{Metrics: reg, Trace: rec, RTTSLO: time.Hour})
	cs := core.NewClusterServerOver(testGrid(), core.Options{}, down, handles)
	cs.SetAssignListener(func(epoch uint64, node, lo, hi int) {
		rns[node].Assign(epoch, lo, hi)
	})
	epoch := cs.Epoch()
	for _, sp := range cs.Spans() {
		rns[sp.Node].Assign(epoch, sp.Lo, sp.Hi)
	}
	cs.SetTracer(rec)
	cs.Instrument(reg)
	WireTelemetry(cs, rns, plane)
	return cs, rns, plane, reg, rec
}

// TestWireTelemetryStitchAndReexport drives the protocol schedule across a
// two-worker wire cluster and asserts the telemetry plane's three merge
// products: per-node-labelled series in the router registry (one /metrics
// scrape covers the cluster), a stitched cross-node trace timeline in the
// router ring, and a clean watchdog verdict.
func TestWireTelemetryStitchAndReexport(t *testing.T) {
	g := testGrid()
	cs, _, plane, reg, rec := newTelemetryCluster(t, 2)
	defer cs.Close()

	drive(cs, g)
	if cs.Migrations() == 0 {
		t.Fatal("schedule crossed no node boundary — cross-node stitching untested")
	}
	if alerts := cs.TelemetryRound(); len(alerts) != 0 {
		t.Fatalf("healthy cluster raised alerts: %v", alerts)
	}
	if s := plane.HealthStatus(); s != telemetry.HealthOK {
		t.Fatalf("health = %s, want ok", s)
	}

	// Re-export: the router registry carries worker series under node="N".
	byNode := map[string]bool{}
	for _, sp := range reg.Export() {
		for i := 0; i+1 < len(sp.Labels); i += 2 {
			if sp.Labels[i] == "node" {
				byNode[sp.Labels[i+1]] = true
			}
		}
	}
	for _, n := range []string{"0", "1"} {
		if !byNode[n] {
			t.Errorf("router registry has no series labelled node=%q (saw %v)", n, byNode)
		}
	}

	// Stitching: worker-recorded events are merged into the router ring, and
	// a router-minted trace ID carries both the router's ingress and the
	// worker's table events — one cross-node causal timeline.
	actors := map[string]bool{}
	var tid trace.ID
	for _, ev := range rec.Events(trace.Filter{}) {
		actors[ev.Actor] = true
		if tid == 0 && ev.Trace != 0 && strings.HasPrefix(ev.Actor, "node") {
			tid = ev.Trace
		}
	}
	for _, a := range []string{"router", "node0", "node1"} {
		if !actors[a] {
			t.Errorf("router ring missing events from %q (saw %v)", a, actors)
		}
	}
	if tid == 0 {
		t.Fatal("no traced worker event reached the router ring")
	}
	chain := rec.Events(trace.Filter{Trace: tid})
	chainActors := map[string]bool{}
	for _, ev := range chain {
		chainActors[ev.Actor] = true
	}
	if !chainActors["router"] || len(chainActors) < 2 {
		t.Errorf("trace %d 's chain spans actors %v, want router + a worker", tid, chainActors)
	}

	// Handoff edges ran evaluation rounds inline, and the view reports the
	// router's own handoff count.
	snap := plane.Snapshot()
	if snap.Handoffs != cs.Migrations() || snap.Rounds <= 1 {
		t.Errorf("snapshot records %d handoffs over %d rounds, want %d handoffs and rounds > 1",
			snap.Handoffs, snap.Rounds, cs.Migrations())
	}
	if len(snap.Nodes) != 2 {
		t.Fatalf("snapshot nodes = %+v", snap.Nodes)
	}
	for _, ns := range snap.Nodes {
		if !ns.Live || !ns.Expected || ns.Batches == 0 || ns.Epoch == 0 {
			t.Errorf("node %d snapshot incomplete: %+v", ns.Node, ns)
		}
	}
}

// TestWireTelemetryPerNodeSeries checks every per-node number the router
// shows for a TCP worker: the table-size gauges a worker ships must equal
// what the router reads from the node itself, and uplinks_total{node} must
// be the router's own dispatch count.
func TestWireTelemetryPerNodeSeries(t *testing.T) {
	cs, _, _, reg, _ := newTelemetryCluster(t, 2)
	defer cs.Close()
	g := testGrid()
	center := func(row int) geo.Point {
		r := g.CellRect(grid.CellID{Col: 10, Row: row})
		return geo.Pt((r.LX+r.HX)/2, (r.LY+r.HY)/2)
	}
	// Installs and uplinks only, two focals on each side of the span
	// boundary at row 10; each focal then crosses a cell within its span.
	for i := 0; i < 4; i++ {
		oid := model.ObjectID(i + 1)
		cs.InstallQuery(oid, model.CircleRegion{R: 8}, model.Filter{}, 15)
		cs.HandleUplink(msg.FocalInfoResponse{OID: oid, Pos: center(2 + 5*i), Vel: geo.Vec(0, 5), Tm: 1})
	}
	for tgt := 10; tgt < 30; tgt++ {
		cs.HandleUplink(msg.ContainmentReport{OID: model.ObjectID(tgt), QID: model.QueryID(tgt%4 + 1), IsTarget: true})
	}
	for i := 0; i < 4; i++ {
		prev, next := grid.CellID{Col: 10, Row: 2 + 5*i}, grid.CellID{Col: 10, Row: 3 + 5*i}
		cs.HandleUplink(msg.CellChangeReport{OID: model.ObjectID(i + 1), PrevCell: prev, NewCell: next,
			Pos: center(next.Row), Vel: geo.Vec(0, 5), Tm: 2})
	}
	if alerts := cs.TelemetryRound(); len(alerts) != 0 {
		t.Fatalf("healthy cluster raised alerts: %v", alerts)
	}

	vars := reg.Snapshot()
	uplinks := cs.UplinksByNode()
	for i, sp := range cs.Spans() {
		if sp.Focals == 0 || uplinks[i] == 0 {
			t.Fatalf("node %d holds %d focals after %d uplinks — the schedule misses it", i, sp.Focals, uplinks[i])
		}
		label := fmt.Sprintf(`{node="%d"}`, i)
		for _, c := range []struct {
			name string
			want any
		}{
			{"mobieyes_server_fot_size", float64(sp.Focals)},
			{"mobieyes_server_sqt_size", float64(sp.Queries)},
			{"mobieyes_server_uplinks_total", uplinks[i]},
		} {
			if got := vars[c.name+label]; got != c.want {
				t.Errorf("%s%s = %v, want %v", c.name, label, got, c.want)
			}
		}
	}
}

// TestWireTelemetrySpanRange drives the span check through a real
// heartbeat: a worker told a range other than the router's, at the current
// epoch, reports it in its next NodeStatus, and the round raises span-range
// for that node only; telling it the router's range again clears the alert.
func TestWireTelemetrySpanRange(t *testing.T) {
	cs, rns, _, _, _ := newTelemetryCluster(t, 2)
	defer cs.Close()
	if alerts := cs.TelemetryRound(); len(alerts) != 0 {
		t.Fatalf("healthy cluster raised alerts: %v", alerts)
	}

	epoch, sp := cs.Epoch(), cs.Spans()[1]
	rns[1].Assign(epoch, sp.Lo+1, sp.Hi)
	alerts := cs.TelemetryRound()
	if len(alerts) != 1 || alerts[0].Check != telemetry.CheckSpanRange || alerts[0].Node != 1 {
		t.Fatalf("alerts after a skewed assignment = %v, want one span-range on node 1", alerts)
	}

	rns[1].Assign(epoch, sp.Lo, sp.Hi)
	if alerts := cs.TelemetryRound(); len(alerts) != 0 {
		t.Fatalf("alerts after the router's range is restored = %v", alerts)
	}
}

// TestWireTelemetryNodeDeath kills one worker's transport mid-flight: the
// next telemetry round must raise node-unreachable, degrade /readyz to
// failing, and mark the node's span with an explicit fault — while the
// surviving node keeps answering probes.
func TestWireTelemetryNodeDeath(t *testing.T) {
	cs, rns, plane, _, _ := newTelemetryCluster(t, 2)
	drive(cs, testGrid())
	if alerts := cs.TelemetryRound(); len(alerts) != 0 {
		t.Fatalf("healthy cluster raised alerts: %v", alerts)
	}

	rns[1].conn.Close() // the worker process "dies"

	alerts := cs.TelemetryRound()
	if len(alerts) != 1 || alerts[0].Check != telemetry.CheckUnreachable || alerts[0].Node != 1 {
		t.Fatalf("post-kill alerts = %v, want one node-unreachable on node 1", alerts)
	}
	if s, ok := plane.Ready(); ok || s != telemetry.HealthFailing {
		t.Errorf("Ready() = %s,%v, want failing,false", s, ok)
	}

	// The span view carries the explicit fault marker for partial answers.
	spans := cs.Spans()
	if spans[1].Fault == "" {
		t.Errorf("dead node's span has no fault marker: %+v", spans[1])
	}
	if spans[0].Fault != "" {
		t.Errorf("live node wrongly marked faulty: %+v", spans[0])
	}

	// The alert latches across rounds while the node stays dead.
	alerts = cs.TelemetryRound()
	if len(alerts) != 1 || alerts[0].Rounds < 2 {
		t.Errorf("alert did not latch: %v", alerts)
	}
}

// TestWireAutoRecovery severs a worker's transport and lets the router heal
// itself: with auto-recovery enabled, the telemetry round that diagnoses the
// dead node fences it, replays its journaled focal state into the survivor
// over the checkpoint path it pulled through the wire, and resolves the
// alert — no focal is lost because the previous round's checkpoint is the
// watermark and nothing moved since.
func TestWireAutoRecovery(t *testing.T) {
	cs, rns, plane, reg, _ := newTelemetryCluster(t, 2)
	defer cs.Close()
	drive(cs, testGrid())

	// The round checkpoints every live node over the wire and is clean.
	if alerts := cs.TelemetryRound(); len(alerts) != 0 {
		t.Fatalf("healthy cluster raised alerts: %v", alerts)
	}
	spans := cs.Spans()
	total := 0
	victim := 1
	for _, sp := range spans {
		total += sp.Focals
		if sp.Focals > 0 {
			victim = sp.Node
		}
	}
	if total == 0 {
		t.Fatal("schedule installed no focals — recovery untested")
	}
	if n, _ := cs.JournalSize(victim); n != spans[victim].Focals {
		t.Fatalf("journal holds %d slices for node %d, want %d (the wire checkpoint path)",
			n, victim, spans[victim].Focals)
	}

	cs.SetAutoRecover(true)
	rns[victim].conn.Close() // the worker process dies ungracefully

	// One round: diagnose, fence, replay, converge. The returned alert set is
	// post-recovery, so the node-death alert has already auto-resolved.
	if alerts := cs.TelemetryRound(); len(alerts) != 0 {
		t.Fatalf("alerts after auto-recovery = %v, want none", alerts)
	}
	if s := plane.HealthStatus(); s != telemetry.HealthOK {
		t.Errorf("health after recovery = %s, want ok", s)
	}
	if n := plane.Recoveries(); n != 1 {
		t.Errorf("plane counted %d recoveries, want 1", n)
	}
	after := cs.Spans()
	if after[victim].Live {
		t.Fatalf("victim node %d still live after recovery", victim)
	}
	got := 0
	for _, sp := range after {
		got += sp.Focals
	}
	if got != total {
		t.Errorf("focals after recovery = %d, want %d (zero loss at the watermark)", got, total)
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Errorf("invariants after recovery: %v", err)
	}
	// The dead worker's shipped table gauges read 0, so the per-node FOT
	// gauges count each recovered focal once.
	vars := reg.Snapshot()
	gauges := 0.0
	for i := range after {
		if v, ok := vars[fmt.Sprintf(`mobieyes_server_fot_size{node="%d"}`, i)].(float64); ok {
			gauges += v
		}
	}
	if gauges != float64(got) {
		t.Errorf("per-node FOT gauges sum to %v after recovery, Spans hold %d focals", gauges, got)
	}
}

// adminConn is a minimal admin-protocol client for the satellite test below.
type adminConn struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialAdminAddr(t *testing.T, addr string) *adminConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &adminConn{conn: conn, br: bufio.NewReader(conn)}
}

func (a *adminConn) cmd(t *testing.T, line string) string {
	t.Helper()
	fmt.Fprintln(a.conn, line)
	reply, err := a.br.ReadString('\n')
	if err != nil {
		t.Fatalf("admin %q: %v", line, err)
	}
	return strings.TrimRight(reply, "\n")
}

func (a *adminConn) dump(t *testing.T, line string) string {
	t.Helper()
	fmt.Fprintln(a.conn, line)
	var sb strings.Builder
	for {
		l, err := a.br.ReadString('\n')
		if err != nil {
			t.Fatalf("admin dump %q: %v", line, err)
		}
		if l == ".\n" {
			return sb.String()
		}
		sb.WriteString(l)
	}
}

// connTap wraps a listener and remembers accepted conns so the test can
// sever a worker's transport without killing the process.
type connTap struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *connTap) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *connTap) severAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// TestAdminPartialAnswersWhenWorkerDies is the full TCP deployment: a remote
// server routing over two worker processes, with the telemetry plane wired.
// When a worker dies mid-run, the admin aggregation commands must keep
// answering from the router's merged state — no hang, partial results —
// with `nodes` carrying an explicit fault marker and HEALTH reporting the
// failure.
func TestAdminPartialAnswersWhenWorkerDies(t *testing.T) {
	// Two worker processes on real TCP listeners.
	taps := make([]*connTap, 2)
	addrs := make([]string, 2)
	for i := range taps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		taps[i] = &connTap{Listener: ln}
		addrs[i] = ln.Addr().String()
		w := NewWorker(WorkerConfig{
			UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5.0,
			Metrics: obs.NewRegistry(), Trace: trace.NewRecorder(2048),
		})
		go func() { _ = w.Serve(taps[i]) }()
		t.Cleanup(func() { ln.Close() })
	}

	reg := obs.NewRegistry()
	rec := trace.NewRecorder(8192)
	acct := cost.New()
	plane := telemetry.New(telemetry.Config{Metrics: reg, Trace: rec, Costs: acct, RTTSLO: time.Hour})
	var cs *core.ClusterServer
	srv, err := remote.ListenAndServe(remote.ServerConfig{
		Addr:    "127.0.0.1:0",
		UoD:     geo.NewRect(0, 0, 100, 100),
		Alpha:   5,
		Metrics: reg,
		Trace:   rec,
		Costs:   acct,
		Backend: func(g *grid.Grid, opts core.Options, down core.Downlink) (*core.ClusterServer, error) {
			var rns []*RemoteNode
			var berr error
			cs, rns, berr = NewRouter(g, opts, down, addrs)
			if berr != nil {
				return nil, berr
			}
			WireTelemetry(cs, rns, plane)
			return cs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	adminSrv, err := remote.ServeAdmin("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adminSrv.Close)

	// Traffic through the router so every aggregation surface has content.
	// The shim charges the global ledger per uplink, as the wire transport
	// would, so the watchdog's router+Σnodes == global identity holds.
	drive(accountedAPI{cs, acct}, testGrid())
	if alerts := cs.TelemetryRound(); len(alerts) != 0 {
		t.Fatalf("healthy cluster raised alerts: %v", alerts)
	}

	a := dialAdminAddr(t, adminSrv.Addr().String())
	if health := a.dump(t, "HEALTH"); !strings.HasPrefix(health, "health ok") {
		t.Fatalf("pre-kill HEALTH:\n%s", health)
	}

	// Node 1's worker process dies mid-run.
	taps[1].severAll()
	if alerts := cs.TelemetryRound(); len(alerts) == 0 {
		t.Fatal("no alert after worker death")
	}

	// Every aggregation command answers from the router's merged state.
	health := a.dump(t, "HEALTH")
	if !strings.HasPrefix(health, "health failing") || !strings.Contains(health, telemetry.CheckUnreachable) {
		t.Errorf("post-kill HEALTH:\n%s", health)
	}
	nodes := a.dump(t, "nodes")
	if !strings.Contains(nodes, "node 1 live cells") || !strings.Contains(nodes, `fault "`) {
		t.Errorf("nodes dump missing the fault marker:\n%s", nodes)
	}
	stats := a.dump(t, "STATS")
	if !strings.Contains(stats, `node="0"`) {
		t.Errorf("STATS lost the pushed per-node series:\n%s", truncateStr(stats, 600))
	}
	if !strings.Contains(stats, "mobieyes_cluster_alerts_active 1") {
		t.Errorf("STATS missing the active-alert gauge:\n%s", truncateStr(stats, 600))
	}
	if costs := a.dump(t, "COSTS"); !strings.Contains(costs, "global") {
		t.Errorf("COSTS dump:\n%s", costs)
	}
	if tr := a.dump(t, "TRACE 10"); tr == "" {
		t.Error("TRACE returned nothing after node death")
	}
}

// accountedAPI mimics the wire transport's cost boundary: every uplink is
// charged to the global ledger before dispatch, preserving the watchdog's
// ledger identity when a test drives the backend directly.
type accountedAPI struct {
	core.ServerAPI
	acct *cost.Accountant
}

func (a accountedAPI) HandleUplink(m msg.Message) {
	a.acct.Traffic().ChargeUplink(m.Kind(), m.Size())
	a.ServerAPI.HandleUplink(m)
}

func truncateStr(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
