package remote

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
)

// nodesBackend is a ServerConfig.Backend that puts the router over n
// in-process nodes behind the transport, so cross-node handoff stays
// covered over TCP.
func nodesBackend(n int) func(*grid.Grid, core.Options, core.Downlink) (*core.ClusterServer, error) {
	return func(g *grid.Grid, opts core.Options, down core.Downlink) (*core.ClusterServer, error) {
		return core.NewClusterServer(g, opts, down, n), nil
	}
}

// TestAdminAgainstClusteredBackend runs the full admin surface over the
// router with two in-process worker nodes: STATS, COSTS, TRACE and `nodes`
// must all aggregate per-node answers through the router — the
// observability satellite of the cluster tier.
func TestAdminAgainstClusteredBackend(t *testing.T) {
	rec := trace.NewRecorder(4096)
	acct := cost.New()
	s, err := ListenAndServe(ServerConfig{
		Addr:    "127.0.0.1:0",
		UoD:     geo.NewRect(0, 0, 100, 100),
		Alpha:   5,
		Backend: nodesBackend(2),
		Costs:   acct,
		Trace:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	admin, err := ServeAdmin("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 2 }) {
		t.Fatal("objects never connected")
	}

	a := dialAdmin(t, admin)
	reply := a.cmd(t, "install 1 3 1000")
	var qid int
	if _, err := fmt.Sscanf(reply, "qid %d", &qid); err != nil {
		t.Fatalf("install reply = %q", reply)
	}
	if !waitFor(t, 3*time.Second, func() bool {
		return a.cmd(t, fmt.Sprintf("result %d", qid)) == fmt.Sprintf("result %d 1 2", qid)
	}) {
		t.Fatalf("result never converged: %q", a.cmd(t, fmt.Sprintf("result %d", qid)))
	}

	// nodes: epoch plus one span line per worker node.
	nodes := a.dump(t, "nodes")
	if !strings.HasPrefix(nodes, "epoch ") {
		t.Errorf("nodes dump missing epoch header:\n%s", nodes)
	}
	for _, want := range []string{"node 0 live cells [", "node 1 live cells ["} {
		if !strings.Contains(nodes, want) {
			t.Errorf("nodes dump missing %q:\n%s", want, nodes)
		}
	}

	// COSTS: the ledger report must carry the per-node attribution section
	// alongside the global ledger.
	costs := a.dump(t, "COSTS")
	for _, want := range []string{"global", "node 0", "node 1"} {
		if !strings.Contains(costs, want) {
			t.Errorf("COSTS dump missing %q:\n%s", want, costs)
		}
	}

	// STATS: router-level engine metrics are labelled node="router".
	stats := a.dump(t, "STATS")
	if !strings.Contains(stats, `node="router"`) {
		t.Errorf("STATS dump missing router-labelled metrics:\n%s", truncate(stats, 800))
	}
	if !strings.Contains(stats, "mobieyes_server_migrations_total") {
		t.Errorf("STATS dump missing the migrations counter:\n%s", truncate(stats, 800))
	}

	// TRACE: uplinks dispatched through the router still mint causal chains.
	if !waitFor(t, 2*time.Second, func() bool {
		return strings.Contains(a.dump(t, "TRACE oid 1"), "oid=1")
	}) {
		t.Errorf("TRACE oid 1 never showed events:\n%s", a.dump(t, "TRACE oid 1"))
	}

	// The plain line commands keep working against the clustered backend.
	if got := a.cmd(t, "conns"); got != "conns 2" {
		t.Errorf("conns reply = %q", got)
	}
	if got := a.cmd(t, fmt.Sprintf("remove %d", qid)); got != "ok" {
		t.Errorf("remove reply = %q", got)
	}
}

// driveNorth installs a query on a focal with a target beside it, both
// standing still near the south edge so the focal is placed before it
// moves, then drives both north at 25 mi/s for 3 s (to y ≈ 80, over every
// span boundary of up to four nodes) and stops them. The target must still
// be in the result afterwards, and the router's invariants must hold.
func driveNorth(t *testing.T, s *Server) {
	t.Helper()
	focal := dialObject(t, s, 7, geo.Pt(50, 5), geo.Vec(0, 0))
	target := dialObject(t, s, 8, geo.Pt(51, 5), geo.Vec(0, 0))
	if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 2 }) {
		t.Fatal("objects never connected")
	}
	qid := s.InstallQuery(7, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 2 }) {
		t.Fatalf("result never converged: %v", s.Result(qid))
	}
	north, still := geo.Vec(0, 25*3600), geo.Vec(0, 0)
	focal.SetVelocity(north)
	target.SetVelocity(north)
	time.Sleep(3 * time.Second)
	focal.SetVelocity(still)
	target.SetVelocity(still)
	if !waitFor(t, 3*time.Second, func() bool { return s.backend.ResultContains(qid, 8) }) {
		t.Errorf("result = %v, want it to contain target 8", s.Result(qid))
	}
	if err := s.backend.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// TestClusteredBackendServesObjects is the transport-level check that the
// router over several in-process nodes behind the remote server tracks a
// moving focal: the query follows the focal across cells and across node
// spans (cross-node handoffs) while devices connect only to the server.
func TestClusteredBackendServesObjects(t *testing.T) {
	s, err := ListenAndServe(ServerConfig{
		Addr:    "127.0.0.1:0",
		UoD:     geo.NewRect(0, 0, 100, 100),
		Alpha:   5,
		Backend: nodesBackend(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	driveNorth(t, s)
	if s.backend.Migrations() == 0 {
		t.Errorf("focal crossed no node boundary (spans %+v)", s.backend.Spans())
	}
}

// TestDefaultBackendIsOneNode pins the built-in backend: the router over a
// single in-process node whatever Shards says (the benchmark sets it to the
// CPU count). The nodes view lists one node, and the same drive that
// migrates the focal behind several nodes never migrates it.
func TestDefaultBackendIsOneNode(t *testing.T) {
	s, err := ListenAndServe(ServerConfig{
		Addr:   "127.0.0.1:0",
		UoD:    geo.NewRect(0, 0, 100, 100),
		Alpha:  5,
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	body, err := nodesView(s.backend).Get(obs.Args{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(body.(Nodes).Nodes); n != 1 {
		t.Fatalf("nodes view lists %d nodes, want 1", n)
	}
	driveNorth(t, s)
	if m := s.backend.Migrations(); m != 0 {
		t.Errorf("%d migrations behind the one-node default", m)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
