package remote

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/wire"
)

func testServerWithCosts(t *testing.T) (*Server, *cost.Accountant) {
	t.Helper()
	a := cost.New()
	s, err := ListenAndServe(ServerConfig{
		Addr:  "127.0.0.1:0",
		UoD:   geo.NewRect(0, 0, 100, 100),
		Alpha: 5,
		Costs: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, a
}

// TestRemoteCostWireBoundary pins the codec-boundary accounting from one
// controlled connection: a single VelocityReport must be charged with its
// exact on-the-wire size — encoded frame plus the 4-byte length prefix —
// in both the traffic meter and the accountant's global ledger. This is
// the byte source the frames_in metric uses, so the two can never diverge
// again.
func TestRemoteCostWireBoundary(t *testing.T) {
	s, a := testServerWithCosts(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, EncodeHello(7)); err != nil {
		t.Fatal(err)
	}
	report := msg.VelocityReport{OID: 7, Pos: geo.Pt(10, 10)}
	payload := wire.Encode(report)
	if err := WriteFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	// A ping round-trip proves the report was received and dispatched.
	if err := WriteFrame(conn, messageFrame(msg.Ping{Token: 1})); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		reply, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("no pong before deadline: %v", err)
		}
		if m, _, err := wire.DecodeTraced(reply); err == nil {
			if _, ok := m.(msg.Pong); ok {
				break
			}
		}
	}

	wantBytes := int64(4 + len(payload))
	up, _, upB, _, _ := s.Stats()
	if up != 1 || upB != wantBytes {
		t.Errorf("meter uplink = %d msgs / %d B, want 1 / %d", up, upB, wantBytes)
	}
	g := a.Global()
	if g.UplinkMsgs() != 1 || g.UplinkBytes() != wantBytes {
		t.Errorf("ledger uplink = %d msgs / %d B, want 1 / %d",
			g.UplinkMsgs(), g.UplinkBytes(), wantBytes)
	}
	if g.UpBytes[report.Kind()] != wantBytes {
		t.Errorf("kind ledger = %d B, want %d", g.UpBytes[report.Kind()], wantBytes)
	}
	// Hello and ping are transport frames, not protocol messages: they must
	// appear in the frame metrics but never in the protocol meter.
	if fin := s.om.framesIn.Value(); fin != 3 {
		t.Errorf("frames_in = %d, want 3 (hello, report, ping)", fin)
	}
}

// TestRemoteCostEndToEnd drives real objects over TCP with accounting on
// and checks the system-level invariants: meter and global ledger agree in
// both directions, dispatched uplinks are fully attributed across node
// ledgers plus the router, per-entity tallies exist, and the backend
// charged server-side work.
func TestRemoteCostEndToEnd(t *testing.T) {
	s, a := testServerWithCosts(t)
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 2 }) {
		t.Fatal("result never converged")
	}

	up, down, upB, downB, _ := s.Stats()
	g := a.Global()
	if g.UplinkMsgs() != up || g.UplinkBytes() != upB {
		t.Errorf("ledger uplink %d/%dB, meter %d/%dB", g.UplinkMsgs(), g.UplinkBytes(), up, upB)
	}
	if g.DownlinkMsgs() != down || g.DownlinkBytes() != downB {
		t.Errorf("ledger downlink %d/%dB, meter %d/%dB", g.DownlinkMsgs(), g.DownlinkBytes(), down, downB)
	}
	dispatched := a.Router().UplinkMsgs()
	for _, sh := range a.Nodes() {
		dispatched += sh.UplinkMsgs()
	}
	if dispatched != g.UplinkMsgs() {
		t.Errorf("node+router uplinks %d, transport charged %d", dispatched, g.UplinkMsgs())
	}
	snap := a.Snapshot()
	if len(snap.Objects) == 0 {
		t.Error("no per-object attribution")
	}
	if g.ComputeUnits(cost.UnitTableOp) == 0 {
		t.Error("no server table operations charged")
	}
	if s.Costs() != a {
		t.Error("Costs() accessor broken")
	}
}

// TestAdminCosts exercises the COSTS admin command: the full report, an
// entity scope, and the error paths (bad scope; accounting disabled).
func TestAdminCosts(t *testing.T) {
	s, _ := testServerWithCosts(t)
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	if !waitFor(t, 2*time.Second, func() bool {
		_, ok := s.Costs().ObjectSnap(1)
		return ok
	}) {
		t.Fatal("object 1 never charged")
	}
	adm, err := ServeAdmin("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adm.Close)
	as := dialAdmin(t, adm)

	if out := as.cmdMulti(t, "COSTS"); !strings.Contains(out, "global") {
		t.Errorf("COSTS output missing global ledger:\n%s", out)
	}
	if out := as.cmdMulti(t, "COSTS oid 1"); !strings.Contains(out, "oid 1 up") {
		t.Errorf("COSTS oid output: %q", out)
	}
	if out := as.cmd(t, "COSTS qid 12345"); !strings.HasPrefix(out, "err") {
		t.Errorf("unknown qid: %q", out)
	}
	if out := as.cmd(t, "COSTS bogus 1"); !strings.HasPrefix(out, "err") {
		t.Errorf("bad scope: %q", out)
	}

	// Accounting off: the command must degrade to an error, not panic.
	plain := testServer(t)
	adm2, err := ServeAdmin("127.0.0.1:0", plain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adm2.Close)
	if out := dialAdmin(t, adm2).cmd(t, "COSTS"); !strings.HasPrefix(out, "err") {
		t.Errorf("disabled accounting: %q", out)
	}
}

// cmdMulti sends one command and reads lines until the "." terminator.
func (s *adminSession) cmdMulti(t *testing.T, line string) string {
	t.Helper()
	if _, err := s.conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for s.sc.Scan() {
		if s.sc.Text() == "." {
			return b.String()
		}
		b.WriteString(s.sc.Text())
		b.WriteByte('\n')
	}
	t.Fatalf("connection closed before terminator: %v", s.sc.Err())
	return ""
}
