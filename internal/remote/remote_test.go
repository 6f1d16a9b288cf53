package remote

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
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
	"mobieyes/internal/wire"
)

var acceptAll = model.Filter{Seed: 1, Permille: 1000}

// messageFrame encodes a protocol message as a device's frame payload.
func messageFrame(m msg.Message) []byte { return wire.Encode(m) }

func testServer(t testing.TB) *Server {
	t.Helper()
	s, err := ListenAndServe(ServerConfig{
		Addr:  "127.0.0.1:0",
		UoD:   geo.NewRect(0, 0, 100, 100),
		Alpha: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func dialObject(t testing.TB, s *Server, oid model.ObjectID, pos geo.Point, vel geo.Vector) *Object {
	t.Helper()
	o, err := Dial(ObjectConfig{
		Addr:  s.Addr().String(),
		UoD:   geo.NewRect(0, 0, 100, 100),
		Alpha: 5,
		OID:   oid, Pos: pos, Vel: vel,
		MaxVel:       100000, // objects move in real time; tests drive fast
		Props:        model.Props{Key: uint64(oid)},
		TickInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(3 * time.Millisecond)
	}
	return cond()
}

func TestRemoteBasicContainment(t *testing.T) {
	s := testServer(t)
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	dialObject(t, s, 3, geo.Pt(90, 90), geo.Vec(0, 0))

	if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 3 }) {
		t.Fatalf("connections = %d, want 3", s.NumConnected())
	}
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	ok := waitFor(t, 3*time.Second, func() bool {
		r := s.Result(qid)
		return len(r) == 2 && r[0] == 1 && r[1] == 2
	})
	if !ok {
		t.Fatalf("result never converged over TCP: %v", s.Result(qid))
	}
}

func TestRemoteDriveThrough(t *testing.T) {
	s := testServer(t)
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	// Object 2 drives west at 36,000 mph = 10 miles per real second.
	o2 := dialObject(t, s, 2, geo.Pt(62, 50), geo.Vec(-36000, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)

	entered := waitFor(t, 4*time.Second, func() bool {
		for _, oid := range s.Result(qid) {
			if oid == 2 {
				return true
			}
		}
		return false
	})
	if !entered {
		t.Fatalf("object 2 never entered (pos now %v)", o2.Position())
	}
	left := waitFor(t, 4*time.Second, func() bool {
		for _, oid := range s.Result(qid) {
			if oid == 2 {
				return false
			}
		}
		return true
	})
	if !left {
		t.Fatal("object 2 never left after passing through")
	}
}

func TestRemoteSetVelocityAndPosition(t *testing.T) {
	s := testServer(t)
	o := dialObject(t, s, 1, geo.Pt(10, 10), geo.Vec(0, 0))
	p0 := o.Position()
	o.SetVelocity(geo.Vec(36000, 0))
	if !waitFor(t, 2*time.Second, func() bool { return o.Position().X > p0.X+1 }) {
		t.Fatal("object did not move after SetVelocity")
	}
}

func TestRemoteCleanDeparture(t *testing.T) {
	s := testServer(t)
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	o2 := dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 2 }) {
		t.Fatal("precondition: result of 2")
	}
	o2.Close()
	if !waitFor(t, 3*time.Second, func() bool {
		r := s.Result(qid)
		return len(r) == 1 && r[0] == 1
	}) {
		t.Fatalf("departed object lingers in result: %v", s.Result(qid))
	}
	if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 1 }) {
		t.Fatalf("connections = %d after departure", s.NumConnected())
	}
}

func TestRemoteAbruptDisconnectSynthesizesDeparture(t *testing.T) {
	s := testServer(t)
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	// Wait until installation completed (the focal answered and entered its
	// own result) so the raw report below finds the query registered.
	if !waitFor(t, 2*time.Second, func() bool { return len(s.Result(qid)) == 1 }) {
		t.Fatal("query never finished installing")
	}

	// A raw connection that handshakes, reports containment, then vanishes.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, EncodeHello(42)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, messageFrame(msg.ContainmentReport{OID: 42, QID: qid, IsTarget: true})); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool {
		for _, oid := range s.Result(qid) {
			if oid == 42 {
				return true
			}
		}
		return false
	}) {
		t.Fatal("raw report never landed")
	}
	conn.Close() // abrupt disconnect, no departure report
	if !waitFor(t, 2*time.Second, func() bool {
		for _, oid := range s.Result(qid) {
			if oid == 42 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("server did not synthesize a departure for the vanished object")
	}
}

func TestRemoteRejectsGarbage(t *testing.T) {
	s := testServer(t)
	// Garbage before the handshake.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{1, 2, 3})
	conn.Close()

	// Valid handshake, garbage frame afterwards.
	conn2, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	WriteFrame(conn2, EncodeHello(7))
	WriteFrame(conn2, []byte{0xde, 0xad, 0xbe, 0xef})
	defer conn2.Close()

	// The server survives and still serves real clients.
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 1 }) {
		t.Fatal("server unhealthy after garbage connections")
	}
}

// TestRemoteRejectsInadmissibleFrames: after a valid handshake, one frame
// that decodes but that the backend cannot dispatch — a kind it does not
// handle, or a cell change onto a cell off the grid — drops its connection
// and is counted instead of panicking the server. An off-grid PrevCell is
// the rejoin marker and is admitted. Honest devices keep their results.
func TestRemoteRejectsInadmissibleFrames(t *testing.T) {
	s := testServer(t)
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	honest := func() bool {
		r := s.Result(qid)
		return len(r) == 2 && r[0] == 1 && r[1] == 2
	}
	if !waitFor(t, 3*time.Second, honest) {
		t.Fatalf("precondition: result = %v", s.Result(qid))
	}

	// kept handshakes as oid, sends m and then a Ping, and reports whether
	// the Pong came back — false when the server dropped the connection.
	// The three frames go out in one write: the server closes on a rejected
	// frame, so a later write could fail with EPIPE.
	kept := func(oid model.ObjectID, m msg.Message) bool {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var buf []byte
		for _, frame := range [][]byte{EncodeHello(oid), messageFrame(m), messageFrame(msg.Ping{Token: 7})} {
			if buf, err = AppendFrame(buf, frame); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		br := bufio.NewReader(conn)
		for {
			payload, err := ReadFrame(br)
			if err != nil {
				return false
			}
			if m, _, err := wire.DecodeTraced(payload); err == nil {
				if _, pong := m.(msg.Pong); pong {
					return true
				}
			}
		}
	}
	pos := geo.Pt(52, 52)
	onGrid := s.g.CellOf(pos)
	for oid, m := range map[model.ObjectID]msg.Message{
		41: msg.PositionReport{OID: 41, Pos: pos},
		42: msg.CellChangeReport{OID: 42, PrevCell: onGrid, NewCell: grid.CellID{Col: -1, Row: 0}, Pos: pos},
		43: msg.CellChangeReport{OID: 43, PrevCell: onGrid, NewCell: grid.CellID{Col: 1000, Row: 1000}, Pos: pos},
	} {
		if kept(oid, m) {
			t.Errorf("%+v: connection kept", m)
		}
	}
	for r, want := range map[rejectReason]int64{rejectKind: 1, rejectCell: 2} {
		if got := s.om.rejected[r].Value(); got != want {
			t.Errorf("rejected frames{reason=%q} = %d, want %d", rejectReasonNames[r], got, want)
		}
	}
	var exposition strings.Builder
	s.reg.WritePrometheus(&exposition)
	for _, want := range []string{
		metricRejectedFrames + `{reason="kind"} 1`,
		metricRejectedFrames + `{reason="cell"} 2`,
	} {
		if !strings.Contains(exposition.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	rejoin := msg.CellChangeReport{OID: 44, PrevCell: grid.CellID{Col: -1, Row: -1}, NewCell: onGrid, Pos: pos}
	if !kept(44, rejoin) {
		t.Error("rejoin cell change (off-grid PrevCell) dropped the connection")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 3*time.Second, honest) {
		t.Fatalf("honest result after rejected frames = %v", s.Result(qid))
	}
}

func TestRemoteResultEvents(t *testing.T) {
	s := testServer(t)
	events := make(chan core.ResultEvent, 256)
	s.SetResultListener(func(ev core.ResultEvent) {
		select {
		case events <- ev:
		default:
		}
	})
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)

	seen := map[model.ObjectID]bool{}
	deadline := time.After(3 * time.Second)
	for len(seen) < 2 {
		select {
		case ev := <-events:
			if ev.QID == qid && ev.Entered {
				seen[ev.OID] = true
			}
		case <-deadline:
			t.Fatalf("enter events seen: %v", seen)
		}
	}
}

func TestRemoteLQPMode(t *testing.T) {
	// The protocol variant flows through the remote deployment unchanged.
	s, err := ListenAndServe(ServerConfig{
		Addr:    "127.0.0.1:0",
		UoD:     geo.NewRect(0, 0, 100, 100),
		Alpha:   5,
		Options: core.Options{Mode: core.LazyPropagation},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 3; i++ {
		o, err := Dial(ObjectConfig{
			Addr: s.Addr().String(), UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5,
			Options: core.Options{Mode: core.LazyPropagation},
			OID:     model.ObjectID(i), Pos: geo.Pt(48+float64(i)*2, 50),
			MaxVel: 100000, Props: model.Props{Key: uint64(i)},
			TickInterval: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
	}
	qid := s.InstallQuery(1, model.CircleRegion{R: 5}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 3 }) {
		t.Fatalf("LQP result = %v", s.Result(qid))
	}
}

// TestRemoteSnapshotRestore: kill the server mid-run, restore from a
// snapshot on a new listener, reconnect the objects — tracking resumes.
func TestRemoteSnapshotRestore(t *testing.T) {
	s := testServer(t)
	o1 := dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	o2 := dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 2 }) {
		t.Fatal("precondition: result of 2")
	}

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	o1.Close()
	o2.Close()

	s2, err := ListenAndRestore(ServerConfig{
		Addr:  "127.0.0.1:0",
		UoD:   geo.NewRect(0, 0, 100, 100),
		Alpha: 5,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	// The query survived the restart with its result intact.
	if got := s2.Result(qid); len(got) != 2 {
		t.Fatalf("restored result = %v", got)
	}
	// Fresh objects reconnect; a new one enters the still-live query.
	dialObject(t, s2, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(t, s2, 3, geo.Pt(49, 50), geo.Vec(0, 0))
	if !waitFor(t, 3*time.Second, func() bool {
		for _, oid := range s2.Result(qid) {
			if oid == 3 {
				return true
			}
		}
		return false
	}) {
		t.Fatalf("new object never tracked after restore: %v", s2.Result(qid))
	}
}

func TestRemoteStats(t *testing.T) {
	s := testServer(t)
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 2 }) {
		t.Fatal("no results")
	}
	up, down, upB, downB, byKind := s.Stats()
	if up == 0 || down == 0 || upB == 0 || downB == 0 {
		t.Errorf("stats: %d/%d msgs, %d/%d bytes", up, down, upB, downB)
	}
	if len(byKind) == 0 {
		t.Error("no per-kind stats")
	}
}

// adminSession dials the admin port and provides a line-oriented exchange.
type adminSession struct {
	conn net.Conn
	sc   *bufio.Scanner
}

func dialAdmin(t *testing.T, a *AdminServer) *adminSession {
	t.Helper()
	conn, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &adminSession{conn: conn, sc: bufio.NewScanner(conn)}
}

func (s *adminSession) cmd(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(s.conn, line); err != nil {
		t.Fatal(err)
	}
	if !s.sc.Scan() {
		t.Fatalf("no reply to %q", line)
	}
	return s.sc.Text()
}

func TestAdminServer(t *testing.T) {
	s := testServer(t)
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
	if got := a.cmd(t, "conns"); got != "conns 2" {
		t.Errorf("conns reply = %q", got)
	}
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
	if got := a.cmd(t, "stats"); len(got) < 6 || got[:5] != "stats" {
		t.Errorf("stats reply = %q", got)
	}

	// Snapshot via admin.
	path := t.TempDir() + "/snap.bin"
	if got := a.cmd(t, "snapshot "+path); got != "ok" {
		t.Errorf("snapshot reply = %q", got)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("snapshot file missing or empty: %v", err)
	}

	if got := a.cmd(t, fmt.Sprintf("remove %d", qid)); got != "ok" {
		t.Errorf("remove reply = %q", got)
	}
	if got := a.cmd(t, fmt.Sprintf("result %d", qid)); got != fmt.Sprintf("result %d", qid) {
		t.Errorf("result after remove = %q", got)
	}

	// Error paths.
	for _, bad := range []string{"install", "install x y z", "remove", "remove x", "bogus"} {
		if got := a.cmd(t, bad); len(got) < 3 || got[:3] != "err" {
			t.Errorf("%q reply = %q, want err", bad, got)
		}
	}
}

// TestAdminRejectsBadArguments: install and the qid commands range-check
// their numbers instead of wrapping them into int32, and install refuses a
// non-positive focal and a radius that is not positive with a finite square.
func TestAdminRejectsBadArguments(t *testing.T) {
	s := testServer(t)
	a := &AdminServer{srv: s}
	for _, tc := range []struct{ line, want string }{
		{"install 1 NaN 500", "err bad arguments"},
		{"install 1 +Inf 500", "err bad arguments"},
		{"install 1 -Inf 500", "err bad arguments"},
		{"install 1 1e308 500", "err bad arguments"},
		{"install 1 0 500", "err bad arguments"},
		{"install 1 -3 500", "err bad arguments"},
		{"install 4294967297 2 500", "err bad arguments"},
		{"install 2147483648 2 500", "err bad arguments"},
		{"install -5 2 500", "err bad arguments"},
		{"install 0 2 500", "err bad arguments"},
		{"install 1 2 1001", "err bad arguments"},
		{"install 1 2 -1", "err bad arguments"},
		{"install 1 2 4294967796", "err bad arguments"},
		{"result 4294967297", "err bad qid"},
		{"remove -2147483649", "err bad qid"},
		{"install 2147483647 2 0", "qid 1"},
		{"result 1", "result 1"},
		{"remove 1", "ok"},
	} {
		var out bytes.Buffer
		a.handleCommand(&out, strings.Fields(tc.line))
		if got := strings.TrimSuffix(out.String(), "\n"); got != tc.want {
			t.Errorf("%q → %q, want %q", tc.line, got, tc.want)
		}
	}
	if n := s.NumQueries(); n != 0 {
		t.Errorf("%d queries installed, want 0", n)
	}
}

// countingConn is the far end of an outbox: it keeps what is written, counts
// the Write calls and the largest buffer capacity handed to one, and fails
// the failAt-th Write (never when 0). Only Write and Close are implemented.
type countingConn struct {
	net.Conn
	mu      sync.Mutex
	data    bytes.Buffer
	writes  int
	maxCap  int
	failAt  int
	closed  bool
	written chan struct{} // poked after every Write
}

func newCountingConn(failAt int) *countingConn {
	return &countingConn{failAt: failAt, written: make(chan struct{}, 1)}
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer func() {
		c.mu.Unlock()
		select {
		case c.written <- struct{}{}:
		default:
		}
	}()
	c.writes++
	c.maxCap = max(c.maxCap, cap(p))
	if c.writes == c.failAt {
		return 0, errors.New("write failed")
	}
	return c.data.Write(p)
}

func (c *countingConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// TestOutboxCoalescesWrites: a backlog queued before the writer runs goes
// out in one Write per 64 KiB, in queue order, with the counters advanced by
// exactly its frames and bytes; the writer's buffer stays within 64 KiB plus
// one frame however large the backlog; and a failed Write closes the
// connection and the outbox without counting the lost batch.
func TestOutboxCoalescesWrites(t *testing.T) {
	// drain queues frames, starts the writer, waits until want bytes are
	// written (or the outbox closes), and stops it. A stall is a lack of
	// progress — no Write for stallAfter since the previous one — not a slow
	// drain, so a machine busy with other tests slows the drain down without
	// failing it, while a writer that stops writing still fails.
	drain := func(c *countingConn, frames [][]byte, want int) (*outbox, *remoteObs) {
		t.Helper()
		om := newRemoteObs(obs.NewRegistry())
		o := newOutbox(c, om)
		for _, f := range frames {
			o.send(f)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go o.run(&wg)
		const stallAfter = 5 * time.Second
		for {
			c.mu.Lock()
			written, done := c.data.Len(), c.data.Len() >= want || c.closed
			c.mu.Unlock()
			if done {
				break
			}
			select {
			case <-c.written:
			case <-time.After(stallAfter):
				t.Fatalf("writer stalled: no Write for %v with %d of %d bytes written", stallAfter, written, want)
			}
		}
		o.close()
		wg.Wait()
		return o, om
	}
	frameSet := func(n, size int) (frames [][]byte, total, largest int) {
		for i := range n {
			f := bytes.Repeat([]byte{byte(i)}, size+(i*131)%size)
			frames = append(frames, f)
			total += 4 + len(f)
			largest = max(largest, len(f))
		}
		return frames, total, largest
	}

	frames, total, _ := frameSet(100, 800)
	c := newCountingConn(0)
	_, om := drain(c, frames, total)
	if limit := (total + maxWrite - 1) / maxWrite; c.writes > limit {
		t.Errorf("%d frames (%d bytes) took %d writes, want at most %d", len(frames), total, c.writes, limit)
	}
	br := bufio.NewReader(&c.data)
	for i, want := range frames {
		got, err := ReadFrame(br)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: read %d bytes (err %v), want %d bytes of %d", i, len(got), err, len(want), byte(i))
		}
	}
	if n, b := om.framesOut.Value(), om.bytesOut.Value(); n != 100 || b != int64(total) {
		t.Errorf("counters: %d frames %d bytes, want 100 frames %d bytes", n, b, total)
	}

	// A 1 MiB backlog: the buffer must not grow with it.
	frames, total, largest := frameSet(1500, 500)
	if total < 1<<20 {
		t.Fatalf("backlog of %d bytes, want 1 MiB", total)
	}
	c = newCountingConn(0)
	drain(c, frames, total)
	if c.data.Len() != total {
		t.Fatalf("wrote %d bytes, want %d", c.data.Len(), total)
	}
	if limit := maxWrite + 4 + largest; c.maxCap > limit {
		t.Errorf("writer buffer reached %d bytes, want at most %d", c.maxCap, limit)
	}
	if limit := (total + maxWrite - 1) / maxWrite; c.writes > limit {
		t.Errorf("%d bytes took %d writes, want at most %d", total, c.writes, limit)
	}

	// A failing Write closes the connection and the outbox; the lost batch is
	// not counted and later sends are dropped.
	frames, total, _ = frameSet(10, 100)
	c = newCountingConn(1)
	o, om := drain(c, frames, total)
	if !c.closed {
		t.Error("connection left open after a failed write")
	}
	if n, b := om.framesOut.Value(), om.bytesOut.Value(); n != 0 || b != 0 {
		t.Errorf("counters after a failed write: %d frames %d bytes, want 0", n, b)
	}
	o.send([]byte{1, 2, 3})
	o.mu.Lock()
	queued, closed := len(o.queue), o.closed
	o.mu.Unlock()
	if queued != 0 || !closed {
		t.Errorf("after a failed write: outbox closed %v, %d frames queued by a later send", closed, queued)
	}
}

// TestRemotePingPong: the transport answers a Ping with a matching Pong
// without dispatching it into the query engine.
func TestRemotePingPong(t *testing.T) {
	s := testServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, EncodeHello(9)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, messageFrame(msg.Ping{Token: 0xfeed})); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		payload, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("no pong before deadline: %v", err)
		}
		m, _, err := wire.DecodeTraced(payload)
		if err != nil {
			t.Fatal(err)
		}
		if pong, ok := m.(msg.Pong); ok {
			if pong.Token != 0xfeed {
				t.Fatalf("pong token = %#x", pong.Token)
			}
			return
		}
	}
}

// TestRemoteObjectReconnectsAndResyncs: with DisconnectGrace on the server
// and Reconnect on the object, killing the server-side connection does not
// tear down the object's focal query; the object redials, resyncs, and the
// result converges back.
func TestRemoteObjectReconnectsAndResyncs(t *testing.T) {
	s, err := ListenAndServe(ServerConfig{
		Addr:            "127.0.0.1:0",
		UoD:             geo.NewRect(0, 0, 100, 100),
		Alpha:           5,
		DisconnectGrace: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	o1, err := Dial(ObjectConfig{
		Addr: s.Addr().String(), UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5,
		OID: 1, Pos: geo.Pt(50, 50),
		MaxVel: 100000, Props: model.Props{Key: 1},
		TickInterval: 2 * time.Millisecond,
		Reconnect:    true, RedialInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o1.Close)
	dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))

	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 2 }) {
		t.Fatalf("precondition: result = %v", s.Result(qid))
	}

	// Kill the focal object's server-side connection out from under it.
	s.mu.Lock()
	sc := s.conns[1]
	s.mu.Unlock()
	sc.conn.Close()

	// The object redials within the grace period: the query survives and
	// the result converges back to both objects.
	if !waitFor(t, 4*time.Second, func() bool {
		r := s.Result(qid)
		return s.NumQueries() == 1 && len(r) == 2 && r[0] == 1 && r[1] == 2
	}) {
		t.Fatalf("after reconnect: queries = %d, result = %v", s.NumQueries(), s.Result(qid))
	}
}

// TestRemoteReconnectReplacesSession: dialing again with the same object ID
// supersedes the old connection (device rebooted); tracking continues.
func TestRemoteReconnectReplacesSession(t *testing.T) {
	s := testServer(t)
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 1 }) {
		t.Fatal("initial tracking failed")
	}
	// Reconnect with the same OID at a position inside the region.
	o1b := dialObject(t, s, 1, geo.Pt(50.5, 50), geo.Vec(0, 0))
	_ = o1b
	if !waitFor(t, 3*time.Second, func() bool { return s.NumConnected() == 1 }) {
		t.Fatalf("connections = %d after reconnect", s.NumConnected())
	}
	// The focal still tracks itself.
	if !waitFor(t, 3*time.Second, func() bool {
		for _, oid := range s.Result(qid) {
			if oid == 1 {
				return true
			}
		}
		return false
	}) {
		t.Fatalf("tracking lost after reconnect: %v", s.Result(qid))
	}
}
