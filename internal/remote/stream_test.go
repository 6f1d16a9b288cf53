package remote

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/history"
	"mobieyes/internal/model"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/stream"
)

func testStreamServer(t *testing.T, shards int) (*Server, *stream.Tap, *history.Store, *cost.Accountant) {
	t.Helper()
	tap := stream.NewTap()
	st := history.NewStore(1 << 20)
	acct := cost.New()
	cfg := ServerConfig{
		Addr:    "127.0.0.1:0",
		UoD:     geo.NewRect(0, 0, 100, 100),
		Alpha:   5,
		Stream:  tap,
		History: st,
		Costs:   acct,
	}
	if shards > 0 {
		cfg.Backend = nodesBackend(shards)
	}
	s, err := ListenAndServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, tap, st, acct
}

// TestRemoteStreamAndHistory drives the full server-tier tee over real TCP:
// the tap streams gap-free sequenced deltas that match the engine's result
// set, the history store records the same transitions plus query lifecycle
// and position samples, and every history byte is charged to the egress
// meter. Runs on the built-in one-node backend (shards=0) and on two nodes.
func TestRemoteStreamAndHistory(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, tap, st, acct := testStreamServer(t, shards)

			// An application listener must still work alongside the tap.
			userEvents := make(chan core.ResultEvent, 256)
			s.SetResultListener(func(ev core.ResultEvent) {
				select {
				case userEvents <- ev:
				default:
				}
			})

			sub, snap := tap.Subscribe(stream.Firehose, 1<<16)
			defer sub.Close()
			if len(snap) != 0 {
				t.Fatalf("pre-traffic snapshot = %v", snap)
			}

			dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
			dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
			if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 2 }) {
				t.Fatal("objects never connected")
			}
			qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)

			if !waitFor(t, 3*time.Second, func() bool {
				members, _ := tap.Result(int64(qid))
				return len(members) == 2
			}) {
				t.Fatalf("tap never converged; engine result %v", s.Result(qid))
			}

			// Gap-free integration from the empty snapshot.
			var seq uint64
			got := map[int64]bool{}
			evs, evicted := sub.Drain()
			if evicted {
				t.Fatal("subscriber evicted")
			}
			for _, ev := range evs {
				if ev.QID != int64(qid) {
					continue
				}
				if ev.Seq != seq+1 {
					t.Fatalf("sequence gap: %d -> %d", seq, ev.Seq)
				}
				seq = ev.Seq
				if ev.Enter {
					got[ev.OID] = true
				} else {
					delete(got, ev.OID)
				}
			}
			if !got[1] || !got[2] || len(got) != 2 {
				t.Fatalf("integrated view = %v", got)
			}
			// The application listener saw the same enters.
			seen := map[model.ObjectID]bool{}
			for len(userEvents) > 0 {
				ev := <-userEvents
				if ev.QID == qid && ev.Entered {
					seen[ev.OID] = true
				}
			}
			if !seen[1] || !seen[2] {
				t.Fatalf("user listener missed enters: %v", seen)
			}

			// History: the query's install mark, its enter transitions with
			// the tap's sequence numbers, and position samples from the
			// uplinks.
			replay := st.Replay(int64(qid))
			if len(replay) == 0 || replay[0].Kind != history.KindQuery ||
				replay[0].OID != 1 || replay[0].X != 3 {
				t.Fatalf("replay head = %+v", replay)
			}
			tl := st.Timeline(int64(qid))
			if len(tl) < 2 || tl[0].Seq != 1 || tl[1].Seq != tl[0].Seq+1 {
				t.Fatalf("timeline = %+v", tl)
			}
			hasPos := false
			for _, r := range st.All() {
				if r.Kind == history.KindPos {
					hasPos = true
					break
				}
			}
			if !hasPos {
				t.Fatal("no position samples recorded")
			}

			// Every history byte was charged at the encode boundary. Clients
			// are still ticking (position samples keep landing), so sandwich
			// the meter read between two store reads: the hook fires inside
			// the store's append critical section, so lo <= charged <= hi.
			_, lo, _, _ := st.Stats()
			eg := acct.Snapshot().Egress
			_, hi, _, _ := st.Stats()
			if eg == nil || eg.HistoryBytes < lo || eg.HistoryBytes > hi || eg.HistoryAppends == 0 {
				t.Fatalf("egress = %+v, store wrote [%d,%d] B", eg, lo, hi)
			}

			// Removal records the lifecycle mark and the implicit leaves.
			s.RemoveQuery(qid)
			if !waitFor(t, 2*time.Second, func() bool {
				replay := st.Replay(int64(qid))
				return len(replay) > 0 && replay[len(replay)-1].Kind == history.KindQueryRemove
			}) {
				t.Fatalf("no query-remove mark; replay = %+v", st.Replay(int64(qid)))
			}
			leaves := 0
			for _, r := range st.Timeline(int64(qid)) {
				if r.Kind == history.KindLeave {
					leaves++
				}
			}
			if leaves != 2 {
				t.Fatalf("leaves on removal = %d, want 2", leaves)
			}
		})
	}
}

// TestRemoteHistoryOnly pins the History-without-Stream path: a private tap
// provides the sequencing, and SetResultListener still reaches the
// application.
func TestRemoteHistoryOnly(t *testing.T) {
	st := history.NewStore(1 << 20)
	s, err := ListenAndServe(ServerConfig{
		Addr:    "127.0.0.1:0",
		UoD:     geo.NewRect(0, 0, 100, 100),
		Alpha:   5,
		History: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if s.Stream() == nil {
		t.Fatal("no private tap for history-only config")
	}
	events := make(chan core.ResultEvent, 64)
	s.SetResultListener(func(ev core.ResultEvent) {
		select {
		case events <- ev:
		default:
		}
	})
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(st.Timeline(int64(qid))) >= 1 }) {
		t.Fatal("history never saw the enter")
	}
	select {
	case ev := <-events:
		if ev.QID != qid || !ev.Entered {
			t.Fatalf("user event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("user listener starved by history tee")
	}
}

// TestAdminSubHist exercises the SUB/HIST admin commands end to end,
// including the disabled-path errors.
func TestAdminSubHist(t *testing.T) {
	s, tap, _, _ := testStreamServer(t, 0)
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 2 }) {
		t.Fatal("objects never connected")
	}
	adm, err := ServeAdmin("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adm.Close)
	as := dialAdmin(t, adm)

	// SUB first, then install: the session sees the (empty) firehose
	// snapshot, then the two live enter deltas.
	if _, err := as.conn.Write([]byte("SUB 0 2\n")); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return tap.Subscribers() >= 1 }) {
		t.Fatal("admin SUB never subscribed")
	}
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	var out strings.Builder
	for as.sc.Scan() {
		if as.sc.Text() == "." {
			break
		}
		out.WriteString(as.sc.Text())
		out.WriteByte('\n')
	}
	if got := out.String(); strings.Count(got, "event qid") != 2 ||
		!strings.Contains(got, "seq 1 enter") || !strings.Contains(got, "seq 2 enter") {
		t.Fatalf("SUB output:\n%s", got)
	}

	// A fresh SUB on the live query snapshots its membership.
	as2 := dialAdmin(t, adm)
	if _, err := as2.conn.Write([]byte("SUB " + itoa(int64(qid)) + " 0\n")); err != nil {
		t.Fatal(err)
	}
	var snapLine string
	for as2.sc.Scan() {
		if as2.sc.Text() == "." {
			break
		}
		snapLine += as2.sc.Text() + "\n"
	}
	if !strings.Contains(snapLine, "seq 2 members 1 2") {
		t.Fatalf("SUB snapshot: %q", snapLine)
	}

	if out := as2.cmdMulti(t, "HIST"); !strings.Contains(out, "history") {
		t.Fatalf("HIST summary: %q", out)
	}
	if out := as2.cmdMulti(t, "HIST qid "+itoa(int64(qid))); !strings.Contains(out, "enter") ||
		!strings.Contains(out, "query focal 1") {
		t.Fatalf("HIST qid output:\n%s", out)
	}
	if out := as2.cmdMulti(t, "HIST oid 1"); !strings.Contains(out, "pos") {
		t.Fatalf("HIST oid output:\n%s", out)
	}
	if out := as2.cmd(t, "HIST bogus 1"); !strings.HasPrefix(out, "err") {
		t.Fatalf("HIST bad scope: %q", out)
	}
	if out := as2.cmd(t, "SUB x"); !strings.HasPrefix(out, "err") {
		t.Fatalf("SUB bad qid: %q", out)
	}

	// Streaming/history disabled: commands degrade to errors.
	plain := testServer(t)
	adm2, err := ServeAdmin("127.0.0.1:0", plain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adm2.Close)
	as3 := dialAdmin(t, adm2)
	if out := as3.cmd(t, "SUB 0"); out != "err streaming disabled" {
		t.Fatalf("SUB disabled: %q", out)
	}
	if out := as3.cmd(t, "HIST"); out != "err history disabled" {
		t.Fatalf("HIST disabled: %q", out)
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// TestAdminRemoveUnknownQIDKeepsHistory: admin remove answers an unknown or
// already-removed qid with one err line and logs no QueryRemove mark for
// it; a real removal answers ok and logs exactly one.
func TestAdminRemoveUnknownQIDKeepsHistory(t *testing.T) {
	st := history.NewStore(1 << 20)
	s, err := ListenAndServe(ServerConfig{
		Addr:    "127.0.0.1:0",
		UoD:     geo.NewRect(0, 0, 100, 100),
		Alpha:   5,
		History: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	a := &AdminServer{srv: s}
	run := func(line string) string {
		var out bytes.Buffer
		a.handleCommand(&out, strings.Fields(line))
		return out.String()
	}
	if got := run("install 1 3 1000"); got != "qid 1\n" { // pending: focal 1 is not connected
		t.Fatalf("install → %q", got)
	}
	for _, tc := range []struct {
		line, want string
		marks      int
	}{
		{"remove 7", "err unknown qid\n", 0},
		{"remove 1", "ok\n", 1},
		{"remove 1", "err unknown qid\n", 0},
	} {
		before := len(st.All())
		if got := run(tc.line); got != tc.want {
			t.Errorf("%q → %q, want %q", tc.line, got, tc.want)
		}
		if got := len(st.All()) - before; got != tc.marks {
			t.Errorf("%q appended %d history records, want %d", tc.line, got, tc.marks)
		}
	}
}
