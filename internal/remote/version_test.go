package remote

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/history"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// recSession is a device connection driven frame by frame that keeps every
// downlink payload it receives except Pongs.
type recSession struct {
	rawSession
	mu     sync.Mutex
	frames [][]byte
}

func dialRec(t *testing.T, s *Server, oid model.ObjectID) *recSession {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := &recSession{rawSession: rawSession{conn: conn, pongs: make(chan uint64, 1)}}
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
			m, _, err := wire.DecodeTraced(payload)
			if err != nil {
				t.Errorf("undecodable downlink %x: %v", payload, err)
				return
			}
			if p, ok := m.(msg.Pong); ok {
				r.pongs <- p.Token
				continue
			}
			r.mu.Lock()
			r.frames = append(r.frames, payload)
			r.mu.Unlock()
		}
	}()
	return r
}

// take returns the frames received so far and forgets them.
func (r *recSession) take() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.frames
	r.frames = nil
	return f
}

// TestHelloVersionCompactDownlinks: a version-2 hello is refused, as
// version 1 was. A version-3 session receives every downlink — broadcasts,
// unicasts and a parked FocalNotify — as the canonical compact frame of its
// message, and the ledger charges each message once, at its framed compact
// size, whether it is sent or a unicast dropped for want of a connection.
func TestHelloVersionCompactDownlinks(t *testing.T) {
	s, _ := graceServer(t, time.Minute)

	rejects := s.om.versionRejects.Value()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello2 := EncodeHello(1)
	hello2[1] = 2
	if err := WriteFrame(conn, hello2); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(bufio.NewReader(conn)); !errors.Is(err, io.EOF) {
		t.Fatalf("hello-2 session: read %v, want the server to close it", err)
	}
	if got := s.om.versionRejects.Value(); got != rejects+1 {
		t.Errorf("version rejects %d, want %d", got, rejects+1)
	}
	if s.connected(1) {
		t.Error("hello-2 session registered")
	}

	dev := dialRec(t, s, 1)
	dev.sync(t)
	pos := geo.Pt(50, 50)
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100)
	dev.send(t, msg.FocalInfoResponse{OID: 1, Pos: pos, Tm: nowHours()})
	dev.send(t, msg.VelocityReport{OID: 1, Pos: pos, Vel: geo.Vec(30, 0), Tm: nowHours()})
	dev.send(t, msg.VelocityReport{OID: 1, Pos: pos, Vel: geo.Vec(0, -30), Tm: nowHours()})
	dev.sync(t)
	s.RemoveQuery(qid)
	dev.sync(t)
	kinds := map[msg.Kind]int{}
	for _, f := range dev.take() {
		m, tid, _ := wire.DecodeTraced(f)
		kinds[m.Kind()]++
		if !bytes.Equal(f, wire.EncodeCompact(m, tid)) {
			t.Errorf("downlink %x is not wire.EncodeCompact of its %v", f, m.Kind())
		}
	}
	if kinds[msg.KindQueryInstall] == 0 || kinds[msg.KindVelocityChange] < 2 || kinds[msg.KindQueryRemove] == 0 || kinds[msg.KindFocalNotify] == 0 {
		t.Errorf("downlinks by kind %v, want an install, a focal notification, two velocity changes and a removal", kinds)
	}

	vc := msg.VelocityChange{Focal: 1, State: model.MotionState{Pos: pos, Tm: 1}}
	absent := msg.QueryInstall{Queries: []msg.QueryState{{QID: 9, Focal: 1, Region: model.CircleRegion{R: 1}}}}
	for _, c := range []struct {
		name string
		send func()
		want int
	}{
		{"broadcast", func() { serverDownlink{s}.Broadcast(grid.CellRange{}, vc) }, len(wire.EncodeCompact(vc, 0))},
		{"dropped unicast", func() { serverDownlink{s}.Unicast(99, absent) }, wire.CompactSize(absent, 0)},
	} {
		_, down0, _, bytes0, _ := s.Stats()
		c.send()
		_, down1, _, bytes1, _ := s.Stats()
		if down1-down0 != 1 || bytes1-bytes0 != int64(4+c.want) {
			t.Errorf("%s: charged %d msgs / %d B, want 1 / %d", c.name, down1-down0, bytes1-bytes0, 4+c.want)
		}
	}

	// A FocalNotify parked while its focal is away goes out compact too.
	s.InstallQuery(1, model.CircleRegion{R: 1}, acceptAll, 100)
	dev.send(t, msg.FocalInfoResponse{OID: 1, Pos: pos, Tm: nowHours()})
	dev.sync(t)
	s.dropSession(t, 1)
	q := s.InstallQuery(1, model.CircleRegion{R: 1}, acceptAll, 100)
	back := dialRec(t, s, 1)
	back.sync(t)
	want := wire.EncodeCompact(msg.FocalNotify{OID: 1, QID: q, Install: true}, 0)
	if frames := back.take(); len(frames) == 0 || !bytes.Equal(frames[0], want) {
		t.Errorf("focal back: first frames %x, want the parked FocalNotify %x", frames, want)
	}
}

// markOrderDown records, for each message the backend sends, whether the
// history store already held the query mark of the install being made.
type markOrderDown struct {
	core.Downlink
	hist *history.Store
	qid  model.QueryID
	log  []string
}

func (d *markOrderDown) record(m msg.Message) {
	marked := slices.ContainsFunc(d.hist.Replay(int64(d.qid)), func(r history.Record) bool {
		return r.Kind == history.KindQuery
	})
	d.log = append(d.log, fmt.Sprintf("%v marked=%v", m.Kind(), marked))
}

func (d *markOrderDown) Broadcast(region grid.CellRange, m msg.Message) {
	d.record(m)
	d.Downlink.Broadcast(region, m)
}

func (d *markOrderDown) Unicast(oid model.ObjectID, m msg.Message) {
	d.record(m)
	d.Downlink.Unicast(oid, m)
}

// TestInstallMarksHistoryBeforeSending: the history store's query mark is
// written before the install's first send, on both install paths — the
// FocalInfoRequest to an unknown focal, and the QueryInstall broadcast and
// FocalNotify to a known one — so no event the install causes can be logged
// ahead of it. The backend runs synchronously, so the order is exact.
func TestInstallMarksHistoryBeforeSending(t *testing.T) {
	hist := history.NewStore(1 << 20)
	rec := &markOrderDown{hist: hist}
	s, err := ListenAndServe(ServerConfig{
		Addr: "127.0.0.1:0", UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5, History: hist,
		Backend: func(g *grid.Grid, opts core.Options, down core.Downlink) (*core.ClusterServer, error) {
			rec.Downlink = down
			return core.NewClusterServer(g, opts, rec, 1), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Query 1 finds focal 7 unknown and asks it for its motion state; once
	// it answers, query 2 on the same focal installs at once.
	for _, c := range []struct {
		qid  model.QueryID
		want []string
	}{
		{1, []string{"FocalInfoRequest marked=true"}},
		{2, []string{"FocalNotify marked=true", "QueryInstall marked=true"}},
	} {
		rec.qid, rec.log = c.qid, nil
		if qid := s.InstallQuery(7, model.CircleRegion{R: 2}, acceptAll, 10); qid != c.qid {
			t.Fatalf("install minted qid %d, want %d", qid, c.qid)
		}
		if !slices.Equal(rec.log, c.want) {
			t.Errorf("install of query %d sent %q, want %q", c.qid, rec.log, c.want)
		}
		s.backend.HandleUplink(msg.FocalInfoResponse{OID: 7, Pos: geo.Pt(50, 50), Tm: nowHours()})
	}
}
