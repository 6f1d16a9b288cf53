package remote

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"

	"mobieyes/internal/model"
	"mobieyes/internal/obs"
)

// AdminServer exposes a line-based text interface for managing a running
// Server — the operational surface of a deployment, usable with netcat. One
// command per line; `help` lists them all: adminCommands, then the server's
// debug views (Server.Views), which answer by their Word with the same text
// as their /debug/ URL plus a "." line. Errors are one "err …" line.
type AdminServer struct {
	ln   net.Listener
	srv  *Server
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mu       sync.Mutex
	sessions map[net.Conn]struct{}
}

// ServeAdmin starts the admin listener on addr for srv.
func ServeAdmin(addr string, srv *Server) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &AdminServer{ln: ln, srv: srv, done: make(chan struct{}),
		sessions: make(map[net.Conn]struct{})}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		acceptLoop(ln, a.done, func(conn net.Conn) {
			a.wg.Add(1)
			go func() {
				defer a.wg.Done()
				a.serveSession(conn)
			}()
		})
	}()
	return a, nil
}

// Addr returns the bound admin address.
func (a *AdminServer) Addr() net.Addr { return a.ln.Addr() }

// Close stops the admin listener and terminates active sessions.
func (a *AdminServer) Close() {
	a.once.Do(func() {
		close(a.done)
		a.ln.Close()
		a.mu.Lock()
		for conn := range a.sessions {
			conn.Close()
		}
		a.mu.Unlock()
	})
	a.wg.Wait()
}

func (a *AdminServer) serveSession(conn net.Conn) {
	a.mu.Lock()
	a.sessions[conn] = struct{}{}
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.sessions, conn)
		a.mu.Unlock()
		conn.Close()
	}()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		select {
		case <-a.done:
			return
		default:
		}
		if !a.handleCommand(conn, strings.Fields(sc.Text())) {
			return
		}
	}
}

// adminCommands are the admin port's own commands, usage → doc; help lists
// them before the debug views.
var adminCommands = [][2]string{
	{"install <focalOID> <radius> <permille>", "install a circular query → qid <id>"},
	{"remove <qid>", "remove a query → ok (err unknown qid if none)"},
	{"result <qid>", "a query's result → result <id> <oid…>"},
	{"conns", "connected objects → conns <n>"},
	{"stats", "traffic totals → stats <up> <down> <upB> <downB>"},
	{"STATS", "the metric registry in Prometheus text format"},
	{"SUB <qid> [n N]", "snapshot, then n (default 10) live result deltas; qid 0 = all (needs -stream)"},
	{"snapshot <path>", "write a state snapshot → ok"},
	{"help", "this list"},
	{"quit", "close the session"},
}

// handleCommand executes one admin command; false ends the session.
func (a *AdminServer) handleCommand(w io.Writer, fields []string) bool {
	if len(fields) == 0 {
		return true
	}
	views := a.srv.Views()
	for _, v := range views {
		if v.Word == fields[0] {
			v.ServeWords(w, fields[1:])
			return true
		}
	}
	switch fields[0] {
	case "install":
		if len(fields) != 4 {
			fmt.Fprintln(w, "err usage: install <focalOID> <radius> <permille>")
			return true
		}
		focal, err1 := strconv.ParseInt(fields[1], 10, 32)
		radius, err2 := strconv.ParseFloat(fields[2], 64)
		permille, err3 := strconv.ParseInt(fields[3], 10, 32)
		// The containment test compares squared distances with r², so a
		// radius whose square overflows (NaN, ±Inf, 1e308) is refused too.
		if err1 != nil || err2 != nil || err3 != nil || focal <= 0 ||
			!(radius > 0) || math.IsInf(radius*radius, 0) || permille < 0 || permille > 1000 {
			fmt.Fprintln(w, "err bad arguments")
			return true
		}
		qid := a.srv.InstallQuery(model.ObjectID(focal),
			model.CircleRegion{R: radius},
			model.Filter{Seed: uint64(focal)*7919 + 13, Permille: uint32(permille)},
			1000)
		fmt.Fprintf(w, "qid %d\n", qid)
	case "remove":
		qid, ok := parseQID(w, fields)
		if !ok {
			return true
		}
		if a.srv.RemoveQuery(qid) {
			fmt.Fprintln(w, "ok")
		} else {
			fmt.Fprintln(w, "err unknown qid")
		}
	case "result":
		qid, ok := parseQID(w, fields)
		if !ok {
			return true
		}
		res := a.srv.Result(qid)
		fmt.Fprintf(w, "result %d", qid)
		for _, oid := range res {
			fmt.Fprintf(w, " %d", oid)
		}
		fmt.Fprintln(w)
	case "conns":
		fmt.Fprintf(w, "conns %d\n", a.srv.NumConnected())
	case "stats":
		up, down, upB, downB, _ := a.srv.Stats()
		fmt.Fprintf(w, "stats %d %d %d %d\n", up, down, upB, downB)
	case "STATS":
		a.srv.Metrics().WritePrometheus(w)
		fmt.Fprintln(w, ".")
	case "SUB":
		a.handleSub(w, fields[1:])
	case "snapshot":
		if len(fields) != 2 {
			fmt.Fprintln(w, "err usage: snapshot <path>")
			return true
		}
		if err := a.writeSnapshot(fields[1]); err != nil {
			fmt.Fprintf(w, "err %v\n", err)
			return true
		}
		fmt.Fprintln(w, "ok")
	case "help":
		for _, c := range adminCommands {
			fmt.Fprintf(w, "%-40s %s\n", c[0], c[1])
		}
		obs.WriteIndex(w, views, true)
		fmt.Fprintln(w, ".")
	case "quit":
		return false
	default:
		fmt.Fprintln(w, "err unknown command")
	}
	return true
}

func parseQID(w io.Writer, fields []string) (model.QueryID, bool) {
	if len(fields) != 2 {
		fmt.Fprintf(w, "err usage: %s <qid>\n", fields[0])
		return 0, false
	}
	qid, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		fmt.Fprintln(w, "err bad qid")
		return 0, false
	}
	return model.QueryID(qid), true
}

// handleSub serves the SUB command: a snapshot of the subscribed query (or
// all queries for qid 0), then up to n live delta events, "." terminated —
// the admin-plane twin of the SSE gateway, with the same bounded-buffer
// eviction protecting the engine from a stalled session.
func (a *AdminServer) handleSub(w io.Writer, args []string) {
	tap := a.srv.Stream()
	if tap == nil {
		fmt.Fprintln(w, "err streaming disabled")
		return
	}
	// The leading qid is positional; the rest follow the views' filter rules.
	f, err := obs.ParseWords(append([]string{"qid"}, args...), []string{"qid", "n"})
	if err != nil {
		fmt.Fprintf(w, "err %v\n", err)
		return
	}
	qid, _ := f.Int("qid")
	n, ok := f.Int("n")
	if !ok {
		n = 10
	}

	sub, snap := tap.Subscribe(qid, 1024)
	defer sub.Close()
	for _, e := range snap {
		fmt.Fprintf(w, "snapshot qid %d seq %d members", e.QID, e.Seq)
		for _, oid := range e.Members {
			fmt.Fprintf(w, " %d", oid)
		}
		fmt.Fprintln(w)
	}
	for seen := int64(0); seen < n; {
		select {
		case <-a.done:
			return
		case <-sub.Ready():
		}
		evs, evicted := sub.Drain()
		for _, ev := range evs {
			if seen >= n {
				break
			}
			verb := "leave"
			if ev.Enter {
				verb = "enter"
			}
			if _, err := fmt.Fprintf(w, "event qid %d seq %d %s %d\n",
				ev.QID, ev.Seq, verb, ev.OID); err != nil {
				return // session gone
			}
			seen++
		}
		if evicted {
			fmt.Fprintln(w, "err evicted")
			return
		}
	}
	fmt.Fprintln(w, ".")
}

func (a *AdminServer) writeSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.srv.Snapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
