package remote

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"

	"mobieyes/internal/core"
	"mobieyes/internal/history"
	"mobieyes/internal/model"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
)

// AdminServer exposes a line-based text interface for managing a running
// Server — the operational surface of a deployment, usable with netcat:
//
//	install <focalOID> <radius> <permille>   → "qid <id>"
//	remove <qid>                             → "ok"
//	result <qid>                             → "result <id> <oid…>"
//	conns                                    → "conns <n>"
//	nodes                                    → the router's span epoch and
//	                                           per-node cell spans and table
//	                                           sizes (-shards and cluster
//	                                           backends alike), "." terminated
//	                                           ("err not clustered" only for a
//	                                           custom non-router Backend)
//	stats                                    → "stats <up> <down> <upB> <downB>"
//	STATS                                    → full metric registry in Prometheus
//	                                           text format, terminated by a "." line
//	TRACE [n | oid <id> | qid <id> | trace <id>]
//	                                         → flight-recorder event dump (most
//	                                           recent n, default 40; or the causal
//	                                           timeline of an object / query; or
//	                                           one trace chain), "." terminated
//	LAT                                      → per-stage pipeline latency table
//	                                           (dispatch/table/fanout/deliver +
//	                                           end-to-end quantiles derived from
//	                                           the flight recorder), "." terminated
//	                                           ("err tracing disabled" without
//	                                           -trace-events)
//	COSTS [qid <id> | oid <id>]              → cost-ledger report (global traffic
//	                                           by kind, compute units, node
//	                                           attribution, quality) or one
//	                                           entity's tally, "." terminated
//	HEALTH                                   → cluster telemetry watchdog report:
//	                                           health line, per-node state, and
//	                                           active alerts, "." terminated
//	                                           ("err telemetry disabled" without
//	                                           a telemetry plane)
//	SUB <qid> [n]                            → live result subscription with
//	                                           snapshot-then-delta semantics:
//	                                           one "snapshot" line per query
//	                                           (qid 0 = every query), then up
//	                                           to n (default 10) "event" delta
//	                                           lines as they happen, "."
//	                                           terminated ("err streaming
//	                                           disabled" without a stream tap;
//	                                           "err evicted" if this session
//	                                           falls behind the event rate)
//	HIST [qid <id> | oid <id>]               → history-store summary, or a
//	                                           query's replay timeline /
//	                                           an object's position samples,
//	                                           "." terminated ("err history
//	                                           disabled" without a store)
//	snapshot <path>                          → "ok" (writes a state snapshot)
//	quit                                     → closes the session
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
	go a.acceptLoop()
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

func (a *AdminServer) acceptLoop() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			select {
			case <-a.done:
				return
			default:
				continue
			}
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.serveSession(conn)
		}()
	}
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

// handleCommand executes one admin command; false ends the session.
func (a *AdminServer) handleCommand(conn net.Conn, fields []string) bool {
	if len(fields) == 0 {
		return true
	}
	switch fields[0] {
	case "install":
		if len(fields) != 4 {
			fmt.Fprintln(conn, "err usage: install <focalOID> <radius> <permille>")
			return true
		}
		focal, err1 := strconv.Atoi(fields[1])
		radius, err2 := strconv.ParseFloat(fields[2], 64)
		permille, err3 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil || err3 != nil || radius <= 0 || permille < 0 || permille > 1000 {
			fmt.Fprintln(conn, "err bad arguments")
			return true
		}
		qid := a.srv.InstallQuery(model.ObjectID(focal),
			model.CircleRegion{R: radius},
			model.Filter{Seed: uint64(focal)*7919 + 13, Permille: uint32(permille)},
			1000)
		fmt.Fprintf(conn, "qid %d\n", qid)
	case "remove":
		qid, ok := parseQID(conn, fields)
		if !ok {
			return true
		}
		a.srv.RemoveQuery(qid)
		fmt.Fprintln(conn, "ok")
	case "result":
		qid, ok := parseQID(conn, fields)
		if !ok {
			return true
		}
		res := a.srv.Result(qid)
		fmt.Fprintf(conn, "result %d", qid)
		for _, oid := range res {
			fmt.Fprintf(conn, " %d", oid)
		}
		fmt.Fprintln(conn)
	case "conns":
		fmt.Fprintf(conn, "conns %d\n", a.srv.NumConnected())
	case "nodes":
		cs, ok := a.srv.backend.(*core.ClusterServer)
		if !ok {
			fmt.Fprintln(conn, "err not clustered")
			return true
		}
		fmt.Fprintf(conn, "epoch %d\n", cs.Epoch())
		for _, sp := range cs.Spans() {
			state := "live"
			if !sp.Live {
				state = "dead"
			}
			fmt.Fprintf(conn, "node %d %s cells [%d,%d) focals %d queries %d",
				sp.Node, state, sp.Lo, sp.Hi, sp.Focals, sp.Queries)
			if sp.Fault != "" {
				// Unreachable node: its counts above are zeros because the
				// transport is dead, not because its tables are empty.
				fmt.Fprintf(conn, " fault %q", sp.Fault)
			}
			fmt.Fprintln(conn)
		}
		fmt.Fprintln(conn, ".")
	case "stats":
		up, down, upB, downB, _ := a.srv.Stats()
		fmt.Fprintf(conn, "stats %d %d %d %d\n", up, down, upB, downB)
	case "STATS":
		a.srv.Metrics().WritePrometheus(conn)
		fmt.Fprintln(conn, ".")
	case "TRACE":
		a.handleTrace(conn, fields[1:])
	case "LAT":
		lv := a.srv.Latency()
		if lv == nil {
			fmt.Fprintln(conn, "err tracing disabled")
			return true
		}
		lv.WriteText(conn)
		fmt.Fprintln(conn, ".")
	case "COSTS":
		a.handleCosts(conn, fields[1:])
	case "SUB":
		a.handleSub(conn, fields[1:])
	case "HIST":
		a.handleHist(conn, fields[1:])
	case "HEALTH":
		p := a.srv.Telemetry()
		if p == nil {
			fmt.Fprintln(conn, "err telemetry disabled")
			return true
		}
		p.WriteHealth(conn)
		fmt.Fprintln(conn, ".")
	case "snapshot":
		if len(fields) != 2 {
			fmt.Fprintln(conn, "err usage: snapshot <path>")
			return true
		}
		if err := a.writeSnapshot(fields[1]); err != nil {
			fmt.Fprintf(conn, "err %v\n", err)
			return true
		}
		fmt.Fprintln(conn, "ok")
	case "quit":
		return false
	default:
		fmt.Fprintln(conn, "err unknown command")
	}
	return true
}

func parseQID(conn net.Conn, fields []string) (model.QueryID, bool) {
	if len(fields) != 2 {
		fmt.Fprintf(conn, "err usage: %s <qid>\n", fields[0])
		return 0, false
	}
	qid, err := strconv.Atoi(fields[1])
	if err != nil {
		fmt.Fprintln(conn, "err bad qid")
		return 0, false
	}
	return model.QueryID(qid), true
}

// handleTrace serves the TRACE command: a human-readable dump of the flight
// recorder, terminated by a "." line so scripted clients know where it ends.
func (a *AdminServer) handleTrace(conn net.Conn, args []string) {
	rec := a.srv.Tracer()
	if rec == nil {
		fmt.Fprintln(conn, "err tracing disabled")
		return
	}
	var evs []trace.Event
	switch {
	case len(args) == 0:
		evs = rec.Events(trace.Filter{Limit: 40})
	case len(args) == 1:
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			fmt.Fprintln(conn, "err usage: TRACE [n | oid <id> | qid <id> | trace <id>]")
			return
		}
		evs = rec.Events(trace.Filter{Limit: n})
	case len(args) == 2:
		n, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			fmt.Fprintln(conn, "err bad id")
			return
		}
		switch args[0] {
		case "oid":
			evs = rec.Causal(int64(n), 0)
		case "qid":
			evs = rec.Causal(0, int64(n))
		case "trace":
			evs = rec.Events(trace.Filter{Trace: trace.ID(n)})
		default:
			fmt.Fprintln(conn, "err usage: TRACE [n | oid <id> | qid <id> | trace <id>]")
			return
		}
	default:
		fmt.Fprintln(conn, "err usage: TRACE [n | oid <id> | qid <id> | trace <id>]")
		return
	}
	trace.Format(conn, evs)
	fmt.Fprintln(conn, ".")
}

// handleCosts serves the COSTS command: the full cost-ledger report, or one
// query's/object's tally, "." terminated like STATS and TRACE.
func (a *AdminServer) handleCosts(conn net.Conn, args []string) {
	acct := a.srv.Costs()
	if acct == nil {
		fmt.Fprintln(conn, "err accounting disabled")
		return
	}
	switch {
	case len(args) == 0:
		acct.Snapshot().WriteText(conn)
	case len(args) == 2:
		id, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			fmt.Fprintln(conn, "err bad id")
			return
		}
		var (
			t  cost.TallySnap
			ok bool
		)
		switch args[0] {
		case "qid":
			t, ok = acct.QuerySnap(id)
		case "oid":
			t, ok = acct.ObjectSnap(id)
		default:
			fmt.Fprintln(conn, "err usage: COSTS [qid <id> | oid <id>]")
			return
		}
		if !ok {
			fmt.Fprintln(conn, "err no traffic recorded")
			return
		}
		fmt.Fprintf(conn, "%s %d up %d msgs / %d B down %d msgs / %d B\n",
			args[0], t.ID, t.UpMsgs, t.UpBytes, t.DownMsgs, t.DownBytes)
	default:
		fmt.Fprintln(conn, "err usage: COSTS [qid <id> | oid <id>]")
		return
	}
	fmt.Fprintln(conn, ".")
}

// handleSub serves the SUB command: a snapshot of the subscribed query (or
// all queries for qid 0), then up to n live delta events, "." terminated —
// the admin-plane twin of the SSE gateway, with the same bounded-buffer
// eviction protecting the engine from a stalled session.
func (a *AdminServer) handleSub(conn net.Conn, args []string) {
	tap := a.srv.Stream()
	if tap == nil {
		fmt.Fprintln(conn, "err streaming disabled")
		return
	}
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(conn, "err usage: SUB <qid> [n]")
		return
	}
	qid, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil || qid < 0 {
		fmt.Fprintln(conn, "err bad qid")
		return
	}
	n := 10
	if len(args) == 2 {
		n, err = strconv.Atoi(args[1])
		if err != nil || n < 0 {
			fmt.Fprintln(conn, "err bad count")
			return
		}
	}

	sub, snap := tap.Subscribe(qid, 1024)
	defer sub.Close()
	for _, e := range snap {
		fmt.Fprintf(conn, "snapshot qid %d seq %d members", e.QID, e.Seq)
		for _, oid := range e.Members {
			fmt.Fprintf(conn, " %d", oid)
		}
		fmt.Fprintln(conn)
	}
	for seen := 0; seen < n; {
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
			if _, err := fmt.Fprintf(conn, "event qid %d seq %d %s %d\n",
				ev.QID, ev.Seq, verb, ev.OID); err != nil {
				return // session gone
			}
			seen++
		}
		if evicted {
			fmt.Fprintln(conn, "err evicted")
			return
		}
	}
	fmt.Fprintln(conn, ".")
}

// handleHist serves the HIST command: the history store's summary, one
// query's replay timeline, or one object's position samples, "."
// terminated like TRACE and COSTS.
func (a *AdminServer) handleHist(conn net.Conn, args []string) {
	st := a.srv.History()
	if st == nil {
		fmt.Fprintln(conn, "err history disabled")
		return
	}
	switch {
	case len(args) == 0:
		sum := st.Summarize()
		fmt.Fprintf(conn, "history %d bytes %d records appended %d evicted %d\n",
			sum.Bytes, sum.Records, sum.Appended, sum.EvictedRecs)
	case len(args) == 2:
		id, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			fmt.Fprintln(conn, "err bad id")
			return
		}
		switch args[0] {
		case "qid":
			history.WriteText(conn, st.Replay(id))
		case "oid":
			var recs []history.Record
			for _, r := range st.All() {
				if r.Kind == history.KindPos && r.OID == id {
					recs = append(recs, r)
				}
			}
			history.WriteText(conn, recs)
		default:
			fmt.Fprintln(conn, "err usage: HIST [qid <id> | oid <id>]")
			return
		}
	default:
		fmt.Fprintln(conn, "err usage: HIST [qid <id> | oid <id>]")
		return
	}
	fmt.Fprintln(conn, ".")
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
