package remote

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mobieyes/internal/geo"
	"mobieyes/internal/history"
	"mobieyes/internal/model"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/stream"
	"mobieyes/internal/obs/telemetry"
	"mobieyes/internal/obs/trace"
)

// viewClient asks one view over both transports: the admin port and the
// HTTP endpoint serving Server.Views.
type viewClient struct {
	t     *testing.T
	admin *adminSession
	base  string // http://host:port
}

// ask sends "Word k v …" to the admin port and returns its reply: the body
// lines (newline-terminated, "." stripped), or the one "err …" line.
func (c viewClient) ask(line string) string {
	c.t.Helper()
	if _, err := fmt.Fprintln(c.admin.conn, line); err != nil {
		c.t.Fatal(err)
	}
	var b strings.Builder
	for c.admin.sc.Scan() {
		txt := c.admin.sc.Text()
		if b.Len() == 0 && strings.HasPrefix(txt, "err ") {
			return txt
		}
		if txt == "." {
			return b.String()
		}
		b.WriteString(txt + "\n")
	}
	c.t.Fatalf("reply to %q never terminated", line)
	return ""
}

// get fetches path from the HTTP endpoint.
func (c viewClient) get(path string) (int, string) {
	c.t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// same asks v with filters (key, value pairs) over both transports and
// reports whether the answers agree: the admin body minus its "." equals the
// HTTP 200 body byte for byte, or the admin "err X" line equals an HTTP
// 4xx body "X". It returns the admin answer.
func (c viewClient) same(v obs.View, filters []string) (string, bool) {
	words := append([]string{v.Word}, filters...)
	q := url.Values{}
	for i := 0; i+1 < len(filters); i += 2 {
		q.Add(filters[i], filters[i+1])
	}
	admin := c.ask(strings.Join(words, " "))
	code, body := c.get(v.Path + "?" + q.Encode())
	if msg, isErr := strings.CutPrefix(admin, "err "); isErr {
		return admin, code >= 400 && code < 500 && body == msg+"\n"
	}
	return admin, code == http.StatusOK && body == admin
}

func newViewClient(t *testing.T, s *Server, reg *obs.Registry) viewClient {
	t.Helper()
	adm, err := ServeAdmin("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adm.Close)
	ms, err := obs.ListenAndServe("127.0.0.1:0", reg, s.Views()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	return viewClient{t: t, admin: dialAdmin(t, adm), base: "http://" + ms.Addr().String()}
}

// TestViewTransportParity is the oracle for "thin adapters": on a live TCP
// deployment with tracing, costs, stream, history, a telemetry plane and a
// 2-node router, every view of Server.Views answers byte-identically on the
// admin port and over HTTP for every filter key it accepts (and for
// rejected filters, with the same error), ?format=json decodes into the
// view's own body type, /debug/ and help list every view, and a server with
// every backing off answers each view with 404 and "err … disabled".
func TestViewTransportParity(t *testing.T) {
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(4096)
	acct := cost.New()
	s, err := ListenAndServe(ServerConfig{
		Addr: "127.0.0.1:0", UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5,
		Backend: nodesBackend(2), Metrics: reg, Trace: rec, Costs: acct,
		Stream: stream.NewTap(), History: history.NewStore(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.backend.SetTelemetry(telemetry.New(telemetry.Config{Metrics: reg, Trace: rec, Costs: acct}))
	c := newViewClient(t, s, reg)

	o1 := dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	o2 := dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 2 }) {
		t.Fatalf("result never converged: %v", s.Result(qid))
	}
	// Quiesce: with the devices gone, only the 1 s housekeeping tick still
	// changes what a view reports, so a comparison that straddles it is
	// simply asked again.
	o1.Close()
	o2.Close()
	if !waitFor(t, 3*time.Second, func() bool { return s.NumConnected() == 0 && len(s.Result(qid)) == 0 }) {
		t.Fatal("objects never departed")
	}
	var tid trace.ID
	for _, e := range rec.Events(trace.Filter{}) {
		if e.Trace != 0 {
			tid = e.Trace
			break
		}
	}
	q, tr := strconv.FormatInt(int64(qid), 10), strconv.FormatUint(uint64(tid), 10)

	// Filters per view, as key value pairs; each view's accepted keys must
	// all appear. The trailing cases are rejected on both transports.
	cases := map[string][][]string{
		"events": {nil, {"n", "5"}, {"n", "0"}, {"trace", tr}, {"oid", "1"}, {"qid", q},
			{"actor", "router"}, {"qid", q, "causal", "1"}, {"oid", "1", "causal", "0"},
			{"n", "-1"}, {"causal", "2"}},
		"latency": {nil},
		"costs": {nil, {"cell", "210"}, {"station", "0"}, {"qid", q}, {"oid", "1"},
			{"oid", "99"}, {"cell", "4294967506"}, {"qid", q, "oid", "1"}, {"cell", "x"}},
		"history": {nil, {"qid", q}, {"oid", "1"}, {"qid", "99"}, {"oid", "1", "qid", q}},
		"cluster": {nil},
		"nodes":   {nil},
	}
	views := s.Views()
	for _, v := range views {
		t.Run(v.Name, func(t *testing.T) {
			vc := c
			vc.t = t
			fs, ok := cases[v.Name]
			if !ok {
				t.Fatalf("no parity cases for view %q", v.Name)
			}
			for _, k := range v.Keys {
				if !slices.ContainsFunc(fs, func(f []string) bool { return slices.Contains(f, k) }) {
					t.Errorf("filter %q of view %s is never exercised", k, v.Name)
				}
			}
			for _, f := range append(fs, []string{"bogus", "1"}, []string{"zeta", "1", "bogus", "2"}) {
				var answer string
				ok := false
				for try := 0; try < 20 && !ok; try++ {
					if try > 0 {
						time.Sleep(20 * time.Millisecond)
					}
					answer, ok = vc.same(v, f)
				}
				if !ok {
					t.Errorf("%s %v: admin and HTTP disagree; admin said:\n%s", v.Word, f, answer)
					continue
				}
				if strings.HasPrefix(answer, "err ") {
					continue
				}
				// ?format=json decodes into the view's own body type.
				args, err := obs.ParseWords(f, v.Keys)
				if err != nil {
					t.Fatal(err)
				}
				body, err := v.Get(args)
				if err != nil {
					t.Fatal(err)
				}
				code, js := vc.get(v.Path + "?format=json&" + strings.Join(pairs(f), "&"))
				dec := json.NewDecoder(strings.NewReader(js))
				dec.DisallowUnknownFields()
				if err := dec.Decode(reflect.New(reflect.TypeOf(body)).Interface()); code != http.StatusOK || err != nil {
					t.Errorf("%s %v: JSON (%d) does not decode into %T: %v\n%s", v.Path, f, code, body, err, js)
				}
			}
		})
	}
	if got := c.ask("TRACE 0"); strings.Count(got, "\n") < strings.Count(c.ask("TRACE 1"), "\n") {
		t.Errorf("TRACE 0 (all) answered fewer events than TRACE 1")
	}
	if got := c.ask("COSTS cell 4294967506"); got != "err cell 4294967506 not found" {
		t.Errorf("cell 2^32+210 answered %q, not a miss", got)
	}

	// The index and help are rendered from the same table.
	_, index := c.get("/debug/")
	help := c.ask("help")
	for _, v := range views {
		if !strings.Contains(index, v.Path) || !strings.Contains(help, "\n"+v.Word+" ") {
			t.Errorf("view %s missing from /debug/ or help:\n%s\n%s", v.Name, index, help)
		}
	}
	for _, cmd := range adminCommands {
		if !strings.Contains(help, cmd[0]) {
			t.Errorf("help lacks %q", cmd[0])
		}
	}

	// Every observer off, and every view but nodes answers disabled, alike
	// on both transports; the router always has nodes to list.
	off, err := ListenAndServe(ServerConfig{Addr: "127.0.0.1:0", UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(off.Close)
	oc := newViewClient(t, off, obs.NewRegistry())
	for _, v := range off.Views() {
		if v.Name == "nodes" {
			if got, ok := oc.same(v, nil); !ok || !strings.Contains(got, "node 0 live") {
				t.Errorf("nodes on a default server: admin %q", got)
			}
			continue
		}
		code, body := oc.get(v.Path)
		if got := oc.ask(v.Word); code != http.StatusNotFound || !strings.HasSuffix(body, " disabled\n") ||
			got != "err "+strings.TrimSuffix(body, "\n") {
			t.Errorf("disabled %s: HTTP %d %q, admin %q", v.Name, code, body, got)
		}
	}
}

// pairs URL-encodes key value filter pairs as "k=v" terms.
func pairs(f []string) []string {
	var out []string
	for i := 0; i+1 < len(f); i += 2 {
		out = append(out, url.QueryEscape(f[i])+"="+url.QueryEscape(f[i+1]))
	}
	return out
}

// flakyListener fails Accept with an EMFILE-like error while fails is
// positive, and queues failsAfterConn more failures after every connection
// it accepts.
type flakyListener struct {
	net.Listener
	calls, fails   atomic.Int64
	failsAfterConn int64
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	if l.fails.Add(-1) >= 0 {
		return nil, fmt.Errorf("accept: too many open files")
	}
	conn, err := l.Listener.Accept()
	l.fails.Store(l.failsAfterConn)
	return conn, err
}

// TestAcceptLoopBacksOff: a persistently failing Accept is retried with a
// growing pause (5 ms doubling, not a busy spin), serving resumes when the
// errors stop, the pause resets after each accepted connection, and closing
// done ends the loop.
func TestAcceptLoopBacksOff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fl := &flakyListener{Listener: ln, failsAfterConn: 4}
	fl.fails.Store(1 << 40)
	done, exited := make(chan struct{}), make(chan struct{})
	served := make(chan net.Conn, 4)
	go func() {
		defer close(exited)
		acceptLoop(fl, done, func(c net.Conn) { served <- c })
	}()

	time.Sleep(50 * time.Millisecond)
	if n := fl.calls.Load(); n > 10 {
		t.Fatalf("%d Accept calls in 50 ms of persistent errors: the loop spins", n)
	}
	fl.fails.Store(0)
	dialServed := func() time.Duration {
		start := time.Now()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		select {
		case sc := <-served:
			sc.Close()
		case <-time.After(3 * time.Second):
			t.Fatal("serving never resumed after the errors stopped")
		}
		return time.Since(start)
	}
	dialServed()
	// Four failures after a success cost 5+10+20+40 ms with the pause reset,
	// 80+160+320+640 ms without.
	if d := dialServed(); d > 600*time.Millisecond {
		t.Errorf("connection after 4 post-success errors took %v: the pause did not reset", d)
	}
	close(done)
	ln.Close()
	select {
	case <-exited:
	case <-time.After(3 * time.Second):
		t.Fatal("accept loop did not stop after done closed")
	}
}
