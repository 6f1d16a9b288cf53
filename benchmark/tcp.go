package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/remote"
	"mobieyes/internal/wire"
)

const (
	// satWindow ops may be outstanding per connection in the closed loop,
	// fenced by a Ping after every fenceEvery-th op. A device never waits
	// for an acknowledgement, so one op in flight would measure the
	// loopback round trip, not the server.
	satWindow  = 64
	fenceEvery = 8
	// fenceTimeout is how long after a phase's end its last fence may take.
	fenceTimeout = 5 * time.Second
)

// tcpSystem is the TCP system under test: a remote.Server on loopback with
// its default backend, and one connection per issuer.
type tcpSystem struct {
	w     workload
	srv   *remote.Server
	conns []*conn
	gen   *generator
}

// conn is one issuer's connection. Its writer side belongs to one goroutine
// at a time; its reader goroutine attributes every Pong to the current phase.
type conn struct {
	c     net.Conn
	bw    *bufio.Writer
	phase atomic.Pointer[connPhase]
	dead  chan struct{} // closed when the reader exits

	framesWritten int64 // writer-owned
	downFrames    atomic.Int64
	downBytes     atomic.Int64
	decodeErrors  atomic.Int64
}

// connPhase is one connection's share of one phase. Tokens count the ops
// written on the connection since the phase began, so Pong(t) says ops 1..t
// are done.
type connPhase struct {
	start  time.Time
	acked  atomic.Uint64
	signal chan struct{} // poked on every Pong; capacity 1: a poke is not a count

	// Reader-owned until the writer has seen the phase's last token acked.
	last    uint64
	windows []int64   // closed loop: ops completed per window of Pong arrival
	log     *pacedLog // open loop
	// due[t-1] and sent[t-1] are op t's due time and the time its fence was
	// flushed, as offsets from start (open loop; written before the flush).
	due, sent []atomic.Int64
	waits     *lane // traced open loop: flush→Pong spans
}

func (p *connPhase) onPong(token uint64, now time.Time) {
	el := now.Sub(p.start)
	if p.windows != nil {
		p.windows[windowOf(el, len(p.windows))] += int64(token - p.last)
	}
	if p.log != nil && token >= 1 && int(token) <= len(p.due) {
		p.log.record(time.Duration(p.due[token-1].Load()), el)
		if p.waits != nil {
			p.waits.add(spanPongWait, p.start.Add(time.Duration(p.sent[token-1].Load())), now)
		}
	}
	p.last = token
	p.acked.Store(token)
	select {
	case p.signal <- struct{}{}:
	default:
	}
}

func dial(addr string, hello model.ObjectID) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &conn{c: nc, bw: bufio.NewWriterSize(nc, 64<<10), dead: make(chan struct{})}
	c.begin(&connPhase{})
	err = c.writeFrame(remote.EncodeHello(hello))
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// readLoop is the receiving device: it decodes every downlink frame and
// hands Pongs to the current phase.
func (c *conn) readLoop() {
	defer close(c.dead)
	br := bufio.NewReaderSize(c.c, 64<<10)
	for {
		payload, err := remote.ReadFrame(br)
		if err != nil {
			return
		}
		m, _, err := wire.DecodeTraced(payload)
		if err != nil {
			c.decodeErrors.Add(1)
			return
		}
		if pong, ok := m.(msg.Pong); ok {
			c.phase.Load().onPong(pong.Token, time.Now())
			continue
		}
		c.downFrames.Add(1)
		c.downBytes.Add(int64(4 + len(payload)))
	}
}

func (c *conn) writeFrame(payload []byte) error {
	c.framesWritten++
	return remote.WriteFrame(c.bw, payload)
}

// send writes one uplink into the connection's buffer.
func (c *conn) send(m msg.Message, ln *lane) error {
	e := ln.begin(spanEncode)
	payload := wire.EncodeTraced(m, 0)
	ln.end(e)
	w := ln.begin(spanWrite)
	err := c.writeFrame(payload)
	ln.end(w)
	return err
}

// fence writes a Ping carrying token and flushes: the Pong returns once the
// server has dispatched every frame before it.
func (c *conn) fence(token uint64, ln *lane) error {
	w := ln.begin(spanWrite)
	defer ln.end(w)
	if err := c.writeFrame(wire.Encode(msg.Ping{Token: token})); err != nil {
		return err
	}
	return c.bw.Flush()
}

// await blocks until the phase has token acked, the connection dies, or the
// deadline passes.
func (c *conn) await(p *connPhase, token uint64, deadline time.Time) error {
	for p.acked.Load() < token {
		t := time.NewTimer(time.Until(deadline))
		select {
		case <-p.signal:
			t.Stop()
		case <-c.dead:
			t.Stop()
			if p.acked.Load() >= token {
				return nil
			}
			return fmt.Errorf("connection lost with %d ops unfenced", token-p.acked.Load())
		case <-t.C:
			return fmt.Errorf("fence not returned: %d ops unfenced", token-p.acked.Load())
		}
	}
	return nil
}

// begin starts a phase on the connection; no op may be in flight.
func (c *conn) begin(p *connPhase) *connPhase {
	p.signal = make(chan struct{}, 1)
	c.phase.Store(p)
	return p
}

// pump is the pipelined closed loop on one connection: it sends next()'s
// messages until next returns nil, keeping at most satWindow unfenced, then
// fences the rest. It returns the ops written and how many of them were
// never fenced.
func (c *conn) pump(p *connPhase, next func(ln *lane) msg.Message, ln *lane, every int) (issued, failed int64, err error) {
	var token uint64
	for sample := 0; ; {
		if token-p.acked.Load() >= satWindow {
			if err = c.await(p, token-satWindow+fenceEvery, time.Now().Add(fenceTimeout)); err != nil {
				break
			}
		}
		var l *lane
		if sample++; sample == every {
			l, sample = ln, 0
		}
		op := l.begin(spanOp)
		m := next(l)
		if m == nil {
			l.end(op)
			break
		}
		err = c.send(m, l)
		token++
		if err == nil && token%fenceEvery == 0 {
			err = c.fence(token, l)
		}
		l.end(op)
		if err != nil {
			break
		}
	}
	if err == nil && token%fenceEvery != 0 {
		err = c.fence(token, nil)
	}
	if err == nil {
		err = c.await(p, token, time.Now().Add(fenceTimeout))
	}
	return int64(token), int64(token - p.acked.Load()), err
}

// each runs f on every connection concurrently and returns the first error.
func (s *tcpSystem) each(f func(k int, c *conn) error) error {
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	for k, c := range s.conns {
		wg.Add(1)
		go func(k int, c *conn) {
			defer wg.Done()
			errs[k] = f(k, c)
		}(k, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func setupTCP(w workload, seed uint64) (*tcpSystem, error) {
	srv, err := remote.ListenAndServe(remote.ServerConfig{
		Addr: "127.0.0.1:0", UoD: uod(), Alpha: cellAlpha, Shards: runtime.NumCPU(),
	})
	if err != nil {
		return nil, err
	}
	s := &tcpSystem{w: w, srv: srv, gen: newGenerator(w.stream, seed)}
	for k := 0; k < issuers(); k++ {
		// Each connection says hello as a focal object, so the unicasts
		// addressed to that object cross the wire.
		c, err := dial(srv.Addr().String(), model.ObjectID(k+1))
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	// The set-up traffic goes through the same pipelined connections: each
	// object's messages on the connection that owns the object.
	queues := make([][]msg.Message, len(s.conns))
	send := func(m msg.Message) {
		oid, _ := core.TraceRef(m)
		k := int(oid) % len(s.conns)
		queues[k] = append(queues[k], m)
	}
	flush := func() error {
		err := s.each(func(k int, c *conn) error {
			q := queues[k]
			_, _, err := c.pump(c.begin(&connPhase{start: time.Now()}), func(*lane) msg.Message {
				if len(q) == 0 {
					return nil
				}
				m := q[0]
				q = q[1:]
				return m
			}, nil, 1)
			return err
		})
		for k := range queues {
			queues[k] = nil
		}
		return err
	}
	if err := populate(s.gen, installOn(srv), send, flush); err != nil {
		s.close()
		return nil, fmt.Errorf("tcp set-up: %w", err)
	}
	if n := srv.NumQueries(); n != w.stream.queries {
		s.close()
		return nil, fmt.Errorf("%d queries installed, want %d", n, w.stream.queries)
	}
	return s, nil
}

// close stops the server first, so that the dropped connections are not
// turned into departures, then the connections and their readers.
func (s *tcpSystem) close() {
	s.srv.Close()
	for _, c := range s.conns {
		c.c.Close()
		<-c.dead
	}
}

// sat is the closed loop over TCP: every connection pipelines its own
// objects' ops for dur.
func (s *tcpSystem) sat(dur time.Duration, tr *tracer) satResult {
	nwin := numWindows(dur)
	phases := make([]*connPhase, len(s.conns))
	lanes := make([]*lane, len(s.conns))
	for k := range lanes {
		lanes[k] = tr.lane()
	}
	_, _, _, bytes0, _ := s.srv.Stats()
	start := time.Now()
	for k, c := range s.conns {
		phases[k] = c.begin(&connPhase{start: start, windows: make([]int64, nwin)})
	}
	issued := make([]int64, len(s.conns))
	failed := make([]int64, len(s.conns))
	err := s.each(func(k int, c *conn) error {
		own := s.gen.owned(k, len(s.conns))
		at, n := 0, 0
		var err error
		issued[k], failed[k], err = c.pump(phases[k], func(ln *lane) msg.Message {
			// The clock is read once per fence group.
			if n%fenceEvery == 0 && time.Since(start) >= dur {
				return nil
			}
			n++
			g := ln.begin(spanGen)
			m := s.gen.next(own[at])
			ln.end(g)
			if at++; at == len(own) {
				at = 0
			}
			return m
		}, lanes[k], tr.sampling())
		return err
	})
	var r satResult
	counts := make([]int64, nwin)
	for k, p := range phases {
		r.attempted += issued[k]
		r.failed += failed[k]
		for w, n := range p.windows {
			counts[w] += n
		}
	}
	r.rates = windowRates(counts, dur)
	if err != nil {
		r.problems = append(r.problems, "sat phase: "+err.Error())
	}
	_, _, _, bytes1, _ := s.srv.Stats()
	r.downBytes = bytes1 - bytes0
	return r
}

// paced is the open loop over TCP: one pacer writes op i and its fence to
// the owning connection at the op's due time; the connection's reader times
// the Pong against the due time.
func (s *tcpSystem) paced(dur time.Duration, tr *tracer) (r pacedResult) {
	n := int(s.w.pacedRate * dur.Seconds())
	order := s.gen.issuing()
	phases := make([]*connPhase, len(s.conns))
	start := time.Now()
	for k, c := range s.conns {
		phases[k] = c.begin(&connPhase{start: start, log: newPacedLog(dur),
			due: make([]atomic.Int64, n), sent: make([]atomic.Int64, n), waits: tr.lane()})
	}
	tokens := make([]uint64, len(s.conns))
	var m msg.Message
	var k int
	var werr error
	late := runPaced(start, s.w.pacedRate, dur,
		func(i int) {
			oid := order[i%len(order)]
			m, k = s.gen.next(oid), int(oid)%len(s.conns)
		},
		func(i int, due time.Duration) {
			if werr != nil {
				return
			}
			r.attempted++
			c, p := s.conns[k], phases[k]
			tokens[k]++
			p.due[tokens[k]-1].Store(int64(due))
			if werr = c.send(m, nil); werr != nil {
				return
			}
			p.sent[tokens[k]-1].Store(int64(time.Since(start)))
			werr = c.fence(tokens[k], nil)
		})
	deadline := time.Now().Add(fenceTimeout)
	log := newPacedLog(dur)
	for k, c := range s.conns {
		if err := c.await(phases[k], tokens[k], deadline); err != nil && werr == nil {
			werr = err
		}
		p := phases[k]
		unfenced := tokens[k] - p.acked.Load()
		r.failed += int64(unfenced)
		// An op whose fence never returned is over any latency: it is
		// charged the time until the benchmark gave up on it.
		for t := p.acked.Load(); t < tokens[k]; t++ {
			p.log.record(time.Duration(p.due[t].Load()), time.Since(start))
		}
		log.merge(p.log)
	}
	if werr != nil {
		r.problems = append(r.problems, "paced phase: "+werr.Error())
	}
	r.pacedSummary = log.summary(late)
	return r
}

// serverCounters reads the transport's always-on metrics through Metrics().
type serverCounters struct {
	framesIn, framesOut, bytesOut, decodeErrors int64
	dispatchCount                               int64
	dispatchSeconds                             float64
}

func (s *tcpSystem) counters() serverCounters {
	var c serverCounters
	for key, v := range s.srv.Metrics().Snapshot() {
		switch {
		case key == "mobieyes_remote_frames_in_total":
			c.framesIn = v.(int64)
		case key == "mobieyes_remote_frames_out_total":
			c.framesOut = v.(int64)
		case key == "mobieyes_remote_bytes_out_total":
			c.bytesOut = v.(int64)
		case key == "mobieyes_remote_decode_errors_total":
			c.decodeErrors = v.(int64)
		case strings.HasPrefix(key, "mobieyes_remote_uplink_seconds"):
			h := v.(map[string]any)
			c.dispatchCount += h["count"].(int64)
			c.dispatchSeconds += h["sum"].(float64)
		}
	}
	return c
}

// check compares what the connections wrote and read with what the server
// counted: every frame written was received, and none failed to decode on
// either side.
func (s *tcpSystem) check() []string {
	var problems []string
	var written int64
	for k, c := range s.conns {
		written += c.framesWritten
		if n := c.decodeErrors.Load(); n > 0 {
			problems = append(problems, fmt.Sprintf("connection %d: %d downlink frames failed to decode", k, n))
		}
	}
	sc := s.counters()
	if sc.decodeErrors != 0 {
		problems = append(problems, fmt.Sprintf("server counted %d decode errors", sc.decodeErrors))
	}
	if sc.framesIn != written {
		problems = append(problems, fmt.Sprintf("server received %d frames, %d were written", sc.framesIn, written))
	}
	if err := s.srv.CheckInvariants(); err != nil {
		problems = append(problems, "CheckInvariants: "+err.Error())
	}
	return problems
}
