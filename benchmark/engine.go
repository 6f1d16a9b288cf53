package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/grid"
	"mobieyes/internal/history"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/stream"
	"mobieyes/internal/obs/trace"
)

// issuers is C: the goroutines (or connections) that issue ops.
func issuers() int { return min(runtime.NumCPU(), 4) }

// countingSink is the downlink endpoint of the in-process systems: the
// receiving devices, reduced to counting the bytes that reach them.
type countingSink struct {
	bytes atomic.Int64
}

func (s *countingSink) Broadcast(_ grid.CellRange, m msg.Message) { s.bytes.Add(int64(m.Size())) }
func (s *countingSink) Unicast(_ model.ObjectID, m msg.Message)   { s.bytes.Add(int64(m.Size())) }

// subscriberBuffer is the firehose subscriber's buffer, in events: a second
// of results at the seed's rate, so a drain goroutine that is scheduled at
// all is never evicted.
const subscriberBuffer = 1 << 17

// attachObservers turns on everything the public API lets a caller attach to
// a backend: metrics registry, causal-trace ring, cost accountant, and a
// result listener feeding a stream tap with one drained subscriber and a
// history store. The publish and append calls are timed on ln when it is
// non-nil (single-goroutine replays only). The returned function stops the
// subscriber and waits for it.
func attachObservers(srv core.ServerAPI, g *grid.Grid, shards int, ln *lane) (stop func()) {
	srv.Instrument(obs.NewRegistry())
	srv.SetTracer(trace.NewRecorder(4096))
	acct := cost.New()
	acct.Configure(g.NumCells(), 0, shards)
	srv.SetAccountant(acct)

	tap, hist := stream.NewTap(), history.NewStore(0)
	hist.SetCostHook(acct.HistoryAppend)
	var clock atomic.Int64
	tap.SetSink(func(qid int64, seq uint64, oid int64, enter bool) {
		h := ln.begin(spanHistory)
		hist.AppendResult(float64(clock.Add(1)), qid, seq, oid, enter)
		ln.end(h)
	})
	sub, _ := tap.Subscribe(stream.Firehose, subscriberBuffer)
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer sub.Close()
		for {
			select {
			case <-sub.Ready():
				sub.Drain()
			case <-quit:
				return
			}
		}
	}()
	srv.SetResultListener(func(ev core.ResultEvent) {
		p := ln.begin(spanPublish)
		tap.Publish(int64(ev.QID), int64(ev.OID), ev.Entered)
		ln.end(p)
	})
	return func() {
		close(quit)
		<-done
	}
}

// engine is an in-process system under test: a core backend behind
// HandleUplink, driven by the generator.
type engine struct {
	w       workload
	srv     core.ServerAPI
	uplinks func() int64 // the backend's public uplink counters, summed
	sink    *countingSink
	gen     *generator
	// stopObservers is non-nil when the workload runs observed.
	stopObservers func()
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// populate joins every object, installs one query per focal object and
// completes the pending installs. Messages go through send; flush returns
// once everything sent so far has been dispatched.
func populate(gen *generator, install func(focal model.ObjectID) model.QueryID, send func(msg.Message), flush func() error) error {
	for oid := model.ObjectID(1); oid <= numObjects; oid++ {
		send(gen.join(oid))
	}
	if err := flush(); err != nil {
		return err
	}
	for f := model.ObjectID(1); int(f) <= gen.spec.queries; f++ {
		// The generator addresses queries by the 1-based sequence every
		// backend assigns; a backend that numbers differently would make
		// the stream's ContainmentReports miss.
		if qid := install(f); qid != model.QueryID(f) {
			return fmt.Errorf("query on focal %d got id %d, want %d", f, qid, f)
		}
	}
	for f := model.ObjectID(1); int(f) <= gen.spec.queries; f++ {
		send(gen.focalInfo(f))
	}
	return flush()
}

func installOn(srv interface {
	InstallQuery(model.ObjectID, model.Region, model.Filter, float64) model.QueryID
}) func(model.ObjectID) model.QueryID {
	return func(focal model.ObjectID) model.QueryID {
		return srv.InstallQuery(focal, model.CircleRegion{R: queryRadius}, model.Filter{}, focalMaxVel)
	}
}

func setupEngine(w workload, seed uint64) (*engine, error) {
	e := &engine{w: w, sink: &countingSink{}, gen: newGenerator(w.stream, seed)}
	shards := 0
	if w.cluster {
		cs := core.NewClusterServer(e.gen.g, core.Options{}, e.sink, clusterNodes)
		e.srv, e.uplinks = cs, func() int64 { return sum(cs.UplinksByNode()) }
	} else {
		shards = runtime.NumCPU()
		ss := core.NewShardedServer(e.gen.g, core.Options{}, e.sink, shards)
		e.srv, e.uplinks = ss, func() int64 { return sum(ss.UplinksByShard()) }
	}
	if w.observed {
		e.stopObservers = attachObservers(e.srv, e.gen.g, shards, nil)
	}
	if err := populate(e.gen, installOn(e.srv), e.srv.HandleUplink, func() error { return nil }); err != nil {
		e.close()
		return nil, err
	}
	if n := e.srv.NumQueries(); n != w.stream.queries {
		e.close()
		return nil, fmt.Errorf("%d queries installed, want %d", n, w.stream.queries)
	}
	return e, nil
}

func (e *engine) check() []string {
	if err := e.srv.CheckInvariants(); err != nil {
		return []string{"CheckInvariants: " + err.Error()}
	}
	return nil
}

func (e *engine) close() {
	if e.stopObservers != nil {
		e.stopObservers()
	}
	if cs, ok := e.srv.(*core.ClusterServer); ok {
		cs.Close()
	}
}

// satResult is what a closed-loop phase measured.
type satResult struct {
	// rates holds the completion rate (ops/s) of each window of the phase;
	// for the simulation, of each step.
	rates     []float64
	attempted int64
	failed    int64
	downBytes int64 // downlink bytes the system emitted during the phase
	problems  []string
}

// windowRates turns the ops completed in each window of a phase into rates;
// the last window takes the phase's tail.
func windowRates(counts []int64, dur time.Duration) []float64 {
	rates := make([]float64, len(counts))
	for w, n := range counts {
		length := window
		if w == len(counts)-1 {
			length = dur - time.Duration(w)*window
		}
		rates[w] = float64(n) / length.Seconds()
	}
	return rates
}

// opsPerSecond is the completion rate of the window that stands for the phase.
func (r satResult) opsPerSecond() float64 {
	return windowQuantile(r.rates, func(x float64) float64 { return x }, rateQuantile)
}

func (r satResult) downlinkBytesPerOp() float64 {
	if done := r.attempted - r.failed; done > 0 {
		return float64(r.downBytes) / float64(done)
	}
	return 0
}

// sat is the closed loop: every issuer calls HandleUplink back-to-back on
// its own objects for dur. With a tracer, each issuer records the spans of
// one op in tr.every on its own lane.
func (e *engine) sat(dur time.Duration, tr *tracer) satResult {
	c := issuers()
	nwin := numWindows(dur)
	type issuerResult struct {
		windows  []int64
		issued   int64
		panicked any
	}
	results := make([]issuerResult, c)
	lanes := make([]*lane, c)
	for k := range lanes {
		lanes[k] = tr.lane()
	}
	up0, bytes0 := e.uplinks(), e.sink.bytes.Load()
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < c; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res := &results[k]
			res.windows = make([]int64, nwin)
			defer func() { res.panicked = recover() }()
			own := e.gen.owned(k, c)
			const batch = 16 // ops between looks at the clock
			every := tr.sampling()
			for at, sample := 0, 0; ; {
				var ln *lane
				if sample++; sample == every {
					ln, sample = lanes[k], 0
				}
				op := ln.begin(spanOp)
				g := ln.begin(spanGen)
				m := e.gen.next(own[at])
				ln.end(g)
				h := ln.begin(spanHandle)
				e.srv.HandleUplink(m)
				ln.end(h)
				ln.end(op)
				if at++; at == len(own) {
					at = 0
				}
				if res.issued++; res.issued%batch == 0 {
					el := time.Since(start)
					if el >= dur {
						return
					}
					res.windows[windowOf(el, nwin)] += batch
				}
			}
		}(k)
	}
	wg.Wait()

	var r satResult
	counts := make([]int64, nwin)
	for k, res := range results {
		r.attempted += res.issued
		for w, n := range res.windows {
			counts[w] += n
		}
		if res.panicked != nil {
			r.failed++ // the op in flight
			r.problems = append(r.problems, fmt.Sprintf("issuer %d panicked: %v", k, res.panicked))
		}
	}
	r.rates = windowRates(counts, dur)
	r.downBytes = e.sink.bytes.Load() - bytes0
	if counted := e.uplinks() - up0; counted != r.attempted-r.failed {
		r.failed += max(r.attempted-r.failed-counted, 0)
		r.problems = append(r.problems, fmt.Sprintf("backend counted %d uplinks, %d were issued", counted, r.attempted))
	}
	return r
}

// pacedResult is what an open-loop phase measured.
type pacedResult struct {
	pacedSummary
	attempted, failed int64
	problems          []string
}

// paced is the open loop for an in-process system: one pacer calls
// HandleUplink at each op's due time and latency runs from the due time to
// the call's return. There is nothing to trace: the pacer makes one call per
// op and already times it.
func (e *engine) paced(dur time.Duration, _ *tracer) (r pacedResult) {
	log := newPacedLog(dur)
	order := e.gen.issuing()
	up0 := e.uplinks()
	var m msg.Message
	start := time.Now()
	var late []float32
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.failed++
				r.problems = append(r.problems, fmt.Sprintf("paced issuer panicked: %v", p))
			}
		}()
		late = runPaced(start, e.w.pacedRate, dur,
			func(i int) { m = e.gen.next(order[i%len(order)]) },
			func(i int, due time.Duration) {
				r.attempted++
				e.srv.HandleUplink(m)
				log.record(due, time.Since(start))
			})
	}()
	r.pacedSummary = log.summary(late)
	if counted := e.uplinks() - up0; counted != r.attempted-r.failed {
		r.failed += max(r.attempted-r.failed-counted, 0)
		r.problems = append(r.problems, fmt.Sprintf("backend counted %d uplinks, %d were issued", counted, r.attempted))
	}
	return r
}
