package sim

import (
	"fmt"
	"sync"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/grid"
	"mobieyes/internal/history"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/network"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/stream"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/power"
	"mobieyes/internal/workload"
)

// Engine runs the MobiEyes protocol over a simulated mobile system: one
// core.Server, one core.Client per moving object, a base-station deployment
// with metered broadcast delivery, and the Table 1 workload process.
//
// Broadcast delivery is modeled at grid-cell granularity: a broadcast sent
// through a set of base stations reaches every object whose current cell
// intersects a chosen station's coverage (see DESIGN.md §3 — this is the
// cell-resolution version of circle containment, identical for all
// approaches and deterministic).
type Engine struct {
	cfg  Config
	g    *grid.Grid
	dep  *network.Deployment
	w    *workload.Workload
	srv  *core.Server
	cls  []*core.Client
	bkt  *buckets
	now  model.Time
	obsm *engineObs       // nil unless Config.Metrics set
	acct *cost.Accountant // nil unless Config.Costs set; nil-safe methods
	tap  *stream.Tap      // nil unless Config.Stream or Config.ResultLog set
	hist *history.Store   // nil unless Config.ResultLog set
	// traffic meters every message once: Config.Costs' global ledger, or a
	// private one without it.
	traffic *cost.Ledger

	qids []model.QueryID // installed queries, parallel to w.Queries

	// transport queues (drained between phases).
	upQueue   []upEntry
	downQueue []engineDown
	// cellStamp[ci] == cellEpoch marks cell ci as already in the union being
	// built by cellUnion; each broadcast takes a new epoch.
	cellStamp []uint32
	cellEpoch uint32
	// clientUp buffers each client's uplinks during a parallel phase; the
	// buffers merge into upQueue in object order afterwards, keeping
	// parallel runs bit-for-bit identical to serial ones.
	clientUp [][]msg.Message
	parallel bool

	// deliverTID is the trace ID of the downlink being delivered (see
	// Config.Trace); uplinks a client sends in response inherit it, chaining
	// causality across the simulated round trip. Written only by deliver(),
	// which runs serially in drain — parallel tick phases never deliver, so
	// they observe the zero it was reset to.
	deliverTID trace.ID

	// per-object radio accounts.
	accounts []*power.Account

	// accumulated measurements (only while measuring).
	measuring   bool
	serverNanos int64
	clientNanos int64
	lqtSamples  int64
	lqtTotal    int64
	errSamples  int64
	errTotal    float64
	stepsSeen   int

	gtScratch map[model.ObjectID]struct{}

	// Answer-quality tracking (Config.MeasureQuality): divergence records,
	// per wrong (qid, oid) pair, the measured step the pair first went
	// wrong, so its staleness in steps can be observed once it heals.
	qScratch   map[model.ObjectID]struct{}
	divergence map[qualityKey]int

	// history accumulates per-step records while measuring (enabled by
	// CollectHistory).
	collectHistory bool
	history        []StepRecord
	lastUp         int64
	lastDown       int64
	lastUpBytes    int64
	lastDownBytes  int64
	lastServerNs   int64
}

// engineDown is a queued downlink delivery.
type engineDown struct {
	target model.ObjectID // -1 = broadcast
	cells  []int32        // target cell indices for broadcasts
	m      msg.Message
	tid    trace.ID // causing trace (zero when tracing is off)
}

// upEntry is a queued uplink plus the trace it continues.
type upEntry struct {
	m   msg.Message
	tid trace.ID
}

// qualityKey identifies one (query, object) membership decision.
type qualityKey struct {
	qid model.QueryID
	oid model.ObjectID
}

// NewEngine builds a MobiEyes simulation over the workload cfg generates
// and installs all its queries. It panics on configurations the
// constructors reject (zero objects, bad α).
func NewEngine(cfg Config) *Engine {
	return NewEngineOver(cfg, workload.New(cfg.WorkloadConfig()))
}

// NewEngineOver builds a MobiEyes simulation over w — generated, or a
// scripted scenario from workload.FromTrace — and installs w.Queries. The
// engine owns w from here on: each Step perturbs and moves its objects by
// cfg.StepSeconds, and a caller may set an object's velocity between steps.
// Object i must have ID i+1. The workload fields of cfg are not used.
func NewEngineOver(cfg Config, w *workload.Workload) *Engine {
	g := grid.New(cfg.UoD(), cfg.Alpha)
	e := &Engine{
		cfg:       cfg,
		g:         g,
		dep:       network.NewDeployment(g, cfg.Alen),
		w:         w,
		bkt:       newBuckets(g),
		traffic:   cfg.Costs.Traffic(),
		cellStamp: make([]uint32, g.NumCells()),
		gtScratch: make(map[model.ObjectID]struct{}),
	}
	e.srv = core.NewServer(g, cfg.Core, engineDownlink{e})
	if cfg.Metrics != nil {
		e.obsm = newEngineObs(cfg.Metrics)
		e.srv.Instrument(cfg.Metrics)
	}
	if cfg.Trace != nil {
		e.srv.SetTracer(cfg.Trace)
	}
	if cfg.Costs != nil {
		e.acct = cfg.Costs
		e.acct.Configure(g.NumCells(), e.dep.NumStations(), 0)
		e.srv.SetAccountant(e.acct)
		e.dep.SetAccountant(e.acct)
		if cfg.Metrics != nil {
			e.acct.Instrument(cfg.Metrics)
		}
		if cfg.MeasureQuality {
			e.divergence = make(map[qualityKey]int)
		}
	}
	if cfg.Stream != nil || cfg.ResultLog != nil {
		e.tap = cfg.Stream
		if e.tap == nil {
			// History without streaming still needs the tap's monotone
			// per-query sequencing; a private one does the numbering.
			e.tap = stream.NewTap()
		}
		if cfg.ResultLog != nil {
			e.hist = cfg.ResultLog
			// Charge every appended log byte at the encode boundary; the
			// accountant methods are nil-safe, so this holds with Costs off.
			e.hist.SetCostHook(e.acct.HistoryAppend)
			e.tap.SetSink(func(qid int64, seq uint64, oid int64, enter bool) {
				e.hist.AppendResult(float64(e.now), qid, seq, oid, enter)
			})
		}
		if cfg.Metrics != nil {
			e.tap.Instrument(cfg.Metrics)
			e.hist.Instrument(cfg.Metrics)
		}
		e.srv.SetResultListener(func(ev core.ResultEvent) {
			e.tap.Publish(int64(ev.QID), int64(ev.OID), ev.Entered)
		})
	}
	for i, o := range e.w.Objects {
		up := engineUplink{e, i}
		c := core.NewClient(g, cfg.Core, up, o.ID, o.Props, o.MaxVel, o.Pos)
		c.SetAccountant(e.acct)
		e.cls = append(e.cls, c)
		e.accounts = append(e.accounts, power.NewAccount(cfg.Radio))
	}
	e.bkt.rebuild(e.w.Objects)
	e.clientUp = make([][]msg.Message, len(e.cls))
	e.samplePositions() // the t = 0 frame of the history log

	// Install all queries; message exchange during installation is not
	// metered as steady-state traffic (the paper measures the running
	// system), so reset the meters afterwards.
	for _, spec := range e.w.Queries {
		focal := e.w.Objects[int(spec.Focal)-1]
		qid := e.timedInstall(spec, focal.MaxVel)
		e.qids = append(e.qids, qid)
	}
	e.drain()
	e.resetMeters()
	return e
}

// resetMeters zeroes the traffic ledger, the accountant and the radio
// accounts at a quiescent point, so only what follows is measured.
func (e *Engine) resetMeters() {
	e.traffic.Reset()
	e.acct.Reset()
	for _, a := range e.accounts {
		a.Reset()
	}
}

func (e *Engine) timedInstall(spec workload.QuerySpec, focalMaxVel float64) model.QueryID {
	qid := e.srv.InstallQuery(spec.Focal, model.CircleRegion{R: spec.Radius}, spec.Filter, focalMaxVel)
	if e.hist != nil {
		e.hist.AppendQuery(float64(e.now), int64(qid), int64(spec.Focal), spec.Radius)
	}
	e.drain()
	return qid
}

// samplePositions tees every object's current position into the history
// log, stamped with simulation time. One sample per object per step keeps
// replays (mobiviz -replay) positionally exact; the store's size bound
// caps the cost.
func (e *Engine) samplePositions() {
	if e.hist == nil {
		return
	}
	for _, o := range e.w.Objects {
		e.hist.AppendPos(float64(e.now), int64(o.ID), o.Pos.X, o.Pos.Y)
	}
}

// Grid returns the engine's grid (for inspection and tests).
func (e *Engine) Grid() *grid.Grid { return e.g }

// Server returns the MobiEyes server under simulation.
func (e *Engine) Server() *core.Server { return e.srv }

// Clients returns the per-object protocol clients.
func (e *Engine) Clients() []*core.Client { return e.cls }

// Workload returns the generated workload.
func (e *Engine) Workload() *workload.Workload { return e.w }

// Now returns the current simulation time.
func (e *Engine) Now() model.Time { return e.now }

// engineDownlink implements core.Downlink (and core.TracedDownlink, so a
// traced server can hand over the causing trace ID) with metered,
// cell-granular delivery. Delivery happens after the send returns, so the
// queue keeps msg.Retain of each lent message.
type engineDownlink struct{ e *Engine }

var _ core.TracedDownlink = engineDownlink{}

func (d engineDownlink) Broadcast(region grid.CellRange, m msg.Message) {
	d.BroadcastTraced(region, m, 0)
}

func (d engineDownlink) BroadcastTraced(region grid.CellRange, m msg.Message, tid trace.ID) {
	e := d.e
	stations := e.dep.Cover(region)
	cells := e.cellUnion(stations)
	// One transmission per relaying base station in the traffic ledger.
	size := m.Size()
	e.traffic.ChargeDownlink(m.Kind(), size, len(stations))
	e.downQueue = append(e.downQueue, engineDown{target: -1, cells: cells, m: msg.Retain(m), tid: tid})
	if e.acct != nil {
		// Scoped attribution: one delivery per station and per reached cell.
		for _, sid := range stations {
			e.acct.StationDown(int32(sid), size)
		}
		for _, ci := range cells {
			e.acct.CellDown(ci, size)
		}
	}
}

// cellUnion returns the cells the stations reach, each once, in first-seen
// order: station order, then each station's cell order. A cell is taken when
// its stamp is not yet this broadcast's epoch.
func (e *Engine) cellUnion(stations []network.StationID) []int32 {
	e.cellEpoch++
	if e.cellEpoch == 0 { // wrapped: no stamp may match a future epoch
		clear(e.cellStamp)
		e.cellEpoch = 1
	}
	n := 0
	for _, sid := range stations {
		n += len(e.dep.CellsForStation(sid))
	}
	cells := make([]int32, 0, n)
	for _, sid := range stations {
		for _, ci := range e.dep.CellsForStation(sid) {
			if e.cellStamp[ci] != e.cellEpoch {
				e.cellStamp[ci] = e.cellEpoch
				cells = append(cells, ci)
			}
		}
	}
	return cells
}

func (d engineDownlink) Unicast(oid model.ObjectID, m msg.Message) {
	d.UnicastTraced(oid, m, 0)
}

func (d engineDownlink) UnicastTraced(oid model.ObjectID, m msg.Message, tid trace.ID) {
	e := d.e
	size := m.Size()
	e.traffic.ChargeDownlink(m.Kind(), size, 1)
	if i := int(oid) - 1; e.acct != nil && i >= 0 && i < len(e.w.Objects) {
		// One-to-one delivery through the station covering the recipient's
		// position (positions are stable while messages flow: motion is a
		// separate serial phase).
		pos := e.w.Objects[i].Pos
		e.acct.StationDown(int32(e.dep.StationOf(pos)), size)
		e.acct.CellDown(int32(e.g.CellIndex(e.g.CellOf(pos))), size)
	}
	e.downQueue = append(e.downQueue, engineDown{target: oid, m: msg.Retain(m), tid: tid})
}

// engineUplink implements core.Uplink for one object.
type engineUplink struct {
	e *Engine
	i int // object index
}

func (u engineUplink) Send(m msg.Message) {
	e := u.e
	if e.parallel {
		// Phase running across workers: buffer privately; metering happens
		// at the ordered merge.
		e.clientUp[u.i] = append(e.clientUp[u.i], m)
		return
	}
	e.sendUplink(u.i, m, e.deliverTID)
}

// sendUplink meters one uplink from object index i at the transport — the
// traffic ledger, the sender's radio account, and with accounting on its
// cell and uplink base station — and queues it for the server.
func (e *Engine) sendUplink(i int, m msg.Message, tid trace.ID) {
	size := m.Size()
	e.traffic.ChargeUplink(m.Kind(), size)
	e.accounts[i].Sent(size)
	if e.acct != nil {
		pos := e.w.Objects[i].Pos
		e.acct.StationUp(int32(e.dep.StationOf(pos)), size)
		e.acct.CellUp(int32(e.g.CellIndex(e.g.CellOf(pos))), size)
	}
	e.upQueue = append(e.upQueue, upEntry{m: m, tid: tid})
}

// drain processes queued uplinks (timed as server work, and per kind when
// instrumented) and delivers queued downlinks (which may enqueue more
// uplinks) until both queues are empty.
func (e *Engine) drain() {
	uplinks := 0
	for len(e.upQueue) > 0 || len(e.downQueue) > 0 {
		e.obsm.syncQueueDepths(len(e.upQueue), len(e.downQueue))
		if len(e.upQueue) > 0 {
			start := time.Now()
			ent := e.upQueue[0]
			e.upQueue = e.upQueue[1:]
			uplinks++
			e.srv.HandleUplinkTraced(ent.m, ent.tid)
			if e.measuring || e.obsm != nil {
				d := time.Since(start)
				if e.measuring {
					e.serverNanos += d.Nanoseconds()
				}
				e.obsm.observeUplink(ent.m.Kind(), d)
			}
			continue
		}
		q := e.downQueue[0]
		e.downQueue = e.downQueue[1:]
		e.deliver(q)
	}
	e.obsm.syncQueueDepths(0, 0)
	if o := e.obsm; o != nil {
		o.drainBatch.Observe(float64(uplinks))
	}
}

func (e *Engine) deliver(q engineDown) {
	e.deliverTID = q.tid
	defer func() { e.deliverTID = 0 }()
	if q.target >= 0 {
		i := int(q.target) - 1
		e.accounts[i].Received(q.m.Size())
		o := e.w.Objects[i]
		e.cls[i].OnDownlink(q.m, o.Pos, o.Vel, e.now)
		return
	}
	size := q.m.Size()
	for _, ci := range q.cells {
		for _, oi := range e.bkt.cells[ci] {
			e.accounts[oi].Received(size)
			o := e.w.Objects[oi]
			e.cls[oi].OnDownlink(q.m, o.Pos, o.Vel, e.now)
		}
	}
}

// Step advances the simulation by one time step, executing the full §3
// pipeline: perturb velocities, move, handle cell changes, dead reckoning,
// local query evaluation, and differential result updates.
func (e *Engine) Step() {
	var stepStart time.Time
	if e.obsm != nil {
		stepStart = time.Now()
	}
	dt := model.FromSeconds(e.cfg.StepSeconds)
	e.now += dt

	// 1. Workload: border bounces and random velocity changes.
	e.w.BounceAtBorders()
	e.w.PerturbStep()

	// 2. Motion.
	for _, o := range e.w.Objects {
		o.Move(dt)
	}
	e.bkt.rebuild(e.w.Objects)
	e.samplePositions()

	// Duration-bound queries expire as the clock advances. Expiry emits the
	// implicit leaves through the result listener first, so the history
	// log's remove mark lands after its query's final transitions.
	start0 := time.Now()
	expired := e.srv.ExpireQueries(e.now)
	if e.measuring {
		e.serverNanos += time.Since(start0).Nanoseconds()
	}
	if e.hist != nil {
		for _, qid := range expired {
			e.hist.AppendQueryRemove(float64(e.now), int64(qid))
		}
	}
	e.drain()

	// 3. Cell-change phase.
	e.forEachClient(func(i int, c *core.Client) {
		o := e.w.Objects[i]
		c.TickCellChange(o.Pos, o.Vel, e.now)
	})
	e.drain()

	// 4. Dead-reckoning phase.
	e.forEachClient(func(i int, c *core.Client) {
		o := e.w.Objects[i]
		c.TickDeadReckoning(o.Pos, o.Vel, e.now)
	})
	e.drain()

	// 5. Evaluation phase (timed as client processing).
	start := time.Now()
	e.forEachClient(func(i int, c *core.Client) {
		c.TickEvaluate(e.w.Objects[i].Pos, e.w.Objects[i].Vel, e.now)
	})
	if e.measuring {
		e.clientNanos += time.Since(start).Nanoseconds()
	}
	e.drain()

	// 6. Measurements.
	if e.measuring {
		e.stepsSeen++
		var stepLQT int64
		for _, c := range e.cls {
			stepLQT += int64(c.LQTSize())
		}
		e.lqtTotal += stepLQT
		e.lqtSamples += int64(len(e.cls))
		stepErrBefore, stepErrSamplesBefore := e.errTotal, e.errSamples
		if e.cfg.MeasureError {
			e.measureError()
		}
		if e.cfg.MeasureQuality && e.acct != nil {
			e.measureQuality()
		}
		if e.collectHistory {
			t := e.traffic.Snap()
			rec := StepRecord{
				Step:          e.stepsSeen,
				UplinkMsgs:    t.UplinkMsgs() - e.lastUp,
				DownlinkMsgs:  t.DownlinkMsgs() - e.lastDown,
				UplinkBytes:   t.UplinkBytes() - e.lastUpBytes,
				DownlinkBytes: t.DownlinkBytes() - e.lastDownBytes,
				AvgLQTSize:    float64(stepLQT) / float64(len(e.cls)),
				ServerNanos:   e.serverNanos - e.lastServerNs,
			}
			if n := e.errSamples - stepErrSamplesBefore; n > 0 {
				rec.Error = (e.errTotal - stepErrBefore) / float64(n)
			}
			e.history = append(e.history, rec)
			e.lastUp = t.UplinkMsgs()
			e.lastDown = t.DownlinkMsgs()
			e.lastUpBytes = t.UplinkBytes()
			e.lastDownBytes = t.DownlinkBytes()
			e.lastServerNs = e.serverNanos
		}
	}

	if o := e.obsm; o != nil {
		o.steps.Add(1)
		o.stepLat.Observe(time.Since(stepStart).Seconds())
	}
}

// ResultLog returns the history store recording this run, or nil when
// Config.ResultLog is unset.
func (e *Engine) ResultLog() *history.Store { return e.hist }

// CollectHistory enables per-step time-series collection for subsequent
// measured steps; History returns the records.
func (e *Engine) CollectHistory() { e.collectHistory = true }

// History returns the per-step records collected so far.
func (e *Engine) History() []StepRecord { return e.history }

// forEachClient runs fn for every client, serially or across
// cfg.Parallelism workers. In parallel mode uplinks buffer per client and
// merge in object order, so the observable behavior is identical.
func (e *Engine) forEachClient(fn func(i int, c *core.Client)) {
	workers := e.cfg.Parallelism
	if workers <= 1 || len(e.cls) < 2*workers {
		for i, c := range e.cls {
			fn(i, c)
		}
		return
	}
	e.parallel = true
	var wg sync.WaitGroup
	chunk := (len(e.cls) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(e.cls) {
			hi = len(e.cls)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i, e.cls[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	e.parallel = false
	// Ordered merge: meter and queue exactly as the serial engine would.
	// Tick-driven uplinks start fresh traces, so their tid is zero.
	for i := range e.clientUp {
		for _, m := range e.clientUp[i] {
			e.sendUplink(i, m, 0)
		}
		e.clientUp[i] = e.clientUp[i][:0]
	}
}

func (e *Engine) measureError() {
	for i, spec := range e.w.Queries {
		qid := e.qids[i]
		correct := groundTruth(e.bkt, e.w.Objects, spec, e.gtScratch)
		e.gtScratch = correct
		err, ok := resultError(correct, func(oid model.ObjectID) bool {
			return e.srv.ResultContains(qid, oid)
		})
		if ok {
			e.errTotal += err
			e.errSamples++
		}
	}
}

// measureQuality compares every query's result set against brute-force
// ground truth and feeds the cost accountant: per-step true/false
// positives and false negatives (the live precision/recall gauges), plus a
// staleness observation for each wrong (qid, oid) pair at the step it heals,
// measuring how long stale answers persist.
func (e *Engine) measureQuality() {
	var tp, fp, fn int64
	cur := make(map[qualityKey]struct{})
	for i, spec := range e.w.Queries {
		qid := e.qids[i]
		correct := groundTruth(e.bkt, e.w.Objects, spec, e.qScratch)
		e.qScratch = correct
		for _, oid := range e.srv.Result(qid) {
			if _, ok := correct[oid]; ok {
				tp++
			} else {
				fp++
				cur[qualityKey{qid, oid}] = struct{}{}
			}
		}
		for oid := range correct {
			if !e.srv.ResultContains(qid, oid) {
				fn++
				cur[qualityKey{qid, oid}] = struct{}{}
			}
		}
	}
	e.acct.QualityStep(tp, fp, fn)
	for k, start := range e.divergence {
		if _, still := cur[k]; !still {
			e.acct.ObserveStaleness(int64(e.stepsSeen - start))
			delete(e.divergence, k)
		}
	}
	for k := range cur {
		if _, known := e.divergence[k]; !known {
			e.divergence[k] = e.stepsSeen
		}
	}
}

// VerifyExact compares every query result against ground truth and returns
// an error describing the first mismatch (nil when exact). Used by
// integration tests of the EQP/Δ=0 exactness invariant.
func (e *Engine) VerifyExact() error {
	for i, spec := range e.w.Queries {
		qid := e.qids[i]
		correct := groundTruth(e.bkt, e.w.Objects, spec, nil)
		if got := e.srv.ResultSize(qid); got != len(correct) {
			return fmt.Errorf("query %d: result size %d, ground truth %d", qid, got, len(correct))
		}
		for oid := range correct {
			if !e.srv.ResultContains(qid, oid) {
				return fmt.Errorf("query %d: missing object %d", qid, oid)
			}
		}
	}
	return nil
}

// Run executes the configured warmup and measured steps and returns the
// collected metrics.
func (e *Engine) Run() Metrics {
	for i := 0; i < e.cfg.Warmup; i++ {
		e.Step()
	}
	e.resetMeters()
	e.measuring = true
	for i := 0; i < e.cfg.Steps; i++ {
		e.Step()
	}
	e.measuring = false
	return e.metrics()
}

func (e *Engine) metrics() Metrics {
	m := trafficMetrics(e.traffic.Snap())
	m.Approach = MobiEyes
	m.Steps = e.stepsSeen
	m.Seconds = float64(e.stepsSeen) * e.cfg.StepSeconds
	m.ServerNanos = e.serverNanos
	m.ClientNanos = e.clientNanos
	m.ServerOps = e.srv.Ops()
	if e.lqtSamples > 0 {
		m.AvgLQTSize = float64(e.lqtTotal) / float64(e.lqtSamples)
	}
	if e.errSamples > 0 {
		m.AvgError = e.errTotal / float64(e.errSamples)
	}
	if len(e.accounts) > 0 && m.Seconds > 0 {
		var joules float64
		for _, a := range e.accounts {
			joules += a.Joules()
		}
		m.AvgPowerWatts = joules / float64(len(e.accounts)) / m.Seconds
	}
	for _, c := range e.cls {
		m.Evals += c.Evals()
		m.Skipped += c.SkippedEvals()
	}
	return m
}
