package sim

import (
	"time"

	"mobieyes/internal/centralized"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/power"
	"mobieyes/internal/workload"
)

// BaselineEngine drives one of the centralized comparison systems over the
// same workload process as the MobiEyes engine, with identical metering.
// In all four baselines the objects push updates up and the server does the
// processing; there is no downlink traffic to meter (query answers are
// delivered to the querying application at the server, not broadcast).
type BaselineEngine struct {
	cfg Config
	g   *grid.Grid
	w   *workload.Workload
	bkt *buckets

	objectIndex *centralized.ObjectIndex
	queryIndex  *centralized.QueryIndex
	naive       *centralized.NaiveServer
	centralOpt  *centralized.CentralOptimal

	// lastRelayed is the per-object dead-reckoning state for the central
	// optimal baseline.
	lastRelayed []model.MotionState
	// lastPos tracks movement for the naïve baseline ("if its position has
	// changed").
	lastPos []geo.Point
	// isFocal marks the focal objects; the query index processes their
	// reports first so its differential evaluation sees fresh query
	// rectangles within each step.
	isFocal []bool

	traffic  cost.Ledger // Config.Costs is not attached to a baseline
	accounts []*power.Account
	now      model.Time

	measuring   bool
	serverNanos int64
	stepsSeen   int
	errTotal    float64
	errSamples  int64
}

// NewBaselineEngine builds a baseline simulation for cfg.Approach (one of
// Naive, CentralOptimal, ObjectIndex, QueryIndex).
func NewBaselineEngine(cfg Config) *BaselineEngine {
	g := grid.New(cfg.UoD(), cfg.Alpha)
	e := &BaselineEngine{
		cfg: cfg,
		g:   g,
		w:   workload.New(cfg.WorkloadConfig()),
		bkt: newBuckets(g),
	}
	switch cfg.Approach {
	case ObjectIndex:
		e.objectIndex = centralized.NewObjectIndex()
	case QueryIndex:
		e.queryIndex = centralized.NewQueryIndex()
	case Naive:
		e.naive = centralized.NewNaiveServer()
	case CentralOptimal:
		e.centralOpt = centralized.NewCentralOptimal()
	default:
		panic("sim: NewBaselineEngine called with a non-baseline approach")
	}
	for range e.w.Objects {
		e.accounts = append(e.accounts, power.NewAccount(cfg.Radio))
	}
	e.lastRelayed = make([]model.MotionState, len(e.w.Objects))
	e.lastPos = make([]geo.Point, len(e.w.Objects))
	e.isFocal = make([]bool, len(e.w.Objects))
	for _, spec := range e.w.Queries {
		e.isFocal[int(spec.Focal)-1] = true
	}
	e.bkt.rebuild(e.w.Objects)

	// Install queries and seed the server with initial object state.
	for i, spec := range e.w.Queries {
		q := model.Query{
			ID:     model.QueryID(i + 1),
			Focal:  spec.Focal,
			Region: model.CircleRegion{R: spec.Radius},
			Filter: spec.Filter,
		}
		switch cfg.Approach {
		case ObjectIndex:
			e.objectIndex.InstallQuery(q)
		case QueryIndex:
			e.queryIndex.InstallQuery(q)
		case Naive:
			e.naive.InstallQuery(q)
		case CentralOptimal:
			e.centralOpt.InstallQuery(q)
		}
	}
	for i, o := range e.w.Objects {
		e.ingest(i, o, true)
	}
	e.traffic.Reset()
	for _, a := range e.accounts {
		a.Reset()
	}
	return e
}

// ingest delivers one object's report to the configured server, metering it
// unless initial is true (initial state seeding is not steady-state
// traffic). For CentralOptimal, the report is sent only when the object's
// position deviates from the relayed prediction (dead reckoning, Δ from
// cfg.Core); for the others a position report is sent when the position
// changed.
func (e *BaselineEngine) ingest(i int, o *model.MovingObject, initial bool) {
	switch e.cfg.Approach {
	case CentralOptimal:
		if !initial && !e.lastRelayed[i].NeedsRelay(o.Pos, e.now, e.cfg.Core.DeadReckoningThreshold) {
			return
		}
		if !initial {
			e.send(i, msg.VelocityReport{OID: o.ID, Pos: o.Pos, Vel: o.Vel, Tm: e.now})
		}
		e.lastRelayed[i] = model.MotionState{Pos: o.Pos, Vel: o.Vel, Tm: e.now}
		start := time.Now()
		e.centralOpt.ReportVelocity(o.ID, o.Pos, o.Vel, e.now, o.Props)
		e.timeServer(start)
	default:
		if !initial && o.Pos == e.lastPos[i] {
			return
		}
		if !initial {
			e.send(i, msg.PositionReport{OID: o.ID, Pos: o.Pos, Tm: e.now})
		}
		e.lastPos[i] = o.Pos
		start := time.Now()
		switch e.cfg.Approach {
		case ObjectIndex:
			e.objectIndex.ReportPosition(o.ID, o.Pos, o.Props)
		case QueryIndex:
			e.queryIndex.ReportPosition(o.ID, o.Pos, o.Props)
		case Naive:
			e.naive.ReportPosition(o.ID, o.Pos, o.Props)
		}
		e.timeServer(start)
	}
}

// send meters object i's report on the traffic ledger and its radio.
func (e *BaselineEngine) send(i int, m msg.Message) {
	size := m.Size()
	e.traffic.ChargeUplink(m.Kind(), size)
	e.accounts[i].Sent(size)
}

func (e *BaselineEngine) timeServer(start time.Time) {
	if e.measuring {
		e.serverNanos += time.Since(start).Nanoseconds()
	}
}

// Step advances the baseline simulation one time step.
func (e *BaselineEngine) Step() {
	dt := model.FromSeconds(e.cfg.StepSeconds)
	e.now += dt
	e.w.BounceAtBorders()
	e.w.PerturbStep()
	for _, o := range e.w.Objects {
		o.Move(dt)
	}
	e.bkt.rebuild(e.w.Objects)

	// Focal objects report first: the query index moves their query
	// rectangles before probing the remaining objects, keeping its
	// differential results exact within the step.
	for i, o := range e.w.Objects {
		if e.isFocal[i] {
			e.ingest(i, o, false)
		}
	}
	if e.cfg.Approach == QueryIndex {
		// A focal that reported early probed some still-stale query
		// rectangles of focals reporting after it. Re-probe focals now that
		// every rectangle is fresh — pure server-side work, no messages.
		start := time.Now()
		for i, o := range e.w.Objects {
			if e.isFocal[i] {
				e.queryIndex.ReportPosition(o.ID, o.Pos, o.Props)
			}
		}
		e.timeServer(start)
	}
	for i, o := range e.w.Objects {
		if !e.isFocal[i] {
			e.ingest(i, o, false)
		}
	}

	// Periodic evaluation for the object index ("periodically all queries
	// are evaluated against the object index"). The query index evaluates
	// differentially inside ReportPosition; naïve and central optimal are
	// messaging baselines whose evaluation cost is not under study.
	if e.cfg.Approach == ObjectIndex {
		start := time.Now()
		e.objectIndex.EvaluateAll()
		e.timeServer(start)
	}

	if e.measuring {
		e.stepsSeen++
		if e.cfg.MeasureError {
			e.measureError()
		}
	}
}

func (e *BaselineEngine) measureError() {
	for i, spec := range e.w.Queries {
		qid := model.QueryID(i + 1)
		correct := groundTruth(e.bkt, e.w.Objects, spec, nil)
		var reported func(model.ObjectID) bool
		switch e.cfg.Approach {
		case ObjectIndex:
			set := toSet(e.objectIndex.Result(qid))
			reported = func(oid model.ObjectID) bool { return set[oid] }
		case QueryIndex:
			set := toSet(e.queryIndex.Result(qid))
			reported = func(oid model.ObjectID) bool { return set[oid] }
		case Naive:
			set := toSet(e.naive.Result(qid))
			reported = func(oid model.ObjectID) bool { return set[oid] }
		case CentralOptimal:
			set := toSet(e.centralOpt.Result(qid, e.now))
			reported = func(oid model.ObjectID) bool { return set[oid] }
		}
		if err, ok := resultError(correct, reported); ok {
			e.errTotal += err
			e.errSamples++
		}
	}
}

func toSet(ids []model.ObjectID) map[model.ObjectID]bool {
	s := make(map[model.ObjectID]bool, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Run executes warmup and measured steps and returns metrics.
func (e *BaselineEngine) Run() Metrics {
	for i := 0; i < e.cfg.Warmup; i++ {
		e.Step()
	}
	e.traffic.Reset()
	for _, a := range e.accounts {
		a.Reset()
	}
	e.measuring = true
	for i := 0; i < e.cfg.Steps; i++ {
		e.Step()
	}
	e.measuring = false

	m := trafficMetrics(e.traffic.Snap())
	m.Approach = e.cfg.Approach
	m.Steps = e.stepsSeen
	m.Seconds = float64(e.stepsSeen) * e.cfg.StepSeconds
	m.ServerNanos = e.serverNanos
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
	return m
}

// Run builds and runs the simulation selected by cfg.Approach, returning
// its metrics. It is the single entry point used by the experiment harness
// and the benchmarks.
func Run(cfg Config) Metrics {
	if cfg.Approach == MobiEyes {
		return NewEngine(cfg).Run()
	}
	return NewBaselineEngine(cfg).Run()
}
