package simtest

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/sim"
	"mobieyes/internal/workload"
)

// alphaMiles is the grid cell side used by every scenario; with the
// 100×100-mile universe below it yields a 20×20 grid.
const alphaMiles = 5.0

// Scenario is one complete, self-describing differential test run: a
// seeded workload, a protocol variant, a set of engines, and an operation
// schedule. Everything is derived deterministically from the seeds, so a
// Scenario value IS the repro case.
type Scenario struct {
	Name       string
	Seed       int64
	NumObjects int
	NumSpecs   int
	Opts       core.Options
	Mobility   workload.MobilityModel
	// Every scenario runs the serial server against the core.ClusterServer
	// router ("router") under the differential, ledger and snapshot
	// oracles, over Nodes in-process worker nodes (0 = 4).
	Nodes int
	// sharded builds the router through core.NewShardedServer, the
	// constructor the benchmark harness calls, instead of
	// core.NewClusterServer. Both build the same router, so a repro case
	// need not carry it.
	sharded bool
	// ClusterEvents are node-level fault injections applied to the router:
	// a node kill drains its focals to the survivors, a rebalance
	// recomputes span boundaries and migrates misplaced focals, a crash
	// ungracefully fail-stops a node (no drain) and recovers it from the
	// router's checkpoint journal. All use charge-free admin
	// transfers, and the runner checkpoints the router after every op (a
	// zero-loss watermark), so the strict oracles — including
	// byte-identical snapshots and ledgers — keep holding across every
	// event; there is no weakened window.
	ClusterEvents []ClusterEvent
	// ClusterSuppressReplay plants the deliberate recovery bug: crash
	// recovery fences and sweeps the dead node but skips the journal
	// replay, cleanly losing its focal state. The teeth test uses it to
	// prove the convergence oracle notices suppressed replay.
	ClusterSuppressReplay bool
	// Remote adds the internal/remote server over in-memory pipes as a
	// further engine.
	Remote bool
	// Faults injects transport faults into the remote engine (requires
	// Remote).
	Faults *FaultPlan
	// DropNthBroadcast plants a deliberate equivalence bug into the router
	// engine — every Nth broadcast is skipped — to prove the oracle catches
	// real protocol divergence and to feed the Shrink minimizer a failure.
	DropNthBroadcast int
	// Trace attaches a causal flight recorder to every engine; when an
	// oracle fails, the returned error carries the causal event timeline of
	// the divergent query or object from each engine (DESIGN.md §11).
	Trace bool
	// Costs attaches a cost accountant to each local engine and adds the
	// ledger oracle: after every strict-mode operation the serial and
	// router engines must have charged byte-for-byte identical global
	// ledgers (traffic by kind plus compute units), and the router's
	// per-node ledgers plus its own must sum to its global uplink count —
	// no message attributed twice or lost.
	Costs bool
	Ops   []Op

	// inspectCluster, when set, is called with the router engine after
	// the whole schedule ran without an oracle violation — test-side
	// introspection (e.g. "did the armed crash actually fire?").
	inspectCluster func(cs *core.ClusterServer)
}

// Cluster event kinds.
const (
	// ClusterKill marks worker node Node dead before op AtOp, gracefully
	// draining its focals to the survivors; the router refuses if it is
	// the last live node.
	ClusterKill = "kill"
	// ClusterRebalance recomputes the weighted cell-range assignment and
	// migrates misplaced focals before op AtOp.
	ClusterRebalance = "rebalance"
	// ClusterCrash fail-stops node Node *ungracefully* before op AtOp: no
	// drain, no extract — the router fences the node and replays its
	// journaled checkpoint into the survivors (DESIGN.md §15).
	ClusterCrash = "crash"
	// ClusterCrashOnHandoff arms node Node to crash at the most hostile
	// instant of its next cross-node handoff: after the source's
	// destructive extract, before the destination's inject.
	ClusterCrashOnHandoff = "crash-on-handoff"
)

// ClusterEvent schedules one node-level fault on the router engine:
// before executing op AtOp, node Node is killed or the cluster rebalanced.
type ClusterEvent struct {
	AtOp int
	Node int // ignored for ClusterRebalance
	Kind string
}

func (sc *Scenario) workloadConfig() workload.Config {
	return workload.Config{
		UoD:                    geo.NewRect(0, 0, 100, 100),
		NumObjects:             sc.NumObjects,
		NumQueries:             sc.NumSpecs,
		VelocityChangesPerStep: sc.NumObjects/5 + 1,
		Mobility:               sc.Mobility,
		StepSeconds:            30,
		WaypointPauseSteps:     [2]int{0, 2},
		GaussMarkovMemory:      0.85,
		GaussMarkovSigma:       0.15,
		MaxSpeeds:              []float64{100, 50, 150, 200, 250},
		RadiusMeans:            []float64{5, 3, 8},
		RadiusStdDevFrac:       0.2,
		ZipfTheta:              0.8,
		SelectivityPermille:    850,
		RadiusFactor:           1,
		Seed:                   sc.Seed,
	}
}

// gtEligible reports whether the ground-truth oracle applies: with eager
// propagation, Δ = 0 and no evaluation skipping, the protocol guarantees
// exact results, so the engines must match the brute-force evaluator.
func (sc *Scenario) gtEligible() bool {
	return sc.Opts.Mode == core.EagerPropagation &&
		sc.Opts.DeadReckoningThreshold == 0 &&
		!sc.Opts.SafePeriod && !sc.Opts.Predictive
}

// RunScenario executes the schedule against every engine in lockstep and
// returns the first oracle violation, annotated with the seed and the op
// index so the failure replays. A nil error means all oracles held after
// every operation.
func RunScenario(sc Scenario) error {
	wl := workload.New(sc.workloadConfig())
	g := grid.New(wl.Config().UoD, alphaMiles)
	nodes := sc.Nodes
	if nodes <= 0 {
		nodes = 4
	}

	serial := newLocalSystem("serial", g, sc.Opts, wl.Objects, 0, 0, sc.Trace)
	newRouter := core.NewClusterServer
	if sc.sharded {
		newRouter = core.NewShardedServer
	}
	router := newLocalSystemOver("router", g, sc.Opts, wl.Objects, sc.DropNthBroadcast, sc.Trace, func(down core.Downlink) core.ServerAPI {
		return newRouter(g, sc.Opts, down, nodes)
	})
	cs := router.srv.(*core.ClusterServer)
	var ledgered []*localSystem
	if sc.Costs {
		for ls, nodes := range map[*localSystem]int{serial: 0, router: cs.NumNodes()} {
			a := cost.New()
			a.Configure(g.NumCells(), 0, nodes)
			ls.attachCosts(a)
		}
		ledgered = []*localSystem{serial, router}
	}
	systems := []system{serial, router}
	var rsys *remoteSystem
	if sc.Remote {
		rsys = newRemoteSystem("remote", wl.Config().UoD, alphaMiles, sc.Opts, wl.Objects, nodes, sc.Faults, sc.Trace)
		defer rsys.close()
		systems = append(systems, rsys)
	}

	r := &runner{
		sc:        &sc,
		wl:        wl,
		g:         g,
		systems:   systems,
		ledgered:  ledgered,
		cs:        cs,
		rsys:      rsys,
		active:    make(map[model.ObjectID]bool),
		specByQID: make(map[model.QueryID]workload.QuerySpec),
	}
	if sc.ClusterSuppressReplay {
		cs.SuppressRecoveryReplay(true)
	}
	for _, o := range wl.Objects {
		for _, sys := range systems {
			if err := sys.join(o, r.now); err != nil {
				return fmt.Errorf("seed %d: initial join of object %d: %w", sc.Seed, o.ID, err)
			}
		}
		r.active[o.ID] = true
	}
	// Baseline checkpoint before the first op, so a crash scheduled at op 0
	// already has a (possibly empty) journal at the current watermark.
	if err := cs.Checkpoint(); err != nil {
		return fmt.Errorf("seed %d: baseline checkpoint: %w", sc.Seed, err)
	}
	for i, op := range sc.Ops {
		if err := r.apply(i, op); err != nil {
			if sc.Trace {
				return fmt.Errorf("%w\n%s", err, traceDump(systems, err))
			}
			return err
		}
	}
	if sc.inspectCluster != nil {
		sc.inspectCluster(cs)
	}
	return nil
}

// divergence is an oracle failure attributable to a specific query and/or
// object; a traced run uses the attribution to dump the exact causal
// timeline instead of the whole ring.
type divergence struct {
	err error
	qid model.QueryID
	oid model.ObjectID
}

func (d *divergence) Error() string { return d.err.Error() }
func (d *divergence) Unwrap() error { return d.err }

// tracedSystem is implemented by engines that can hand out their flight
// recorder (all of them when Scenario.Trace is set).
type tracedSystem interface {
	tracer() *trace.Recorder
}

// traceDump renders each engine's causal timeline of the failure: the
// closure of the divergent query/object when the error pinpoints one, the
// most recent events otherwise.
func traceDump(systems []system, err error) string {
	var div *divergence
	pinned := errors.As(err, &div)
	var b strings.Builder
	for _, sys := range systems {
		ts, ok := sys.(tracedSystem)
		if !ok || ts.tracer() == nil {
			continue
		}
		rec := ts.tracer()
		var evs []trace.Event
		if pinned {
			evs = rec.Causal(int64(div.oid), int64(div.qid))
			fmt.Fprintf(&b, "--- %s: causal timeline of oid=%d qid=%d (%d events) ---\n",
				sys.name(), div.oid, div.qid, len(evs))
		} else {
			evs = rec.Events(trace.Filter{Limit: 40})
			fmt.Fprintf(&b, "--- %s: most recent %d events ---\n", sys.name(), len(evs))
		}
		trace.Format(&b, evs)
	}
	return b.String()
}

type runner struct {
	sc       *Scenario
	wl       *workload.Workload
	g        *grid.Grid
	systems  []system
	ledgered []*localSystem      // systems under the ledger oracle (Scenario.Costs)
	cs       *core.ClusterServer // the router engine's server
	rsys     *remoteSystem
	now      model.Time

	active    map[model.ObjectID]bool
	specByQID map[model.QueryID]workload.QuerySpec
	// gtValid: the ground-truth oracle only applies once an evaluate phase
	// has run since the last mutation that introduced unevaluated state (a
	// new query or a new object); containment is reported by clients during
	// TickEvaluate, not at install time.
	gtValid bool
}

// faultPhase applies the fault plan's op-index triggers before op i runs.
func (r *runner) faultPhase(i int) error {
	f := r.sc.Faults
	if f == nil || r.rsys == nil || r.rsys.faults == nil {
		return nil
	}
	if i == f.Start {
		r.rsys.faults.active.Store(true)
	}
	for _, k := range f.Kills {
		if k.AtOp == i {
			r.rsys.kill(model.ObjectID(k.Obj))
		}
		// A killed object reconnects at the next op boundary, so the
		// resync path itself runs under active faults.
		if k.AtOp == i-1 {
			if err := r.rsys.reconnect(model.ObjectID(k.Obj), r.now); err != nil {
				return err
			}
		}
	}
	if i == f.End {
		r.rsys.faults.active.Store(false)
		if err := r.rsys.heal(r.now); err != nil {
			return err
		}
	}
	return nil
}

// clusterPhase applies the scheduled cluster events before op i runs: node
// kills and rebalances on the router engine. Both drain or migrate
// focals via charge-free admin handoffs, so no oracle weakening follows —
// the strict check after the op doubles as the convergence assertion.
func (r *runner) clusterPhase(i int) error {
	cs := r.cs
	for _, ev := range r.sc.ClusterEvents {
		if ev.AtOp != i {
			continue
		}
		switch ev.Kind {
		case ClusterKill:
			if err := cs.KillNode(ev.Node); err != nil {
				return fmt.Errorf("cluster event kill node %d: %w", ev.Node, err)
			}
		case ClusterRebalance:
			if _, err := cs.Rebalance(); err != nil {
				return fmt.Errorf("cluster event rebalance: %w", err)
			}
		case ClusterCrash:
			if err := cs.CrashNode(ev.Node); err != nil {
				return fmt.Errorf("cluster event crash node %d: %w", ev.Node, err)
			}
		case ClusterCrashOnHandoff:
			cs.ArmCrashOnHandoff(ev.Node)
		default:
			return fmt.Errorf("cluster event: unknown kind %q", ev.Kind)
		}
	}
	return nil
}

// strictAt reports whether the full oracle hierarchy applies after op i.
// During a fault window and for ConvergeSteps ops past it only the
// invariant and liveness oracles hold; strictness resuming afterwards IS
// the convergence assertion.
func (r *runner) strictAt(i int) bool {
	f := r.sc.Faults
	if f == nil {
		return true
	}
	return i < f.Start || i >= f.End+f.convergeSteps()
}

func (r *runner) apply(i int, op Op) error {
	fail := func(err error) error {
		return fmt.Errorf("seed %d, op %d (%s): %w", r.sc.Seed, i, op, err)
	}
	if err := r.faultPhase(i); err != nil {
		return fail(err)
	}
	if err := r.clusterPhase(i); err != nil {
		return fail(err)
	}
	switch op.Kind {
	case OpStep:
		r.now += model.FromSeconds(r.wl.Config().StepSeconds)
		r.wl.Step()
		for _, sys := range r.systems {
			if err := sys.expire(r.now); err != nil {
				return fail(err)
			}
			if err := sys.step(r.now); err != nil {
				return fail(err)
			}
		}
		r.gtValid = true
	case OpInstall, OpInstallUntil:
		spec := r.wl.Queries[op.A%len(r.wl.Queries)]
		maxVel := r.wl.Objects[int(spec.Focal)-1].MaxVel
		expiry := r.now + model.Time(float64(model.FromSeconds(r.wl.Config().StepSeconds))*float64(op.B))
		var qids []model.QueryID
		for _, sys := range r.systems {
			var qid model.QueryID
			var err error
			if op.Kind == OpInstall {
				qid, err = sys.install(spec, maxVel, r.now)
			} else {
				qid, err = sys.installUntil(spec, maxVel, expiry, r.now)
			}
			if err != nil {
				return fail(err)
			}
			qids = append(qids, qid)
		}
		for _, qid := range qids[1:] {
			if qid != qids[0] {
				return fail(fmt.Errorf("engines assigned different query IDs: %v", qids))
			}
		}
		r.specByQID[qids[0]] = spec
		r.gtValid = false
	case OpRemove:
		ids := r.systems[0].queryIDs()
		if len(ids) == 0 {
			return nil
		}
		qid := ids[op.A%len(ids)]
		for _, sys := range r.systems {
			if err := sys.remove(qid, r.now); err != nil {
				return fail(err)
			}
		}
	case OpDepart:
		oids := r.sortedActive()
		if len(oids) <= 2 {
			return nil // keep a population to compare
		}
		oid := oids[op.A%len(oids)]
		for _, sys := range r.systems {
			if err := sys.depart(oid, r.now); err != nil {
				return fail(err)
			}
		}
		r.active[oid] = false
	case OpJoin:
		oids := r.sortedDeparted()
		if len(oids) == 0 {
			return nil
		}
		oid := oids[op.A%len(oids)]
		for _, sys := range r.systems {
			if err := sys.join(r.wl.Objects[int(oid)-1], r.now); err != nil {
				return fail(err)
			}
		}
		r.active[oid] = true
		r.gtValid = false
	}
	// Checkpoint the router engine after every op: the journal watermark
	// is never more than one op behind, so a crash fired at the next op
	// boundary loses nothing and the strict oracle doubles as the
	// recovery-convergence assertion. (A live deployment checkpoints on the
	// ~1s telemetry round instead; loss is bounded by that watermark.)
	if err := r.cs.Checkpoint(); err != nil {
		return fail(fmt.Errorf("checkpoint: %w", err))
	}
	if err := r.checkOracle(r.strictAt(i)); err != nil {
		return fail(err)
	}
	return nil
}

func (r *runner) sortedActive() []model.ObjectID {
	var out []model.ObjectID
	for _, o := range r.wl.Objects {
		if r.active[o.ID] {
			out = append(out, o.ID)
		}
	}
	return out
}

func (r *runner) sortedDeparted() []model.ObjectID {
	var out []model.ObjectID
	for _, o := range r.wl.Objects {
		if !r.active[o.ID] {
			out = append(out, o.ID)
		}
	}
	return out
}

// checkOracle applies the oracle hierarchy of DESIGN.md §10. The invariant
// oracle always runs; under strict mode the differential oracle (query
// sets, per-query results, byte-identical snapshots across engines) and —
// for exact protocol variants — the ground-truth oracle run too.
func (r *runner) checkOracle(strict bool) error {
	for _, sys := range r.systems {
		if err := sys.invariants(); err != nil {
			return fmt.Errorf("%s: invariant violated: %w", sys.name(), err)
		}
	}
	if !strict {
		return nil
	}

	base := r.systems[0]
	baseIDs := base.queryIDs()
	for _, sys := range r.systems[1:] {
		if err := diffIDs(baseIDs, sys.queryIDs()); err != nil {
			return fmt.Errorf("%s vs %s: query sets differ: %w", base.name(), sys.name(), err)
		}
	}
	for _, qid := range baseIDs {
		want := base.result(qid)
		for _, sys := range r.systems[1:] {
			got := sys.result(qid)
			if !oidsEqual(want, got) {
				return &divergence{
					err: fmt.Errorf("query %d: %s result %v, %s result %v", qid, base.name(), want, sys.name(), got),
					qid: qid,
					oid: firstResultDiff(want, got),
				}
			}
		}
		if r.sc.gtEligible() && r.gtValid {
			spec, ok := r.specByQID[qid]
			if ok && r.active[spec.Focal] {
				gt := r.filterActive(sim.GroundTruth(r.g, r.wl.Objects, spec))
				if !oidsEqual(want, gt) {
					return &divergence{
						err: fmt.Errorf("query %d: engines report %v, ground truth %v", qid, want, gt),
						qid: qid,
						oid: firstResultDiff(want, gt),
					}
				}
			}
		}
	}

	if err := r.checkLedgers(); err != nil {
		return err
	}

	baseSnap, err := base.snapshot()
	if err != nil {
		return err
	}
	for _, sys := range r.systems[1:] {
		if r.sc.Faults != nil && sys == system(r.rsys) {
			// A resync legitimately re-bases motion-state timestamps (same
			// trajectory, newer base point), so after a fault window the
			// remote snapshot is equivalent but not byte-identical. The
			// query-set, result, invariant and ground-truth oracles above
			// still hold for it.
			continue
		}
		snap, err := sys.snapshot()
		if err != nil {
			return err
		}
		if !bytes.Equal(baseSnap, snap) {
			return fmt.Errorf("%s snapshot (%d bytes) differs from %s snapshot (%d bytes)",
				sys.name(), len(snap), base.name(), len(baseSnap))
		}
	}
	return nil
}

// checkLedgers is the ledger oracle (Scenario.Costs): engines that ran the
// exact same schedule must have charged identical global cost ledgers —
// LedgerSnap is a comparable value, so this is one == per pair — and the
// router must attribute every dispatched uplink to exactly one node (or to
// itself for messages about unknown entities), making the node sum plus
// router equal the global uplink count, across kills and rebalances too.
func (r *runner) checkLedgers() error {
	if len(r.ledgered) == 0 {
		return nil
	}
	base := r.ledgered[0]
	want := base.acct.Global()
	for _, ls := range r.ledgered[1:] {
		if got := ls.acct.Global(); got != want {
			return fmt.Errorf("%s vs %s: global cost ledgers diverged:\n%+v\nvs\n%+v",
				base.name(), ls.name(), want, got)
		}
	}
	for _, ls := range r.ledgered {
		nodes := ls.acct.Nodes()
		if len(nodes) == 0 {
			continue
		}
		dispatched := ls.acct.Router().UplinkMsgs()
		for _, n := range nodes {
			dispatched += n.UplinkMsgs()
		}
		if global := ls.acct.Global().UplinkMsgs(); dispatched != global {
			return fmt.Errorf("%s: node+router ledgers account for %d uplinks, transport charged %d",
				ls.name(), dispatched, global)
		}
	}
	return nil
}

// filterActive drops departed objects from a ground-truth result: the
// brute-force evaluator sees the whole population, the engines only the
// objects currently in the system.
func (r *runner) filterActive(ids []model.ObjectID) []model.ObjectID {
	out := ids[:0]
	for _, id := range ids {
		if r.active[id] {
			out = append(out, id)
		}
	}
	return out
}

func diffIDs(a, b []model.QueryID) error {
	if len(a) != len(b) {
		return fmt.Errorf("%v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%v vs %v", a, b)
		}
	}
	return nil
}

// firstResultDiff returns the first object ID present in one result set but
// not the other — the most suspicious entity of a result divergence. Both
// slices are sorted. Zero when the sets only differ by ordering.
func firstResultDiff(a, b []model.ObjectID) model.ObjectID {
	inA := make(map[model.ObjectID]bool, len(a))
	for _, id := range a {
		inA[id] = true
	}
	for _, id := range b {
		if !inA[id] {
			return id
		}
	}
	inB := make(map[model.ObjectID]bool, len(b))
	for _, id := range b {
		inB[id] = true
	}
	for _, id := range a {
		if !inB[id] {
			return id
		}
	}
	return 0
}

func oidsEqual(a, b []model.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
