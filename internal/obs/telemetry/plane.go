package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
)

// Default watchdog thresholds. Both are generous: the plane's job is to
// catch dead or wedged nodes and broken invariants, not to flap on a busy
// scheduler.
const (
	// DefaultHeartbeatDeadline is how stale an expected node's last
	// telemetry may be before the watchdog raises heartbeat-stale.
	DefaultHeartbeatDeadline = 5 * time.Second
	// DefaultRTTSLO is the per-node uplink (heartbeat round-trip) latency
	// above which the watchdog raises a warning.
	DefaultRTTSLO = 250 * time.Millisecond
)

// Severity levels for alerts.
const (
	SeverityWarn     = "warn"
	SeverityCritical = "critical"
)

// Watchdog check names, one per invariant.
const (
	CheckLedgerIdentity = "ledger-identity"
	CheckSpanCoverage   = "span-coverage"
	CheckEpoch          = "epoch-regression"
	CheckSpanRange      = "span-range"
	CheckHeartbeat      = "heartbeat-stale"
	CheckUnreachable    = "node-unreachable"
	CheckUplinkSLO      = "uplink-slo"
)

// An Alert is one latched watchdog violation: which invariant failed, on
// which node (-1 = cluster-wide), how bad, since when, and for how many
// consecutive rounds. Alerts clear automatically when the check passes.
type Alert struct {
	Check      string `json:"check"`
	Node       int    `json:"node"` // -1 = cluster-wide
	Severity   string `json:"severity"`
	Detail     string `json:"detail"`
	SinceNanos int64  `json:"since_nanos"`
	Rounds     int64  `json:"rounds"`
}

func (a Alert) String() string {
	where := "cluster"
	if a.Node >= 0 {
		where = "node " + strconv.Itoa(a.Node)
	}
	return fmt.Sprintf("[%s] %s %s: %s (%d rounds)", a.Severity, where, a.Check, a.Detail, a.Rounds)
}

// SpanView is the router's authoritative view of one node's assignment,
// passed into every watchdog round.
type SpanView struct {
	Node int
	Lo   int
	Hi   int
	Live bool
}

// View is the router's authoritative cluster state for one watchdog round.
// Handoffs is the router's count of protocol handoffs so far, reported in
// the cluster view as of the last round.
type View struct {
	Epoch    uint64
	Cells    int
	Spans    []SpanView
	Handoffs int64
}

// Config configures a Plane. Every field is optional.
type Config struct {
	// Metrics is the router registry worker series are re-exported into
	// (and the plane's own counters registered on).
	Metrics *obs.Registry
	// Trace is the router ring worker trace batches merge into.
	Trace *trace.Recorder
	// Costs is the router's accountant, checked for the router+Σnodes ==
	// global uplink identity each round.
	Costs *cost.Accountant
	// HeartbeatDeadline / RTTSLO override the watchdog thresholds
	// (defaults above); Now overrides the clock (tests).
	HeartbeatDeadline time.Duration
	RTTSLO            time.Duration
	Now               func() time.Time
}

// nodeState is everything the plane knows about one worker node.
type nodeState struct {
	expected bool      // wired for telemetry: liveness deadlines apply
	lastSeen time.Time // last telemetry or status arrival (or ExpectNode time)
	lastSeq  uint64    // last applied batch sequence
	epoch    uint64    // last reported span epoch
	maxEpoch uint64    // high-water epoch (regression detection)
	lo, hi   uint32
	ops      uint64
	rtt      time.Duration
	probeErr error
	batches  int64
	events   int64
	// gauges holds every gauge series the node shipped, by series key, so
	// a crash can zero what the dead node no longer holds.
	gauges map[string]*obs.Gauge
}

// importedSeries tracks one re-exported worker counter for delta import.
type importedSeries struct {
	ctr  *obs.Counter
	last float64
}

// A Plane is the router-side telemetry aggregator and invariant watchdog.
// All methods are safe for concurrent use and no-ops on a nil receiver.
type Plane struct {
	reg  *obs.Registry
	rec  *trace.Recorder
	acct *cost.Accountant
	now  func() time.Time

	hbDeadline time.Duration
	rttSLO     time.Duration

	batchesTotal *obs.Counter
	eventsTotal  *obs.Counter
	roundsTotal  *obs.Counter
	raisedTotal  *obs.Counter
	resolvTotal  *obs.Counter

	mu       sync.Mutex
	nodes    map[int]*nodeState
	imported map[string]*importedSeries // key: node|series key
	alerts   map[string]*Alert          // key: check|node
	rounds   int64
	lastView View
	hasView  bool
	// recovering marks nodes whose crash-recovery replay is in progress:
	// their node-scoped critical alerts degrade health instead of failing
	// it (the router is actively healing, not broken). recoveries counts
	// completed recoveries.
	recovering map[int]bool
	recoveries int64

	recoveriesTotal *obs.Counter
}

// New returns a plane over the router's observability surfaces.
func New(cfg Config) *Plane {
	p := &Plane{
		reg:        cfg.Metrics,
		rec:        cfg.Trace,
		acct:       cfg.Costs,
		now:        cfg.Now,
		hbDeadline: cfg.HeartbeatDeadline,
		rttSLO:     cfg.RTTSLO,
		nodes:      make(map[int]*nodeState),
		imported:   make(map[string]*importedSeries),
		alerts:     make(map[string]*Alert),
		recovering: make(map[int]bool),
	}
	if p.now == nil {
		p.now = time.Now
	}
	if p.hbDeadline <= 0 {
		p.hbDeadline = DefaultHeartbeatDeadline
	}
	if p.rttSLO <= 0 {
		p.rttSLO = DefaultRTTSLO
	}
	p.batchesTotal = p.reg.Counter("mobieyes_cluster_telemetry_batches_total",
		"Telemetry batches received from worker nodes.")
	p.eventsTotal = p.reg.Counter("mobieyes_cluster_telemetry_events_total",
		"Worker trace events merged into the router ring.")
	p.roundsTotal = p.reg.Counter("mobieyes_cluster_watchdog_rounds_total",
		"Invariant watchdog evaluation rounds.")
	p.raisedTotal = p.reg.Counter("mobieyes_cluster_alerts_raised_total",
		"Watchdog alerts raised (transitions into failing).")
	p.resolvTotal = p.reg.Counter("mobieyes_cluster_alerts_resolved_total",
		"Watchdog alerts resolved (transitions back to passing).")
	p.recoveriesTotal = p.reg.Counter("mobieyes_cluster_recoveries_total",
		"Crash recoveries completed: journaled focal state replayed into survivors.")
	p.reg.GaugeFunc("mobieyes_cluster_alerts_active",
		"Watchdog alerts currently failing.", func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.alerts))
		})
	return p
}

// node returns (creating) the state record for a node. p.mu held.
func (p *Plane) node(i int) *nodeState {
	st, ok := p.nodes[i]
	if !ok {
		st = &nodeState{}
		p.nodes[i] = st
	}
	return st
}

// ExpectNode declares that a node ships telemetry over the wire, so the
// heartbeat liveness deadline applies to it. In-process nodes are never
// expected — their state is directly visible to the router.
func (p *Plane) ExpectNode(i int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.node(i)
	st.expected = true
	if st.lastSeen.IsZero() {
		st.lastSeen = p.now()
	}
}

// Apply decodes and merges one pushed telemetry batch from a worker:
// metrics re-export under node="N", trace-batch merge into the router ring.
func (p *Plane) Apply(node int, seq uint64, payload []byte) error {
	if p == nil {
		return nil
	}
	b, err := DecodeBatch(payload)
	if err != nil {
		return err
	}
	label := strconv.Itoa(node)
	p.mu.Lock()
	st := p.node(node)
	st.lastSeen = p.now()
	st.lastSeq = seq
	st.batches++
	st.events += int64(len(b.Events))
	st.probeErr = nil

	type counterDelta struct {
		ctr   *obs.Counter
		delta int64
	}
	var deltas []counterDelta
	for _, sp := range b.Metrics {
		if sp.Counter {
			key := label + "|" + sp.Key()
			is, ok := p.imported[key]
			if !ok {
				is = &importedSeries{ctr: p.reg.Counter(sp.Name, sp.Help, nodeLabels(sp.Labels, label)...)}
				p.imported[key] = is
			}
			d := sp.Value - is.last
			if d < 0 { // worker restarted: re-import from zero
				d = sp.Value
			}
			is.last = sp.Value
			if d != 0 {
				deltas = append(deltas, counterDelta{is.ctr, int64(d)})
			}
		} else {
			// Setting a gauge is one atomic store, done under p.mu, where
			// NoteRecoveryStart zeroes the node's gauges.
			g, ok := st.gauges[sp.Key()]
			if !ok {
				if st.gauges == nil {
					st.gauges = make(map[string]*obs.Gauge)
				}
				g = p.reg.Gauge(sp.Name, sp.Help, nodeLabels(sp.Labels, label)...)
				st.gauges[sp.Key()] = g
			}
			g.Set(sp.Value)
		}
	}
	p.mu.Unlock()

	// Registry mutations happen outside p.mu: the registry has its own
	// lock, and GaugeFunc closures (alerts_active) take p.mu at scrape.
	for _, d := range deltas {
		d.ctr.Add(d.delta)
	}
	for _, ev := range b.Events {
		p.rec.Record(ev)
	}
	p.batchesTotal.Add(1)
	p.eventsTotal.Add(int64(len(b.Events)))
	return nil
}

// nodeLabels returns the point's labels with any worker-side "node" pair
// replaced by this node's label.
func nodeLabels(labels []string, node string) []string {
	out := make([]string, 0, len(labels)+2)
	for i := 0; i+1 < len(labels); i += 2 {
		if labels[i] == "node" {
			continue
		}
		out = append(out, labels[i], labels[i+1])
	}
	return append(out, "node", node)
}

// ApplyStatus records a worker's heartbeat answer.
func (p *Plane) ApplyStatus(st msg.NodeStatus) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ns := p.node(int(st.Node))
	ns.lastSeen = p.now()
	ns.epoch = st.Epoch
	if st.Epoch > ns.maxEpoch {
		ns.maxEpoch = st.Epoch
	}
	ns.lo, ns.hi = st.Lo, st.Hi
	ns.ops = st.Ops
	ns.probeErr = nil
}

// ObserveRTT records one node's heartbeat round-trip time — the plane's
// uplink latency signal for the SLO check.
func (p *Plane) ObserveRTT(node int, d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.node(node).rtt = d
}

// NoteProbeError records that a heartbeat or exchange with a node failed;
// the next round raises node-unreachable. Cleared by any successful
// telemetry arrival.
func (p *Plane) NoteProbeError(node int, err error) {
	if p == nil || err == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.node(node).probeErr = err
}

// NoteRecoveryStart marks a node's crash recovery as in progress: the
// router has fenced the dead node and is replaying its journaled focal
// state into survivors. Until NoteRecoveryDone, node-scoped critical
// alerts degrade health rather than failing it. Every gauge the dead node
// shipped reads 0 from here on: its tables are replayed into survivors,
// whose own gauges count them, so keeping its last values would count them
// twice.
func (p *Plane) NoteRecoveryStart(node int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.recovering[node] = true
	if st, ok := p.nodes[node]; ok {
		for _, g := range st.gauges {
			g.Set(0)
		}
	}
	p.mu.Unlock()
}

// NoteRecoveryDone marks a node's crash recovery as complete: the replay
// converged and the dead node's alerts have been resolved by the round
// that observed it leaving the live set.
func (p *Plane) NoteRecoveryDone(node int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	delete(p.recovering, node)
	p.recoveries++
	p.mu.Unlock()
	p.recoveriesTotal.Add(1)
}

// Recoveries returns the number of completed crash recoveries.
func (p *Plane) Recoveries() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recoveries
}

// uplink kinds the router dispatches into nodes; the ledger identity is
// checked per kind over message counts (byte totals differ legitimately:
// the transport charges wire bytes to the global ledger, the router charges
// protocol Size() to node ledgers).
var identityKinds = [...]msg.Kind{
	msg.KindVelocityReport, msg.KindCellChangeReport, msg.KindContainmentReport,
	msg.KindGroupContainmentReport, msg.KindFocalInfoResponse, msg.KindDepartureReport,
}

// Round evaluates every watchdog invariant against the router's
// authoritative view, updating the latched alert set, and returns the
// currently active alerts (sorted). Call it on every telemetry round: the
// periodic heartbeat tick and handoff/rebalance edges.
func (p *Plane) Round(v View) []Alert {
	if p == nil {
		return nil
	}
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rounds++
	p.lastView, p.hasView = v, true

	failing := make(map[string]Alert)
	fail := func(check string, node int, sev, detail string) {
		failing[check+"|"+strconv.Itoa(node)] = Alert{Check: check, Node: node, Severity: sev, Detail: detail}
	}

	// 1. Cost identity: router + Σnodes == global uplink message counts,
	// per dispatched kind.
	if p.acct != nil {
		if nodes := p.acct.Nodes(); len(nodes) > 0 {
			global, router := p.acct.Global(), p.acct.Router()
			for _, k := range identityKinds {
				sum := router.UpMsgs[k]
				for _, n := range nodes {
					sum += n.UpMsgs[k]
				}
				if sum != global.UpMsgs[k] {
					fail(CheckLedgerIdentity, -1, SeverityCritical,
						fmt.Sprintf("%v uplinks: router+Σnodes=%d, global=%d", k, sum, global.UpMsgs[k]))
					break
				}
			}
		}
	}

	// 2. Span coverage: live spans partition [0, Cells); dead spans empty.
	if v.Cells > 0 && len(v.Spans) > 0 {
		spans := append([]SpanView(nil), v.Spans...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
		covered, ok, detail := 0, true, ""
		for _, s := range spans {
			if !s.Live {
				if s.Lo != s.Hi {
					ok, detail = false, fmt.Sprintf("dead node %d holds span [%d,%d)", s.Node, s.Lo, s.Hi)
				}
				continue
			}
			if s.Lo != covered {
				ok, detail = false, fmt.Sprintf("gap or overlap at cell %d (node %d starts at %d)", covered, s.Node, s.Lo)
				break
			}
			covered = s.Hi
		}
		if ok && covered != v.Cells {
			ok, detail = false, fmt.Sprintf("spans cover %d of %d cells", covered, v.Cells)
		}
		if !ok {
			fail(CheckSpanCoverage, -1, SeverityCritical, detail)
		}
	}

	for _, s := range v.Spans {
		st, seen := p.nodes[s.Node]
		if !seen {
			continue
		}
		// 3. Epoch monotonicity: a node may lag the router (assignment in
		// flight) but must never regress or run ahead.
		if st.epoch != 0 {
			if st.epoch < st.maxEpoch {
				fail(CheckEpoch, s.Node, SeverityCritical,
					fmt.Sprintf("reported epoch %d after %d", st.epoch, st.maxEpoch))
			} else if st.epoch > v.Epoch {
				fail(CheckEpoch, s.Node, SeverityCritical,
					fmt.Sprintf("reported epoch %d ahead of router epoch %d", st.epoch, v.Epoch))
			}
			// 4. Span agreement, only when the node is caught up.
			if s.Live && st.epoch == v.Epoch && (int(st.lo) != s.Lo || int(st.hi) != s.Hi) {
				fail(CheckSpanRange, s.Node, SeverityCritical,
					fmt.Sprintf("reports span [%d,%d), router expects [%d,%d) at epoch %d",
						st.lo, st.hi, s.Lo, s.Hi, v.Epoch))
			}
		}
		// 5. Heartbeat liveness, for live nodes wired over the wire.
		if s.Live && st.expected {
			if st.probeErr != nil {
				fail(CheckUnreachable, s.Node, SeverityCritical, st.probeErr.Error())
			} else if age := now.Sub(st.lastSeen); age > p.hbDeadline {
				fail(CheckHeartbeat, s.Node, SeverityCritical,
					fmt.Sprintf("no telemetry for %v (deadline %v)", age.Round(time.Millisecond), p.hbDeadline))
			}
			// 6. Uplink latency SLO.
			if st.rtt > p.rttSLO {
				fail(CheckUplinkSLO, s.Node, SeverityWarn,
					fmt.Sprintf("heartbeat RTT %v exceeds SLO %v", st.rtt.Round(time.Microsecond), p.rttSLO))
			}
		}
	}

	// Latch/refresh/resolve.
	for key, a := range failing {
		if cur, ok := p.alerts[key]; ok {
			cur.Rounds++
			cur.Detail = a.Detail
			cur.Severity = a.Severity
		} else {
			na := a
			na.SinceNanos = now.UnixNano()
			na.Rounds = 1
			p.alerts[key] = &na
			p.raisedTotal.Add(1)
		}
	}
	for key := range p.alerts {
		if _, still := failing[key]; !still {
			delete(p.alerts, key)
			p.resolvTotal.Add(1)
		}
	}
	p.roundsTotal.Add(1)
	return p.activeLocked()
}

// activeLocked returns the active alerts sorted by (severity desc, check,
// node). p.mu held.
func (p *Plane) activeLocked() []Alert {
	out := make([]Alert, 0, len(p.alerts))
	for _, a := range p.alerts {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity == SeverityCritical
		}
		if out[i].Check != out[j].Check {
			return out[i].Check < out[j].Check
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Alerts returns the currently active alerts, sorted.
func (p *Plane) Alerts() []Alert {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.activeLocked()
}

// Health classifications.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthFailing  = "failing"
)

// healthLocked classifies the active alert set. p.mu held.
//
// A critical alert scoped to a node whose crash recovery is in progress
// counts as degraded, not failing: the router is actively healing that
// node's state, and /readyz flipping to 503 mid-replay would eject the
// router from load balancing exactly when it is about to converge.
func (p *Plane) healthLocked() string {
	h := HealthOK
	for _, a := range p.alerts {
		if a.Severity == SeverityCritical && !(a.Node >= 0 && p.recovering[a.Node]) {
			return HealthFailing
		}
		h = HealthDegraded
	}
	return h
}

// HealthStatus returns "ok", "degraded" or "failing" ("ok" on nil).
func (p *Plane) HealthStatus() string {
	if p == nil {
		return HealthOK
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthLocked()
}

// Ready implements the /readyz contract: the status line plus whether the
// cluster is still fit to serve (critical alerts mean it is not).
func (p *Plane) Ready() (string, bool) {
	s := p.HealthStatus()
	return s, s != HealthFailing
}

// NodeSnapshot is one node's state in the JSON /debug/cluster view.
type NodeSnapshot struct {
	Node       int     `json:"node"`
	Live       bool    `json:"live"`
	Expected   bool    `json:"expected"`
	Lo         int     `json:"lo"`
	Hi         int     `json:"hi"`
	Epoch      uint64  `json:"epoch"`
	Ops        uint64  `json:"ops"`
	Batches    int64   `json:"batches"`
	Events     int64   `json:"events"`
	AgeSeconds float64 `json:"age_seconds"`
	RTTMillis  float64 `json:"rtt_millis"`
	ProbeError string  `json:"probe_error,omitempty"`
	Recovering bool    `json:"recovering,omitempty"`
}

// Snapshot is the full JSON /debug/cluster view.
type Snapshot struct {
	Health     string         `json:"health"`
	Epoch      uint64         `json:"epoch"`
	Rounds     int64          `json:"rounds"`
	Handoffs   int64          `json:"handoffs"`
	Recoveries int64          `json:"recoveries"`
	Alerts     []Alert        `json:"alerts"`
	Nodes      []NodeSnapshot `json:"nodes"`
}

// Snapshot returns the plane's current state: the cluster view's body.
func (p *Plane) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{Health: HealthOK}
	}
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		Health:     p.healthLocked(),
		Rounds:     p.rounds,
		Handoffs:   p.lastView.Handoffs,
		Recoveries: p.recoveries,
		Alerts:     p.activeLocked(),
	}
	if p.hasView {
		s.Epoch = p.lastView.Epoch
		for _, sp := range p.lastView.Spans {
			ns := NodeSnapshot{Node: sp.Node, Live: sp.Live, Lo: sp.Lo, Hi: sp.Hi,
				Recovering: p.recovering[sp.Node]}
			if st, ok := p.nodes[sp.Node]; ok {
				ns.Expected = st.expected
				ns.Epoch = st.epoch
				ns.Ops = st.ops
				ns.Batches = st.batches
				ns.Events = st.events
				if !st.lastSeen.IsZero() {
					ns.AgeSeconds = now.Sub(st.lastSeen).Seconds()
				}
				ns.RTTMillis = float64(st.rtt) / float64(time.Millisecond)
				if st.probeErr != nil {
					ns.ProbeError = st.probeErr.Error()
				}
			}
			s.Nodes = append(s.Nodes, ns)
		}
	} else {
		// No round yet: report what the plane has heard from, by node.
		var ids []int
		for i := range p.nodes {
			ids = append(ids, i)
		}
		sort.Ints(ids)
		for _, i := range ids {
			st := p.nodes[i]
			ns := NodeSnapshot{Node: i, Live: true, Expected: st.expected,
				Epoch: st.epoch, Ops: st.ops, Batches: st.batches, Events: st.events}
			if !st.lastSeen.IsZero() {
				ns.AgeSeconds = now.Sub(st.lastSeen).Seconds()
			}
			s.Nodes = append(s.Nodes, ns)
		}
	}
	return s
}
