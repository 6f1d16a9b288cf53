// Package cost is the protocol cost & accuracy accounting layer: a
// dependency-free set of hierarchical ledgers that attribute every protocol
// action to the cost axes of the paper's evaluation (§6) — uplink/downlink
// message counts and wire bytes by message kind, broadcast fan-out per base
// station, object-side computation units, and server-side work — plus live
// answer-quality gauges (precision/recall against ground truth and a
// result-staleness histogram).
//
// Hierarchy and attribution rules (DESIGN.md §12):
//
//   - The global ledger is filled exactly once per message, at the transport
//     boundary: the simulated medium (internal/sim) or the frame codec
//     (internal/remote, bytes-on-wire including the length prefix). It is
//     the transport's only traffic ledger (Accountant.Traffic). A
//     broadcast relayed through k base stations counts as k downlink
//     messages, matching the paper's wireless-medium accounting.
//   - Per-node ledgers are filled at the router's dispatch points,
//     attributing each uplink to the node whose tables it mutates. Uplinks
//     the router drops as stale or handles itself go to the router ledger,
//     so sum(nodes) + router == global uplinks, exactly, even across focal
//     handoffs.
//   - Per-cell and per-station tallies are filled by the transport: an
//     uplink is charged to the sender's current grid cell and covering base
//     station; a broadcast is charged to every station it is relayed
//     through and every cell it reaches.
//   - Per-query and per-object tallies are filled at the server's
//     broadcast/unicast funnels using the protocol reference carried by
//     each message (which query or object it concerns), with the model wire
//     size — these are protocol-level attributions, not transport bytes.
//   - Compute units are charged where the work happens: clients charge
//     dead-reckoning evaluations, containment checks and LQT scans; the
//     server charges table operations and RQI cell touches; the network
//     layer charges set-cover computations.
//
// Everything is nil-safe: every method on a nil *Accountant is a no-op
// costing ~1–2 ns (one nil check), so instrumented code needs no "is
// accounting on?" branches and pays nothing when accounting is off. The
// exception is Traffic, which returns a private ledger, since a transport
// meters its traffic either way. Enabled sites are one or two atomic adds.
// All methods are safe for concurrent use after Configure.
package cost

import (
	"cmp"
	"sort"
	"sync"
	"sync/atomic"

	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
)

// Unit enumerates the computation-unit axes of the paper's evaluation:
// object-side work (§6.4: dead-reckoning evaluations, containment checks,
// LQT scans) and server-side work (table operations, RQI cell touches,
// set-cover computations for broadcast planning).
type Unit int

const (
	// UnitDeadReckoning is one object-side dead-reckoning deviation check.
	UnitDeadReckoning Unit = iota
	// UnitContainment is one object-side containment (region or focal-group
	// distance) evaluation.
	UnitContainment
	// UnitLQTScan is one object-side scan over an LQT entry.
	UnitLQTScan
	// UnitTableOp is one server-side FOT/SQT/result-table operation.
	UnitTableOp
	// UnitRQITouch is one monitoring-region cell whose RQI membership a
	// protocol event changed: every cell of the region at install and
	// removal, the cells left plus the cells entered at a relocation.
	UnitRQITouch
	// UnitSetCover is one greedy set-cover computation for broadcast
	// planning (network.Deployment.Cover).
	UnitSetCover

	numUnits
)

// NumUnits is the number of distinct computation units.
const NumUnits = int(numUnits)

var unitNames = [...]string{
	"DeadReckoning", "Containment", "LQTScan",
	"TableOp", "RQITouch", "SetCover",
}

// String implements fmt.Stringer.
func (u Unit) String() string {
	if u < 0 || int(u) >= len(unitNames) {
		return "UnknownUnit"
	}
	return unitNames[u]
}

// A Ledger tallies messages and wire bytes by direction and message kind,
// plus computation units. All fields are atomic counters; the zero value is
// ready to use and safe for concurrent use.
//
// A transport meters its traffic in exactly one Ledger (see
// Accountant.Traffic): the paper's "messages sent on the wireless medium",
// where a broadcast relayed through k base stations counts as k downlink
// messages.
type Ledger struct {
	upMsgs    [msg.NumKinds]obs.Counter
	upBytes   [msg.NumKinds]obs.Counter
	downMsgs  [msg.NumKinds]obs.Counter
	downBytes [msg.NumKinds]obs.Counter
	compute   [NumUnits]obs.Counter
}

// ChargeUplink charges one uplink message of kind k and its wire bytes.
func (l *Ledger) ChargeUplink(k msg.Kind, bytes int) {
	l.upMsgs[k].Add(1)
	l.upBytes[k].Add(int64(bytes))
}

// ChargeDownlink charges a downlink message of kind k and wire size bytes
// sent as copies transmissions (one per base station; 1 for a unicast).
func (l *Ledger) ChargeDownlink(k msg.Kind, bytes, copies int) {
	l.downMsgs[k].Add(int64(copies))
	l.downBytes[k].Add(int64(bytes * copies))
}

// UplinkMsgs returns the ledger's total uplink message count.
func (l *Ledger) UplinkMsgs() int64 { return sumCounters(l.upMsgs[:]) }

// DownlinkMsgs returns the ledger's total downlink message count.
func (l *Ledger) DownlinkMsgs() int64 { return sumCounters(l.downMsgs[:]) }

// UplinkBytes returns the ledger's total uplink bytes.
func (l *Ledger) UplinkBytes() int64 { return sumCounters(l.upBytes[:]) }

// DownlinkBytes returns the ledger's total downlink bytes.
func (l *Ledger) DownlinkBytes() int64 { return sumCounters(l.downBytes[:]) }

// ComputeUnits returns the tally for one computation unit.
func (l *Ledger) ComputeUnits(u Unit) int64 { return l.compute[u].Value() }

// LedgerSnap is a point-in-time copy of a Ledger. It is a comparable value
// (fixed-size arrays), so two snapshots can be checked for exact equality
// with == — the property the simtest serial-vs-router ledger oracle uses.
type LedgerSnap struct {
	UpMsgs    [msg.NumKinds]int64
	UpBytes   [msg.NumKinds]int64
	DownMsgs  [msg.NumKinds]int64
	DownBytes [msg.NumKinds]int64
	Compute   [NumUnits]int64
}

func sumInt64(vs []int64) int64 {
	var n int64
	for _, v := range vs {
		n += v
	}
	return n
}

// UplinkMsgs returns the snapshot's total uplink messages across kinds.
func (s LedgerSnap) UplinkMsgs() int64 { return sumInt64(s.UpMsgs[:]) }

// UplinkBytes returns the snapshot's total uplink bytes.
func (s LedgerSnap) UplinkBytes() int64 { return sumInt64(s.UpBytes[:]) }

// DownlinkMsgs returns the snapshot's total delivered downlink messages.
func (s LedgerSnap) DownlinkMsgs() int64 { return sumInt64(s.DownMsgs[:]) }

// DownlinkBytes returns the snapshot's total downlink bytes.
func (s LedgerSnap) DownlinkBytes() int64 { return sumInt64(s.DownBytes[:]) }

// ComputeUnits returns the snapshot's tally for one computation unit.
func (s LedgerSnap) ComputeUnits(u Unit) int64 { return s.Compute[u] }

// KindStats is one message kind's row of a traffic ledger.
type KindStats struct {
	Kind          msg.Kind
	UplinkMsgs    int64
	DownlinkMsgs  int64
	UplinkBytes   int64
	DownlinkBytes int64
}

// ByKind returns one row for every kind with any traffic, ordered by kind
// (nil when there is none).
func (s LedgerSnap) ByKind() []KindStats {
	var out []KindStats
	for k := 0; k < msg.NumKinds; k++ {
		if s.UpMsgs[k] == 0 && s.DownMsgs[k] == 0 {
			continue
		}
		out = append(out, KindStats{
			Kind:          msg.Kind(k),
			UplinkMsgs:    s.UpMsgs[k],
			DownlinkMsgs:  s.DownMsgs[k],
			UplinkBytes:   s.UpBytes[k],
			DownlinkBytes: s.DownBytes[k],
		})
	}
	return out
}

// Snap returns a point-in-time copy of the ledger's counters.
func (l *Ledger) Snap() LedgerSnap {
	var s LedgerSnap
	for k := 0; k < msg.NumKinds; k++ {
		s.UpMsgs[k] = l.upMsgs[k].Value()
		s.UpBytes[k] = l.upBytes[k].Value()
		s.DownMsgs[k] = l.downMsgs[k].Value()
		s.DownBytes[k] = l.downBytes[k].Value()
	}
	for u := 0; u < NumUnits; u++ {
		s.Compute[u] = l.compute[u].Value()
	}
	return s
}

// Reset zeroes the ledger in place (counters keep their identity so registry
// registrations survive). Intended for quiescent points, not concurrent use.
func (l *Ledger) Reset() {
	for k := 0; k < msg.NumKinds; k++ {
		zero(&l.upMsgs[k])
		zero(&l.upBytes[k])
		zero(&l.downMsgs[k])
		zero(&l.downBytes[k])
	}
	for u := 0; u < NumUnits; u++ {
		zero(&l.compute[u])
	}
}

func zero(c *obs.Counter) { c.Add(-c.Value()) }

func sumCounters(cs []obs.Counter) int64 {
	var t int64
	for i := range cs {
		t += cs[i].Value()
	}
	return t
}

// A Tally is the compact per-entity (cell, station, query, object) traffic
// record: message and byte counts by direction, without the per-kind split.
// Atomic; the zero value is ready.
type Tally struct {
	upMsgs, upBytes, downMsgs, downBytes obs.Counter
}

func (t *Tally) up(bytes int64) {
	t.upMsgs.Add(1)
	t.upBytes.Add(bytes)
}

func (t *Tally) down(bytes, copies int64) {
	t.downMsgs.Add(copies)
	t.downBytes.Add(bytes * copies)
}

func (t *Tally) reset() {
	zero(&t.upMsgs)
	zero(&t.upBytes)
	zero(&t.downMsgs)
	zero(&t.downBytes)
}

func (t *Tally) zeroValued() bool {
	return t.upMsgs.Value() == 0 && t.downMsgs.Value() == 0 &&
		t.upBytes.Value() == 0 && t.downBytes.Value() == 0
}

// TallySnap is a point-in-time copy of one entity's Tally.
type TallySnap struct {
	ID        int64 `json:"id"`
	UpMsgs    int64 `json:"up_msgs"`
	UpBytes   int64 `json:"up_bytes"`
	DownMsgs  int64 `json:"down_msgs"`
	DownBytes int64 `json:"down_bytes"`
}

func (t *Tally) snap(id int64) TallySnap {
	return TallySnap{
		ID:        id,
		UpMsgs:    t.upMsgs.Value(),
		UpBytes:   t.upBytes.Value(),
		DownMsgs:  t.downMsgs.Value(),
		DownBytes: t.downBytes.Value(),
	}
}

// staleBounds are the upper bounds (in steps) of the result-staleness
// histogram buckets; observations above the last bound land in the overflow
// bucket.
var staleBounds = [...]int64{0, 1, 2, 3, 5, 8, 13, 21}

// quality holds the live answer-quality instruments: latest-step precision
// and recall gauges, cumulative true/false positive and false negative
// counters, and the fixed-bucket staleness histogram.
type quality struct {
	precision, recall    obs.Gauge
	tp, fp, fn           obs.Counter
	stale                [len(staleBounds) + 1]obs.Counter
	staleSum, staleCount obs.Counter
}

// An Accountant is the root of the ledger hierarchy for one running system:
// a global transport ledger, a per-node ledger array plus the router
// ledger, per-cell and per-station tallies, per-query and per-object
// tallies, and the answer-quality instruments.
//
// A nil *Accountant is a valid, disabled accountant: every method is a
// no-op. Configure sizes the fixed scopes and must complete before
// concurrent use; everything else is safe for concurrent use.
type Accountant struct {
	global Ledger
	router Ledger

	// Fixed-size scopes, sized by Configure. Updates to these slices'
	// elements are atomic; the slice headers only change in Configure.
	nodes    []Ledger
	cells    []Tally
	stations []Tally

	queries tallyIndex
	objects tallyIndex
	mode    atomic.Pointer[string]

	q quality

	// egress meters the observability downlink: SSE bytes leaving through
	// the stream gateway and bytes entering the history log, charged at
	// the encode boundary like remote frames (DESIGN.md §12/§17).
	// Deliberately outside the Ledger hierarchy — observability egress is
	// not wireless-protocol traffic, so the cross-backend ledger-identity
	// oracle stays unaffected by who happens to be subscribed.
	egress struct {
		gatewayWrites  obs.Counter
		gatewayBytes   obs.Counter
		historyAppends obs.Counter
		historyBytes   obs.Counter
	}
}

// Per-ID tallies (queries, objects) live in a dense index: IDs in
// [0, denseIDs) map straight to a slot of a lazily allocated chunk, found
// with one atomic load. Engine IDs are small and consecutive, so the charge
// path takes no lock and probes no map. IDs outside that range — a hostile
// device may send any int64 — go to a locked sparse overflow; an ID lives
// in exactly one of the two.
const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
	denseIDs  = 1 << 22
)

// idTally is a Tally plus whether the ID has been charged since the last
// Reset, so snapshots list exactly the charged IDs (a zero-copy downlink
// charges without moving a counter).
type idTally struct {
	Tally
	charged atomic.Bool
}

type tallyChunk [chunkLen]idTally

// tallyIndex maps int64 IDs to their tallies, creating on first charge.
type tallyIndex struct {
	dense [denseIDs / chunkLen]atomic.Pointer[tallyChunk]
	// chunks bounds the scans: every allocated chunk index is below it.
	chunks atomic.Int64

	mu     sync.Mutex // guards chunk creation and sparse
	sparse map[int64]*idTally
}

// charge returns id's tally, marked charged.
func (x *tallyIndex) charge(id int64) *Tally {
	var t *idTally
	if uint64(id) < denseIDs {
		c := x.dense[id>>chunkBits].Load()
		if c == nil {
			c = x.newChunk(id)
		}
		t = &c[id&(chunkLen-1)]
	} else {
		t = x.sparseTally(id)
	}
	if !t.charged.Load() {
		t.charged.Store(true)
	}
	return &t.Tally
}

func (x *tallyIndex) newChunk(id int64) *tallyChunk {
	x.mu.Lock()
	defer x.mu.Unlock()
	c := x.dense[id>>chunkBits].Load()
	if c == nil {
		c = new(tallyChunk)
		x.dense[id>>chunkBits].Store(c)
		x.chunks.Store(max(x.chunks.Load(), id>>chunkBits+1))
	}
	return c
}

func (x *tallyIndex) sparseTally(id int64) *idTally {
	x.mu.Lock()
	defer x.mu.Unlock()
	t := x.sparse[id]
	if t == nil {
		if x.sparse == nil {
			x.sparse = make(map[int64]*idTally)
		}
		t = &idTally{}
		x.sparse[id] = t
	}
	return t
}

// lookup returns id's tally snapshot; ok is false when id was never
// charged.
func (x *tallyIndex) lookup(id int64) (TallySnap, bool) {
	var t *idTally
	if uint64(id) < denseIDs {
		if c := x.dense[id>>chunkBits].Load(); c != nil {
			t = &c[id&(chunkLen-1)]
		}
	} else {
		x.mu.Lock()
		t = x.sparse[id]
		x.mu.Unlock()
	}
	if t == nil || !t.charged.Load() {
		return TallySnap{}, false
	}
	return t.snap(id), true
}

// snapAll returns every charged ID's snapshot in ascending ID order:
// negative sparse IDs, then the dense range, then large sparse IDs.
func (x *tallyIndex) snapAll() []TallySnap {
	x.mu.Lock()
	var sparse []TallySnap
	for id, t := range x.sparse {
		if t.charged.Load() {
			sparse = append(sparse, t.snap(id))
		}
	}
	x.mu.Unlock()
	sort.Slice(sparse, func(i, j int) bool { return sparse[i].ID < sparse[j].ID })
	neg, _ := sort.Find(len(sparse), func(i int) int { return cmp.Compare(0, sparse[i].ID) })
	out := append(make([]TallySnap, 0, len(sparse)), sparse[:neg]...)
	for ci := range x.chunks.Load() {
		c := x.dense[ci].Load()
		if c == nil {
			continue
		}
		for i := range c {
			if c[i].charged.Load() {
				out = append(out, c[i].snap(int64(ci)<<chunkBits|int64(i)))
			}
		}
	}
	return append(out, sparse[neg:]...)
}

// reset zeroes every tally in place and forgets every ID. Race-clean
// against concurrent charges; a charge that overlaps the reset may survive
// it, as with any reset of live counters.
func (x *tallyIndex) reset() {
	for ci := range x.chunks.Load() {
		if c := x.dense[ci].Load(); c != nil {
			for i := range c {
				c[i].charged.Store(false)
				c[i].reset()
			}
		}
	}
	x.mu.Lock()
	x.sparse = nil
	x.mu.Unlock()
}

// New returns an enabled accountant. Call Configure before use to size the
// per-node/cell/station scopes (unscoped accounting works without it).
func New() *Accountant { return &Accountant{} }

// Configure (re)allocates the fixed per-node (router nodes: in-process
// shards or cluster workers), per-cell and per-station scopes. Zero or
// negative sizes disable that scope. Not safe to call concurrently with
// accounting updates — call before the system runs.
func (a *Accountant) Configure(numCells, numStations, numNodes int) {
	if a == nil {
		return
	}
	if numNodes > 0 {
		a.nodes = make([]Ledger, numNodes)
	} else {
		a.nodes = nil
	}
	if numCells > 0 {
		a.cells = make([]Tally, numCells)
	} else {
		a.cells = nil
	}
	if numStations > 0 {
		a.stations = make([]Tally, numStations)
	} else {
		a.stations = nil
	}
}

// SetMode records the propagation mode label ("EQP"/"LQP") the run is
// using, so reports can attribute costs to the variant.
func (a *Accountant) SetMode(mode string) {
	if a == nil {
		return
	}
	a.mode.Store(&mode)
}

// Mode returns the recorded propagation mode label.
func (a *Accountant) Mode() string {
	if a == nil {
		return ""
	}
	if m := a.mode.Load(); m != nil {
		return *m
	}
	return ""
}

// Traffic returns the global transport ledger, which the transport charges
// exactly once per message; Global snapshots it. On a nil accountant it
// returns a new private ledger, so a transport meters its traffic in the
// same structure whether or not accounting is on.
func (a *Accountant) Traffic() *Ledger {
	if a == nil {
		return new(Ledger)
	}
	return &a.global
}

// NodeUplink charges one uplink to the node that processed it. An index
// outside the configured range — in particular the router's conventional -1
// for stale drops and router-handled messages — goes to the router ledger,
// preserving sum(nodes) + router == global uplinks.
func (a *Accountant) NodeUplink(node int, k msg.Kind, bytes int) {
	if a == nil {
		return
	}
	if node < 0 || node >= len(a.nodes) {
		a.router.ChargeUplink(k, bytes)
		return
	}
	a.nodes[node].ChargeUplink(k, bytes)
}

// CellUp charges one uplink's bytes to the sender's grid cell. Out-of-range
// cells are ignored.
func (a *Accountant) CellUp(cell int32, bytes int) {
	if a == nil {
		return
	}
	if int(cell) < 0 || int(cell) >= len(a.cells) {
		return
	}
	a.cells[cell].up(int64(bytes))
}

// CellDown charges one downlink delivery to a receiving grid cell.
func (a *Accountant) CellDown(cell int32, bytes int) {
	if a == nil {
		return
	}
	if int(cell) < 0 || int(cell) >= len(a.cells) {
		return
	}
	a.cells[cell].down(int64(bytes), 1)
}

// StationUp charges one uplink to the base station that carried it.
func (a *Accountant) StationUp(station int32, bytes int) {
	if a == nil {
		return
	}
	if int(station) < 0 || int(station) >= len(a.stations) {
		return
	}
	a.stations[station].up(int64(bytes))
}

// StationDown charges one broadcast relay to a base station — the per-
// station downlink-bandwidth ledger (§3's asymmetric-channel bottleneck).
func (a *Accountant) StationDown(station int32, bytes int) {
	if a == nil {
		return
	}
	if int(station) < 0 || int(station) >= len(a.stations) {
		return
	}
	a.stations[station].down(int64(bytes), 1)
}

// QueryUp charges one uplink concerning query qid (protocol-level wire
// size).
func (a *Accountant) QueryUp(qid int64, bytes int) {
	if a == nil {
		return
	}
	a.queries.charge(qid).up(int64(bytes))
}

// QueryDown charges one downlink concerning query qid, sent as copies
// transmissions.
func (a *Accountant) QueryDown(qid int64, bytes, copies int) {
	if a == nil {
		return
	}
	a.queries.charge(qid).down(int64(bytes), int64(copies))
}

// ObjectUp charges one uplink sent by (or concerning) object oid.
func (a *Accountant) ObjectUp(oid int64, bytes int) {
	if a == nil {
		return
	}
	a.objects.charge(oid).up(int64(bytes))
}

// ObjectDown charges one downlink concerning object oid, sent as copies
// transmissions.
func (a *Accountant) ObjectDown(oid int64, bytes, copies int) {
	if a == nil {
		return
	}
	a.objects.charge(oid).down(int64(bytes), int64(copies))
}

// Compute charges n computation units of kind u to the global ledger.
func (a *Accountant) Compute(u Unit, n int64) {
	if a == nil {
		return
	}
	a.global.compute[u].Add(n)
}

// QualityStep records one measurement step's answer quality: tp/fp/fn are
// the step's true positives, false positives and false negatives summed
// over all queries. The precision/recall gauges reflect this latest step;
// the counters accumulate, so cumulative precision is Σtp/(Σtp+Σfp) and
// cumulative recall Σtp/(Σtp+Σfn).
func (a *Accountant) QualityStep(tp, fp, fn int64) {
	if a == nil {
		return
	}
	a.q.tp.Add(tp)
	a.q.fp.Add(fp)
	a.q.fn.Add(fn)
	if tp+fp > 0 {
		a.q.precision.Set(float64(tp) / float64(tp+fp))
	} else {
		a.q.precision.Set(1)
	}
	if tp+fn > 0 {
		a.q.recall.Set(float64(tp) / float64(tp+fn))
	} else {
		a.q.recall.Set(1)
	}
}

// ObserveStaleness records one resolved result-staleness episode: the
// number of steps between a ground-truth containment change and the
// server's result set reflecting it.
func (a *Accountant) ObserveStaleness(steps int64) {
	if a == nil {
		return
	}
	i := len(staleBounds)
	for b, bound := range staleBounds {
		if steps <= bound {
			i = b
			break
		}
	}
	a.q.stale[i].Add(1)
	a.q.staleSum.Add(steps)
	a.q.staleCount.Add(1)
}

// Global returns a snapshot of the global transport ledger.
func (a *Accountant) Global() LedgerSnap {
	if a == nil {
		return LedgerSnap{}
	}
	return a.global.Snap()
}

// Router returns a snapshot of the router ledger (stale drops and
// router-handled uplinks).
func (a *Accountant) Router() LedgerSnap {
	if a == nil {
		return LedgerSnap{}
	}
	return a.router.Snap()
}

// Nodes returns snapshots of the per-node ledgers.
func (a *Accountant) Nodes() []LedgerSnap {
	if a == nil {
		return nil
	}
	out := make([]LedgerSnap, len(a.nodes))
	for i := range a.nodes {
		out[i] = a.nodes[i].Snap()
	}
	return out
}

// GatewayEgress charges one SSE write of the given byte length to the
// stream-gateway egress meter. Called by the gateway at the encode
// boundary; nil-safe, so it can be installed unconditionally as a cost
// hook.
func (a *Accountant) GatewayEgress(bytes int) {
	if a == nil {
		return
	}
	a.egress.gatewayWrites.Add(1)
	a.egress.gatewayBytes.Add(int64(bytes))
}

// HistoryAppend charges one history-log append of the given byte length
// (record plus any segment header) to the history egress meter. Called by
// the history store at the encode boundary; nil-safe.
func (a *Accountant) HistoryAppend(bytes int) {
	if a == nil {
		return
	}
	a.egress.historyAppends.Add(1)
	a.egress.historyBytes.Add(int64(bytes))
}

// Reset zeroes every ledger, tally and quality instrument in place,
// preserving registry registrations and configured scope sizes. Intended
// for quiescent points (e.g. after warmup), like Ledger.Reset; it is
// race-clean against concurrent charges, which may or may not survive it.
func (a *Accountant) Reset() {
	if a == nil {
		return
	}
	zero(&a.egress.gatewayWrites)
	zero(&a.egress.gatewayBytes)
	zero(&a.egress.historyAppends)
	zero(&a.egress.historyBytes)
	a.global.Reset()
	a.router.Reset()
	for i := range a.nodes {
		a.nodes[i].Reset()
	}
	for i := range a.cells {
		a.cells[i].reset()
	}
	for i := range a.stations {
		a.stations[i].reset()
	}
	a.queries.reset()
	a.objects.reset()
	a.q.precision.Set(0)
	a.q.recall.Set(0)
	zero(&a.q.tp)
	zero(&a.q.fp)
	zero(&a.q.fn)
	for i := range a.q.stale {
		zero(&a.q.stale[i])
	}
	zero(&a.q.staleSum)
	zero(&a.q.staleCount)
}
