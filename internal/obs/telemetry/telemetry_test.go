package telemetry

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
)

// ---------------------------------------------------------------------------
// Payload codec.

func TestBatchRoundTrip(t *testing.T) {
	b := &Batch{
		Metrics: []obs.SeriesPoint{
			{Name: "mobieyes_ops_total", Help: "ops", Counter: true, Value: 42},
			{Name: "mobieyes_table_rows", Help: "rows", Labels: []string{"table", "fot"}, Value: 7.5},
		},
		Events: []trace.Event{
			{Trace: 9, Nanos: 123456789, Kind: trace.KindTable, Actor: "node1", OID: 3, QID: 4, Note: "fot insert"},
			{Trace: 9, Nanos: 123456999, Kind: trace.KindBroadcast, Actor: "node1", Note: "region"},
		},
	}
	p := EncodeBatch(b)
	if p == nil {
		t.Fatal("EncodeBatch returned nil for a non-empty batch")
	}
	got, err := DecodeBatch(p)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got.Metrics) != 2 || len(got.Events) != 2 {
		t.Fatalf("round trip lost entries: %+v", got)
	}
	if got.Metrics[0].Name != "mobieyes_ops_total" || !got.Metrics[0].Counter || got.Metrics[0].Value != 42 {
		t.Errorf("metric 0 mismatch: %+v", got.Metrics[0])
	}
	if got.Metrics[1].Labels[0] != "table" || got.Metrics[1].Labels[1] != "fot" {
		t.Errorf("labels lost: %+v", got.Metrics[1])
	}
	ev := got.Events[0]
	if ev.Trace != 9 || ev.Nanos != 123456789 || ev.Kind != trace.KindTable ||
		ev.Actor != "node1" || ev.OID != 3 || ev.QID != 4 || ev.Note != "fot insert" {
		t.Errorf("event mismatch: %+v", ev)
	}
}

func TestEncodeBatchEmpty(t *testing.T) {
	if p := EncodeBatch(nil); p != nil {
		t.Errorf("nil batch encoded to %d bytes", len(p))
	}
	if p := EncodeBatch(&Batch{}); p != nil {
		t.Errorf("empty batch encoded to %d bytes", len(p))
	}
}

func TestDecodeBatchHostile(t *testing.T) {
	valid := EncodeBatch(&Batch{Metrics: []obs.SeriesPoint{{Name: "a_total", Counter: true, Value: 2}}})
	cases := map[string][]byte{
		"empty":       nil,
		"bad version": {99},
		"truncated":   valid[:len(valid)-3],
		"trailing":    append(append([]byte(nil), valid...), 0xAA),
		// version ok, metric count claims more entries than bytes remain
		"metric count": {batchVersion, 0xFF, 0xFF},
		// one metric with an odd label count
		"odd labels": {batchVersion, 1, 0, 0 /* kind */, 0, 0 /* name */, 0, 0 /* help */, 3},
		// a version 1 batch: its cost section is no longer understood
		"version 1": {1, 0, 0, 0, 0, 0, 0},
	}
	for name, p := range cases {
		if _, err := DecodeBatch(p); err == nil {
			t.Errorf("%s: DecodeBatch accepted hostile payload %v", name, p)
		}
	}
}

// ---------------------------------------------------------------------------
// Collector.

func TestCollectorNil(t *testing.T) {
	if c := NewCollector(nil, nil); c != nil {
		t.Fatal("NewCollector(nil, nil) should return nil")
	}
	var c *Collector
	c.NoteOp()
	c.MarkEdge()
	if seq, p := c.Collect(true); seq != 0 || p != nil {
		t.Error("nil collector shipped a batch")
	}
}

func TestCollectorCadence(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("worker_ops_total", "ops")
	c := NewCollector(reg, nil)

	ctr.Add(1)
	if seq, p := c.Collect(false); p != nil {
		t.Fatalf("not due yet but shipped seq %d", seq)
	}
	// Force (heartbeat) ships.
	seq, p := c.Collect(true)
	if p == nil || seq != 1 {
		t.Fatalf("forced collect: seq=%d payload=%v", seq, p != nil)
	}
	// Nothing changed: even forced, nothing to ship.
	if _, p := c.Collect(true); p != nil {
		t.Fatal("shipped an empty delta")
	}
	// An edge makes the next unforced collect due.
	ctr.Add(1)
	c.MarkEdge()
	if _, p := c.Collect(false); p == nil {
		t.Fatal("edge did not make collect due")
	}
	// shipEvery ops make it due.
	ctr.Add(1)
	for i := 0; i < shipEvery; i++ {
		c.NoteOp()
	}
	if _, p := c.Collect(false); p == nil {
		t.Fatal("op cadence did not make collect due")
	}
}

func TestCollectorDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(16)
	ctr := reg.Counter("a_total", "a")
	ctr.Add(5)
	rec.Event(rec.NextID(), trace.KindIngress, "node0", 1, 0, "first")

	c := NewCollector(reg, rec)
	_, p1 := c.Collect(true)
	b1, err := DecodeBatch(p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Metrics) != 1 || b1.Metrics[0].Value != 5 {
		t.Fatalf("first batch metrics: %+v", b1.Metrics)
	}
	if len(b1.Events) != 1 || b1.Events[0].Note != "first" {
		t.Fatalf("first batch events: %+v", b1.Events)
	}
	// Only the changed series and new events ship in the second batch.
	ctr.Add(2)
	reg.Counter("b_total", "b").Add(1)
	rec.Event(rec.NextID(), trace.KindTable, "node0", 2, 0, "second")
	_, p2 := c.Collect(true)
	b2, err := DecodeBatch(p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Metrics) != 2 { // a_total changed, b_total new
		t.Fatalf("second batch metrics: %+v", b2.Metrics)
	}
	for _, sp := range b2.Metrics {
		if sp.Name == "a_total" && sp.Value != 7 {
			t.Errorf("a_total should ship its absolute value 7, got %v", sp.Value)
		}
	}
	if len(b2.Events) != 1 || b2.Events[0].Note != "second" {
		t.Fatalf("watermark failed, events: %+v", b2.Events)
	}
}

// ---------------------------------------------------------------------------
// Plane: merge side.

func planeForTest(t *testing.T, clock *fakeClock) (*Plane, *obs.Registry, *trace.Recorder) {
	t.Helper()
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(64)
	p := New(Config{Metrics: reg, Trace: rec, Now: clock.Now})
	return p, reg, rec
}

type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func workerBatch(t *testing.T, mutate func(reg *obs.Registry, rec *trace.Recorder)) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(16)
	mutate(reg, rec)
	c := NewCollector(reg, rec)
	_, p := c.Collect(true)
	if p == nil {
		t.Fatal("worker batch empty")
	}
	return p
}

func TestPlaneReexport(t *testing.T) {
	p, reg, _ := planeForTest(t, newFakeClock())
	batch := workerBatch(t, func(wreg *obs.Registry, _ *trace.Recorder) {
		wreg.Counter("worker_ops_total", "ops").Add(10)
		wreg.Gauge("worker_rows", "rows", "node", "stale").Set(3)
	})
	if err := p.Apply(1, 1, batch); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("worker_ops_total", "ops", "node", "1").Value(); v != 10 {
		t.Errorf("re-exported counter = %d, want 10", v)
	}
	// The worker-side node="stale" label is replaced, not duplicated.
	if v := reg.Gauge("worker_rows", "rows", "node", "1").Value(); v != 3 {
		t.Errorf("re-exported gauge = %v, want 3", v)
	}

	// Second batch: counter advanced to 25 → delta 15 imported.
	b2 := EncodeBatch(&Batch{Metrics: []obs.SeriesPoint{
		{Name: "worker_ops_total", Help: "ops", Counter: true, Value: 25}}})
	if err := p.Apply(1, 2, b2); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("worker_ops_total", "ops", "node", "1").Value(); v != 25 {
		t.Errorf("after delta import = %d, want 25", v)
	}

	// Worker restart: absolute value drops to 4 → re-import from zero.
	b3 := EncodeBatch(&Batch{Metrics: []obs.SeriesPoint{
		{Name: "worker_ops_total", Help: "ops", Counter: true, Value: 4}}})
	if err := p.Apply(1, 1, b3); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("worker_ops_total", "ops", "node", "1").Value(); v != 29 {
		t.Errorf("after restart re-import = %d, want 29 (25+4)", v)
	}

	// A second node's series lands under its own label.
	if err := p.Apply(2, 1, batch); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("worker_ops_total", "ops", "node", "2").Value(); v != 10 {
		t.Errorf("node 2 counter = %d, want 10", v)
	}
}

func TestPlaneTraceStitch(t *testing.T) {
	p, _, rec := planeForTest(t, newFakeClock())
	// The router minted trace 7 and recorded its ingress; node 1 continues
	// the chain remotely and ships the continuation.
	rec.Event(7, trace.KindIngress, "router", 5, 0, "uplink in")
	batch := workerBatch(t, func(_ *obs.Registry, wrec *trace.Recorder) {
		wrec.Event(7, trace.KindTable, "node1", 5, 0, "fot update")
	})
	if err := p.Apply(1, 1, batch); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events(trace.Filter{Trace: 7})
	if len(evs) != 2 {
		t.Fatalf("stitched chain has %d events, want 2: %+v", len(evs), evs)
	}
	if evs[0].Actor != "router" || evs[1].Actor != "node1" {
		t.Errorf("stitched order wrong: %+v", evs)
	}
	if causal := rec.Causal(5, 0); len(causal) != 2 {
		t.Errorf("Causal(oid=5) sees %d events, want 2", len(causal))
	}
}

func TestPlaneApplyRejectsGarbage(t *testing.T) {
	p, _, _ := planeForTest(t, newFakeClock())
	if err := p.Apply(1, 1, []byte{99, 1, 2}); err == nil {
		t.Fatal("Apply accepted a garbage payload")
	}
}

// ---------------------------------------------------------------------------
// Watchdog.

func healthyView() View {
	return View{Epoch: 2, Cells: 100, Spans: []SpanView{
		{Node: 0, Lo: 0, Hi: 50, Live: true},
		{Node: 1, Lo: 50, Hi: 100, Live: true},
	}}
}

func statusFor(node uint32, v View) msg.NodeStatus {
	s := v.Spans[node]
	return msg.NodeStatus{Node: node, Epoch: v.Epoch, Lo: uint32(s.Lo), Hi: uint32(s.Hi)}
}

func TestWatchdogHealthy(t *testing.T) {
	clock := newFakeClock()
	p, _, _ := planeForTest(t, clock)
	v := healthyView()
	p.ExpectNode(0)
	p.ExpectNode(1)
	p.ApplyStatus(statusFor(0, v))
	p.ApplyStatus(statusFor(1, v))
	if alerts := p.Round(v); len(alerts) != 0 {
		t.Fatalf("healthy cluster raised alerts: %v", alerts)
	}
	if s := p.HealthStatus(); s != HealthOK {
		t.Errorf("health = %s, want ok", s)
	}
	if s, ok := p.Ready(); !ok || s != HealthOK {
		t.Errorf("Ready() = %s,%v", s, ok)
	}
}

func TestWatchdogLedgerIdentity(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	acct := cost.New()
	acct.Configure(0, 0, 2)
	p := New(Config{Metrics: reg, Costs: acct, Now: clock.Now})
	v := healthyView()

	// Balanced: every global uplink charge matched by a node (or router) one.
	acct.Traffic().ChargeUplink(msg.KindVelocityReport, 40)
	acct.NodeUplink(0, msg.KindVelocityReport, 40)
	acct.Traffic().ChargeUplink(msg.KindCellChangeReport, 60)
	acct.NodeUplink(-1, msg.KindCellChangeReport, 60) // router-handled
	if alerts := p.Round(v); len(alerts) != 0 {
		t.Fatalf("balanced ledgers raised alerts: %v", alerts)
	}

	// Skew: a node charge without the global one.
	acct.NodeUplink(1, msg.KindContainmentReport, 30)
	alerts := p.Round(v)
	if len(alerts) != 1 || alerts[0].Check != CheckLedgerIdentity {
		t.Fatalf("skewed ledger alerts = %v", alerts)
	}
	if alerts[0].Node != -1 || alerts[0].Severity != SeverityCritical {
		t.Errorf("identity alert shape: %+v", alerts[0])
	}
	if s, ok := p.Ready(); ok || s != HealthFailing {
		t.Errorf("Ready() = %s,%v, want failing,false", s, ok)
	}

	// Repair the skew: the alert resolves.
	acct.Traffic().ChargeUplink(msg.KindContainmentReport, 30)
	if alerts := p.Round(v); len(alerts) != 0 {
		t.Fatalf("repaired ledger still alerting: %v", alerts)
	}
}

func TestWatchdogSpanCoverage(t *testing.T) {
	p, _, _ := planeForTest(t, newFakeClock())
	v := View{Epoch: 1, Cells: 100, Spans: []SpanView{
		{Node: 0, Lo: 0, Hi: 40, Live: true},
		{Node: 1, Lo: 50, Hi: 100, Live: true}, // gap [40,50)
	}}
	alerts := p.Round(v)
	if len(alerts) != 1 || alerts[0].Check != CheckSpanCoverage {
		t.Fatalf("gap alerts = %v", alerts)
	}
	// A dead node holding cells is also a violation.
	v2 := View{Epoch: 1, Cells: 100, Spans: []SpanView{
		{Node: 0, Lo: 0, Hi: 100, Live: true},
		{Node: 1, Lo: 50, Hi: 100, Live: false},
	}}
	alerts = p.Round(v2)
	if len(alerts) != 1 || alerts[0].Check != CheckSpanCoverage {
		t.Fatalf("dead-span alerts = %v", alerts)
	}
}

func TestWatchdogEpochAndSpanRange(t *testing.T) {
	p, _, _ := planeForTest(t, newFakeClock())
	v := healthyView()

	// Node 0 reports a stale epoch after having seen a newer one: regression.
	p.ApplyStatus(msg.NodeStatus{Node: 0, Epoch: 2, Lo: 0, Hi: 50})
	p.ApplyStatus(msg.NodeStatus{Node: 0, Epoch: 1, Lo: 0, Hi: 50})
	alerts := p.Round(v)
	if len(alerts) != 1 || alerts[0].Check != CheckEpoch || alerts[0].Node != 0 {
		t.Fatalf("epoch regression alerts = %v", alerts)
	}

	// Node 0 caught up but disagrees on the span bounds: range mismatch.
	p.ApplyStatus(msg.NodeStatus{Node: 0, Epoch: 2, Lo: 0, Hi: 49})
	alerts = p.Round(v)
	if len(alerts) != 1 || alerts[0].Check != CheckSpanRange {
		t.Fatalf("span-range alerts = %v", alerts)
	}

	// Agreement clears it.
	p.ApplyStatus(statusFor(0, v))
	if alerts := p.Round(v); len(alerts) != 0 {
		t.Fatalf("agreed node still alerting: %v", alerts)
	}
}

func TestWatchdogLiveness(t *testing.T) {
	clock := newFakeClock()
	p, _, _ := planeForTest(t, clock)
	v := healthyView()
	p.ExpectNode(0)
	p.ExpectNode(1)
	p.ApplyStatus(statusFor(0, v))
	p.ApplyStatus(statusFor(1, v))
	if alerts := p.Round(v); len(alerts) != 0 {
		t.Fatalf("fresh nodes alerting: %v", alerts)
	}

	// Node 1 goes quiet past the deadline; the alert latches and counts
	// consecutive rounds.
	clock.advance(DefaultHeartbeatDeadline / 2)
	p.ApplyStatus(statusFor(0, v))
	clock.advance(DefaultHeartbeatDeadline/2 + time.Second)
	p.ApplyStatus(statusFor(0, v))
	alerts := p.Round(v)
	if len(alerts) != 1 || alerts[0].Check != CheckHeartbeat || alerts[0].Node != 1 {
		t.Fatalf("stale alerts = %v", alerts)
	}
	alerts = p.Round(v)
	if alerts[0].Rounds != 2 {
		t.Errorf("latched alert rounds = %d, want 2", alerts[0].Rounds)
	}
	if s := p.HealthStatus(); s != HealthFailing {
		t.Errorf("health = %s, want failing", s)
	}

	// A probe error upgrades the diagnosis to node-unreachable.
	p.NoteProbeError(1, errors.New("dial tcp: connection refused"))
	alerts = p.Round(v)
	if len(alerts) != 1 || alerts[0].Check != CheckUnreachable {
		t.Fatalf("unreachable alerts = %v", alerts)
	}

	// The node comes back: telemetry arrival clears the probe error and
	// refreshes lastSeen; everything resolves.
	p.ApplyStatus(statusFor(1, v))
	if alerts := p.Round(v); len(alerts) != 0 {
		t.Fatalf("recovered node still alerting: %v", alerts)
	}
	if s := p.HealthStatus(); s != HealthOK {
		t.Errorf("health after recovery = %s, want ok", s)
	}
}

func TestWatchdogRTTSLO(t *testing.T) {
	clock := newFakeClock()
	p, _, _ := planeForTest(t, clock)
	v := healthyView()
	p.ExpectNode(0)
	p.ApplyStatus(statusFor(0, v))
	p.ObserveRTT(0, DefaultRTTSLO+time.Millisecond)
	alerts := p.Round(v)
	if len(alerts) != 1 || alerts[0].Check != CheckUplinkSLO || alerts[0].Severity != SeverityWarn {
		t.Fatalf("SLO alerts = %v", alerts)
	}
	// A warning degrades readiness but keeps serving.
	if s, ok := p.Ready(); !ok || s != HealthDegraded {
		t.Errorf("Ready() = %s,%v, want degraded,true", s, ok)
	}
	p.ObserveRTT(0, time.Millisecond)
	if alerts := p.Round(v); len(alerts) != 0 {
		t.Fatalf("fast node still alerting: %v", alerts)
	}
}

// TestWatchdogRecoveryDegrades pins the recovery-aware health contract:
// while a dead node's crash recovery is in progress, its critical alert
// degrades health instead of failing it (readiness keeps serving), the
// alert auto-resolves on the round that observes the node leaving the live
// set, and NoteRecoveryDone counts the completed recovery.
func TestWatchdogRecoveryDegrades(t *testing.T) {
	clock := newFakeClock()
	p, reg, _ := planeForTest(t, clock)
	v := healthyView()
	p.ExpectNode(0)
	p.ExpectNode(1)
	p.ApplyStatus(statusFor(0, v))
	p.ApplyStatus(statusFor(1, v))
	if alerts := p.Round(v); len(alerts) != 0 {
		t.Fatalf("healthy cluster raised alerts: %v", alerts)
	}

	// Node 1 goes silent past the deadline: critical heartbeat alert, the
	// cluster is failing.
	clock.advance(DefaultHeartbeatDeadline + time.Second)
	p.ApplyStatus(statusFor(0, v))
	alerts := p.Round(v)
	if len(alerts) != 1 || alerts[0].Check != CheckHeartbeat || alerts[0].Node != 1 {
		t.Fatalf("stale alerts = %v", alerts)
	}
	if s, ok := p.Ready(); ok || s != HealthFailing {
		t.Fatalf("Ready() = %s,%v, want failing,false", s, ok)
	}

	// The router declares the node dead and starts replaying its journal:
	// the same alert now only degrades health, and /readyz keeps serving.
	p.NoteRecoveryStart(1)
	if s, ok := p.Ready(); !ok || s != HealthDegraded {
		t.Errorf("Ready() during recovery = %s,%v, want degraded,true", s, ok)
	}
	snap := p.Snapshot()
	if len(snap.Nodes) != 2 || !snap.Nodes[1].Recovering {
		t.Errorf("snapshot does not mark node 1 recovering: %+v", snap.Nodes)
	}
	var sb strings.Builder
	p.Snapshot().WriteText(&sb)
	if !strings.Contains(sb.String(), "node 1 recovering") {
		t.Errorf("health text missing recovering state: %q", sb.String())
	}

	// The post-fence round: node 1 has left the live set, its span folded
	// into node 0. The heartbeat alert resolves on its own — liveness only
	// applies to live spans.
	fenced := View{Epoch: 3, Cells: 100, Spans: []SpanView{
		{Node: 0, Lo: 0, Hi: 100, Live: true},
		{Node: 1, Lo: 0, Hi: 0, Live: false},
	}}
	p.ApplyStatus(statusFor(0, fenced))
	if alerts := p.Round(fenced); len(alerts) != 0 {
		t.Fatalf("fenced node still alerting: %v", alerts)
	}

	// Replay converged: the recovery completes and is counted.
	p.NoteRecoveryDone(1)
	if s := p.HealthStatus(); s != HealthOK {
		t.Errorf("health after recovery = %s, want ok", s)
	}
	if n := p.Recoveries(); n != 1 {
		t.Errorf("Recoveries() = %d, want 1", n)
	}
	if v := reg.Counter("mobieyes_cluster_recoveries_total", "").Value(); v != 1 {
		t.Errorf("recoveries_total = %d, want 1", v)
	}
	if snap := p.Snapshot(); snap.Recoveries != 1 || snap.Nodes[1].Recovering {
		t.Errorf("post-recovery snapshot = %+v", snap)
	}
}

func TestNilPlane(t *testing.T) {
	var p *Plane
	p.ExpectNode(0)
	if err := p.Apply(0, 1, []byte{1, 2}); err != nil {
		t.Error("nil plane Apply should be a no-op")
	}
	p.ApplyStatus(msg.NodeStatus{})
	p.ObserveRTT(0, time.Second)
	p.NoteProbeError(0, errors.New("x"))
	if a := p.Round(View{}); a != nil {
		t.Error("nil plane Round returned alerts")
	}
	if a := p.Alerts(); a != nil {
		t.Error("nil plane Alerts returned alerts")
	}
	if s := p.HealthStatus(); s != HealthOK {
		t.Error("nil plane health != ok")
	}
	if s, ok := p.Ready(); !ok || s != HealthOK {
		t.Error("nil plane not ready")
	}
	if s := p.Snapshot(); s.Health != HealthOK {
		t.Error("nil plane snapshot unhealthy")
	}
}

// ---------------------------------------------------------------------------
// Snapshot, text view, HTTP endpoint.

func TestSnapshotAndHTTP(t *testing.T) {
	clock := newFakeClock()
	p, _, _ := planeForTest(t, clock)
	v := healthyView()
	p.ExpectNode(0)
	p.ApplyStatus(statusFor(0, v))
	batch := workerBatch(t, func(wreg *obs.Registry, _ *trace.Recorder) {
		wreg.Counter("x_total", "x").Add(1)
	})
	if err := p.Apply(0, 1, batch); err != nil {
		t.Fatal(err)
	}
	p.Round(v)

	snap := p.Snapshot()
	if snap.Health != HealthOK || snap.Epoch != 2 || len(snap.Nodes) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if n := snap.Nodes[0]; !n.Expected || n.Batches != 1 {
		t.Errorf("node 0 snapshot = %+v", n)
	}

	var sb strings.Builder
	p.Snapshot().WriteText(&sb)
	out := sb.String()
	if !strings.HasPrefix(out, "health ok epoch 2") {
		t.Errorf("health text header: %q", out)
	}
	if !strings.Contains(out, "node 0 live cells [0,50)") {
		t.Errorf("health text missing node line: %q", out)
	}

	mux := http.NewServeMux()
	mux.Handle("/debug/cluster", p.View())
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/cluster?format=json", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/cluster status %d", rr.Code)
	}
	var got Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("JSON view: %v", err)
	}
	if got.Health != HealthOK || len(got.Nodes) != 2 {
		t.Errorf("JSON snapshot = %+v", got)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/cluster", nil))
	if !strings.HasPrefix(rr.Body.String(), "health ok") {
		t.Errorf("text view: %q", rr.Body.String())
	}

	// A nil plane serves 404, like the other optional debug endpoints.
	mux2 := http.NewServeMux()
	mux2.Handle("/debug/cluster", (*Plane)(nil).View())
	rr = httptest.NewRecorder()
	mux2.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/cluster", nil))
	if rr.Code != http.StatusNotFound {
		t.Errorf("nil plane endpoint status %d, want 404", rr.Code)
	}
}

func TestPlaneCounters(t *testing.T) {
	clock := newFakeClock()
	p, reg, _ := planeForTest(t, clock)
	batch := workerBatch(t, func(_ *obs.Registry, wrec *trace.Recorder) {
		wrec.Event(1, trace.KindNote, "node0", 0, 0, "a")
		wrec.Event(1, trace.KindNote, "node0", 0, 0, "b")
	})
	if err := p.Apply(0, 1, batch); err != nil {
		t.Fatal(err)
	}
	p.Round(healthyView())
	if v := reg.Counter("mobieyes_cluster_telemetry_batches_total", "").Value(); v != 1 {
		t.Errorf("batches_total = %d", v)
	}
	if v := reg.Counter("mobieyes_cluster_telemetry_events_total", "").Value(); v != 2 {
		t.Errorf("events_total = %d", v)
	}
	if v := reg.Counter("mobieyes_cluster_watchdog_rounds_total", "").Value(); v != 1 {
		t.Errorf("rounds_total = %d", v)
	}
}
