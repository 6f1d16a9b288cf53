package core

import (
	"strings"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/trace"
)

// eventsOf groups events by trace ID.
func eventsByTrace(evs []trace.Event) map[trace.ID][]trace.Event {
	out := make(map[trace.ID][]trace.Event)
	for _, e := range evs {
		out[e.Trace] = append(out[e.Trace], e)
	}
	return out
}

func TestSerialServerTracing(t *testing.T) {
	h := newHarness(smallGrid(), Options{})
	rec := trace.NewRecorder(1024)
	h.server.SetTracer(rec)
	h.addObject(1, geo.Pt(50, 50), geo.Vec(0, 0), 100, 11)
	h.addObject(2, geo.Pt(51, 50), geo.Vec(0, 0), 100, 22)

	qid := h.install(1, 3, matchAll, 100)
	h.step(model.FromSeconds(30))

	evs := rec.Events(trace.Filter{})
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	// Every event carries a trace ID: API ingress mints roots, uplink
	// ingress mints per-message IDs.
	for _, e := range evs {
		if e.Trace == 0 {
			t.Fatalf("untraced event recorded: %v", e)
		}
		if e.Actor != "server" {
			t.Fatalf("serial server actor = %q: %v", e.Actor, e)
		}
	}
	// The InstallQuery root chain: ingress → unicast(FocalInfoRequest).
	roots := rec.Events(trace.Filter{Kind: trace.KindIngress})
	var installTID trace.ID
	for _, e := range roots {
		if e.Note == "InstallQuery" {
			installTID = e.Trace
		}
	}
	if installTID == 0 {
		t.Fatalf("no InstallQuery ingress event in %v", roots)
	}
	chain := rec.Events(trace.Filter{Trace: installTID})
	var sawReq bool
	for _, e := range chain {
		if e.Kind == trace.KindUnicast && e.Note == msg.KindFocalInfoRequest.String() {
			sawReq = true
		}
	}
	if !sawReq {
		t.Fatalf("InstallQuery chain lacks the FocalInfoRequest unicast: %v", chain)
	}
	// The FocalInfoResponse uplink chain covers the whole install
	// completion: FOT upsert, SQT insert, FocalNotify unicast, QueryInstall
	// broadcast — all one trace.
	byTrace := eventsByTrace(evs)
	var completed bool
	for _, chain := range byTrace {
		var upsert, insert, notify, bcast bool
		for _, e := range chain {
			switch {
			case e.Kind == trace.KindTable && e.Note == "FOT upsert":
				upsert = true
			case e.Kind == trace.KindTable && e.Note == "SQT insert":
				insert = true
			case e.Kind == trace.KindUnicast && e.Note == msg.KindFocalNotify.String():
				notify = true
			case e.Kind == trace.KindBroadcast && e.Note == msg.KindQueryInstall.String():
				bcast = true
			}
		}
		if upsert && insert && notify && bcast {
			completed = true
		}
	}
	if !completed {
		t.Fatalf("no single trace covers the install completion; chains: %v", byTrace)
	}
	// Result flips recorded and attributed to the query.
	if res := rec.Events(trace.Filter{Kind: trace.KindResult, QID: int64(qid)}); len(res) == 0 {
		t.Fatal("no result events for the installed query")
	}
	// Causal reconstruction around the query finds its install broadcast.
	causal := rec.Causal(0, int64(qid))
	var causalHasBroadcast bool
	for _, e := range causal {
		if e.Kind == trace.KindBroadcast {
			causalHasBroadcast = true
		}
	}
	if !causalHasBroadcast {
		t.Fatalf("Causal(0,%d) lacks the install broadcast: %v", qid, causal)
	}

	// RemoveQuery mints its own root and records the SQT delete.
	h.server.RemoveQuery(qid)
	h.flushDown()
	if del := rec.Events(trace.Filter{Kind: trace.KindTable, QID: int64(qid)}); len(del) == 0 {
		t.Fatal("no table events for removed query")
	}
	var removed bool
	for _, e := range rec.Events(trace.Filter{Kind: trace.KindIngress}) {
		if e.Note == "RemoveQuery" && e.QID == int64(qid) {
			removed = true
		}
	}
	if !removed {
		t.Fatal("RemoveQuery did not mint a root trace")
	}
}

func TestRouterTracingAndMigration(t *testing.T) {
	h := newClusterHarness(smallGrid(), Options{}, 4)
	rec := trace.NewRecorder(4096)
	h.server.SetTracer(rec)
	// A focal object moving fast enough to cross cells (and with 4 spans of
	// five rows each over a 20×20 grid, inevitably span boundaries).
	h.addObject(1, geo.Pt(10, 10), geo.Vec(20, 15), 100, 11)
	h.addObject(2, geo.Pt(12, 10), geo.Vec(18, 11), 100, 22)
	qid := h.install(1, 6, matchAll, 100)
	for i := 0; i < 40; i++ {
		h.step(model.FromSeconds(600))
		h.keepInside()
	}
	if err := h.server.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	evs := rec.Events(trace.Filter{})
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	actors := make(map[string]bool)
	for _, e := range evs {
		if e.Trace == 0 {
			t.Fatalf("untraced event: %v", e)
		}
		actors[e.Actor] = true
		if e.Actor != "router" && !strings.HasPrefix(e.Actor, "node") {
			t.Fatalf("unexpected actor %q: %v", e.Actor, e)
		}
	}
	if !actors["router"] {
		t.Fatal("no router-level events recorded")
	}
	// With 40 steps across 4 spans, the focal must have handed off at least
	// once; each handoff is recorded and its trace also contains the
	// node-side relocation broadcast.
	migs := rec.Events(trace.Filter{Kind: trace.KindMigrate})
	if len(migs) == 0 {
		t.Fatal("no migration events despite cell crossings")
	}
	mig := migs[len(migs)-1]
	if mig.Actor != "router" || mig.OID != 1 || !strings.Contains(mig.Note, "-> node") {
		t.Fatalf("malformed migration event: %v", mig)
	}
	chain := rec.Events(trace.Filter{Trace: mig.Trace})
	var ingress, bcast bool
	for _, e := range chain {
		if e.Kind == trace.KindIngress && e.Note == msg.KindCellChangeReport.String() {
			ingress = true
		}
		if e.Kind == trace.KindBroadcast && e.Note == msg.KindQueryInstall.String() {
			bcast = true
		}
	}
	if !ingress || !bcast {
		t.Fatalf("migration chain lacks ingress (%v) or relocation broadcast (%v): %v", ingress, bcast, chain)
	}
	// Causal timeline of the query spans the migration.
	var causalHasMigration bool
	for _, e := range rec.Causal(1, int64(qid)) {
		if e.Kind == trace.KindMigrate {
			causalHasMigration = true
		}
	}
	if !causalHasMigration {
		t.Fatal("Causal(1,qid) does not include the migration")
	}
}

// TestTracingPreservesBehavior re-runs the same scenario traced and
// untraced; results must be identical (tracing is observational only).
func TestTracingPreservesBehavior(t *testing.T) {
	run := func(rec *trace.Recorder) []model.ObjectID {
		h := newHarness(smallGrid(), Options{})
		if rec != nil {
			h.server.SetTracer(rec)
		}
		h.addObject(1, geo.Pt(50, 50), geo.Vec(6, 2), 100, 11)
		h.addObject(2, geo.Pt(52, 50), geo.Vec(-4, 0), 100, 22)
		h.addObject(3, geo.Pt(60, 60), geo.Vec(-8, -8), 100, 33)
		qid := h.install(1, 5, matchAll, 100)
		for i := 0; i < 10; i++ {
			h.step(model.FromSeconds(600))
		}
		return h.server.Result(qid)
	}
	plain := run(nil)
	traced := run(trace.NewRecorder(64)) // tiny ring: wraps constantly
	if !idsEqual(plain, traced) {
		t.Fatalf("tracing changed results: %v vs %v", plain, traced)
	}
}
