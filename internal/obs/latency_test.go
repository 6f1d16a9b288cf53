package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mobieyes/internal/obs/trace"
)

// recordChain writes one ingress→table→broadcast→deliver chain into rec.
func recordChain(rec *trace.Recorder) trace.ID {
	tid := rec.NextID()
	rec.Event(tid, trace.KindIngress, "test", 1, 0, "")
	rec.Event(tid, trace.KindTable, "test", 1, 0, "")
	rec.Event(tid, trace.KindBroadcast, "test", 1, 0, "")
	rec.Event(tid, trace.KindDeliver, "test", 1, 0, "")
	return tid
}

// TestLatencyViewWatermark: each trace folds in exactly once, no matter how
// often Collect runs — repeated /debug/latency scrapes must not
// double-count.
func TestLatencyViewWatermark(t *testing.T) {
	rec := trace.NewRecorder(1024)
	lv := NewLatencyView(rec)
	recordChain(rec)
	recordChain(rec)
	lv.Collect()
	lv.Collect()
	lv.Collect()
	snap := lv.Snapshot() // collects once more
	if snap.Traces != 2 {
		t.Fatalf("traces = %d after repeated collects, want 2", snap.Traces)
	}
	if snap.E2E.Count != 2 {
		t.Fatalf("e2e count = %d, want 2", snap.E2E.Count)
	}
	recordChain(rec)
	if snap = lv.Snapshot(); snap.Traces != 3 {
		t.Fatalf("traces = %d after a new chain, want 3", snap.Traces)
	}
}

// TestLatencyViewPartialAndNil: chains missing stages count as partial;
// nil receivers and nil recorders are inert.
func TestLatencyViewPartialAndNil(t *testing.T) {
	rec := trace.NewRecorder(1024)
	lv := NewLatencyView(rec)
	tid := rec.NextID()
	rec.Event(tid, trace.KindIngress, "test", 1, 0, "")
	rec.Event(tid, trace.KindTable, "test", 1, 0, "")
	snap := lv.Snapshot()
	if snap.Traces != 1 || snap.Partial != 1 {
		t.Fatalf("traces=%d partial=%d, want 1/1", snap.Traces, snap.Partial)
	}

	var nilLV *LatencyView
	nilLV.Collect()
	if s := nilLV.Snapshot(); s.Traces != 0 {
		t.Fatal("nil view reported traces")
	}
	if err := NewLatencyView(nil).Snapshot().WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyViewInstrument: the view's histograms surface in a registry
// snapshot under the stage-labeled series after folding.
func TestLatencyViewInstrument(t *testing.T) {
	rec := trace.NewRecorder(1024)
	lv := NewLatencyView(rec)
	reg := NewRegistry()
	lv.Instrument(reg)
	recordChain(rec)
	lv.Collect()
	snap := reg.Snapshot()
	e2e, ok := snap["mobieyes_latency_e2e_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("e2e histogram missing from registry: %v", snap)
	}
	if e2e["count"].(int64) != 1 {
		t.Fatalf("e2e count = %v, want 1", e2e["count"])
	}
	if _, ok := snap[`mobieyes_latency_stage_seconds{stage="table"}`]; !ok {
		t.Fatalf("stage=table series missing from registry")
	}
}

// TestAttachLatencyHTTP: /debug/latency serves the text table and the JSON
// snapshot, and answers 404 when tracing is disabled.
func TestAttachLatencyHTTP(t *testing.T) {
	rec := trace.NewRecorder(1024)
	lv := NewLatencyView(rec)
	recordChain(rec)
	mux := http.NewServeMux()
	mux.Handle("/debug/latency", lv.View())

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/latency", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("text status = %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{"traces 1", "dispatch", "table", "fanout", "deliver", "e2e"} {
		if !strings.Contains(body, want) {
			t.Errorf("text body missing %q:\n%s", want, body)
		}
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/latency?format=json", nil))
	var snap LatencySnap
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if snap.Traces != 1 || len(snap.Stages) != int(trace.NumStages) {
		t.Fatalf("JSON snapshot = %+v", snap)
	}

	mux = http.NewServeMux()
	mux.Handle("/debug/latency", (*LatencyView)(nil).View())
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/latency", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("disabled status = %d, want 404", rr.Code)
	}
}
