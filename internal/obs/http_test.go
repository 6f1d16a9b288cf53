package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mobieyes/internal/obs/trace"
)

// httpGet fetches path from ts and returns status, Content-Type, and body.
func httpGet(t *testing.T, ts *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestHandlerContentTypes pins status codes and content types of every
// non-pprof route, so scrapers and dashboards can rely on them.
func TestHandlerContentTypes(t *testing.T) {
	r := NewRegistry()
	r.Counter("mobieyes_ct_total", "").Inc()
	ts := httptest.NewServer(NewMux(r))
	defer ts.Close()

	for _, tc := range []struct {
		path, wantCT string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/debug/vars", "application/json; charset=utf-8"},
		{"/healthz", "text/plain; charset=utf-8"},
	} {
		code, ct, body := httpGet(t, ts, tc.path)
		if code != http.StatusOK {
			t.Errorf("%s: code %d", tc.path, code)
		}
		if !strings.HasPrefix(ct, tc.wantCT) {
			t.Errorf("%s: Content-Type %q, want prefix %q", tc.path, ct, tc.wantCT)
		}
		if body == "" {
			t.Errorf("%s: empty body", tc.path)
		}
	}
}

// TestScrapeHTTPDuringRegistration hammers the HTTP endpoints while another
// goroutine registers new series — the full handler stack must stay
// race-free, not just WritePrometheus.
func TestScrapeHTTPDuringRegistration(t *testing.T) {
	r := NewRegistry()
	ts := httptest.NewServer(NewMux(r))
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			sh := strconv.Itoa(i % 64)
			r.Counter("churn_http_total", "", "shard", sh).Inc()
			r.GaugeFunc("churn_http_fn", "", func() float64 { return float64(i) }, "shard", sh)
		}
	}()
	for i := 0; i < 50; i++ {
		for _, path := range []string{"/metrics", "/debug/vars", "/healthz"} {
			code, _, _ := httpGet(t, ts, path)
			if code != http.StatusOK {
				t.Fatalf("scrape %d %s: code %d", i, path, code)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestRuntimeGauges: RegisterRuntime exposes live runtime stats, and calling
// it twice must not panic (re-registration replaces the functions).
func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	RegisterRuntime(r)
	snap := r.Snapshot()
	for _, name := range []string{
		"mobieyes_go_goroutines",
		"mobieyes_go_heap_bytes",
		"mobieyes_go_heap_objects",
		"mobieyes_go_next_gc_bytes",
		"mobieyes_go_gc_total",
		"mobieyes_go_gc_pause_total_seconds",
		"mobieyes_go_gc_last_pause_seconds",
	} {
		v, ok := snap[name].(float64)
		if !ok {
			t.Fatalf("%s missing from snapshot", name)
		}
		if v < 0 {
			t.Errorf("%s = %v, want >= 0", name, v)
		}
	}
	if snap["mobieyes_go_goroutines"].(float64) < 1 {
		t.Errorf("goroutines = %v, want >= 1", snap["mobieyes_go_goroutines"])
	}
	if snap["mobieyes_go_heap_bytes"].(float64) <= 0 {
		t.Errorf("heap_bytes = %v, want > 0", snap["mobieyes_go_heap_bytes"])
	}
}

// eventsFixture builds a recorder holding two causal chains about distinct
// objects/queries plus an untraced note.
func eventsFixture() *trace.Recorder {
	rec := trace.NewRecorder(256)
	t1, t2 := rec.NextID(), rec.NextID()
	rec.Event(t1, trace.KindIngress, "server", 1, 0, "PositionReport")
	rec.Event(t1, trace.KindTable, "server", 1, 0, "FOT upsert")
	rec.Event(t2, trace.KindIngress, "server", 2, 7, "InstallQuery")
	rec.Event(t2, trace.KindBroadcast, "server", 2, 7, "QueryInstall")
	rec.Event(0, trace.KindNote, "server", 0, 0, "untraced note")
	return rec
}

// TestDebugEventsEndpoint covers /debug/events: default text dump, the
// trace/oid/qid filters, causal closure, JSON output, and bad parameters.
func TestDebugEventsEndpoint(t *testing.T) {
	rec := eventsFixture()
	mux := http.NewServeMux()
	mux.Handle("/debug/events", EventsView(rec))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	code, ct, body := httpGet(t, ts, "/debug/events")
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/debug/events: code %d ct %q", code, ct)
	}
	for _, want := range []string{"ingress", "FOT upsert", "QueryInstall", "untraced note"} {
		if !strings.Contains(body, want) {
			t.Errorf("text dump missing %q in:\n%s", want, body)
		}
	}

	if _, _, body := httpGet(t, ts, "/debug/events?oid=1"); strings.Contains(body, "InstallQuery") ||
		!strings.Contains(body, "FOT upsert") {
		t.Errorf("oid filter leaked other events:\n%s", body)
	}
	if _, _, body := httpGet(t, ts, "/debug/events?qid=7"); !strings.Contains(body, "QueryInstall") ||
		strings.Contains(body, "FOT upsert") {
		t.Errorf("qid filter wrong:\n%s", body)
	}
	if _, _, body := httpGet(t, ts, "/debug/events?trace=1"); !strings.Contains(body, "PositionReport") ||
		strings.Contains(body, "untraced note") {
		t.Errorf("trace filter wrong:\n%s", body)
	}
	// causal=1 expands oid=2 to its whole chains, including the qid=7 rows.
	if _, _, body := httpGet(t, ts, "/debug/events?oid=2&causal=1"); !strings.Contains(body, "QueryInstall") ||
		strings.Contains(body, "FOT upsert") {
		t.Errorf("causal closure wrong:\n%s", body)
	}

	code, ct, body = httpGet(t, ts, "/debug/events?format=json&qid=7")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("json format: code %d ct %q", code, ct)
	}
	var evs []trace.Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("json body: %v\n%s", err, body)
	}
	if len(evs) != 2 || evs[0].QID != 7 || evs[1].Note != "QueryInstall" {
		t.Errorf("json events = %+v", evs)
	}

	if code, _, _ := httpGet(t, ts, "/debug/events?oid=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad oid: code %d, want 400", code)
	}
	if code, _, _ := httpGet(t, ts, "/debug/events?n=-3"); code != http.StatusBadRequest {
		t.Errorf("negative n: code %d, want 400", code)
	}
}

// TestDebugEventsDisabled: a nil recorder answers 404, distinguishing
// "tracing off" from "no events recorded yet".
func TestDebugEventsDisabled(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle("/debug/events", EventsView(nil))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if code, _, _ := httpGet(t, ts, "/debug/events"); code != http.StatusNotFound {
		t.Errorf("/debug/events with nil recorder: code %d, want 404", code)
	}
}

// TestListenAndServeTraced: the standalone endpoint mounts the events view
// and still serves runtime gauges on /metrics.
func TestListenAndServeTraced(t *testing.T) {
	r := NewRegistry()
	rec := eventsFixture()
	h, err := ListenAndServe("127.0.0.1:0", r, EventsView(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + h.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if body := get("/debug/events?trace=2"); !strings.Contains(body, "QueryInstall") {
		t.Errorf("/debug/events body:\n%s", body)
	}
	if body := get("/metrics"); !strings.Contains(body, "mobieyes_go_goroutines") {
		t.Errorf("/metrics missing runtime gauges:\n%s", body)
	}
}
