package cost

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mobieyes/internal/msg"
)

func newTestMux(a *Accountant) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/costs", a.View())
	return mux
}

func get(t *testing.T, mux *http.ServeMux, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	return rr
}

// TestCostsDisabled pins the 404/no-op path when accounting is off.
func TestCostsDisabled(t *testing.T) {
	mux := newTestMux(nil)
	rr := get(t, mux, "/debug/costs")
	if rr.Code != http.StatusNotFound {
		t.Errorf("disabled /debug/costs status = %d, want 404", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "disabled") {
		t.Errorf("disabled body = %q", rr.Body.String())
	}
}

func populated() *Accountant {
	a := New()
	a.Configure(16, 4, 2)
	a.SetMode("EQP")
	a.Traffic().ChargeUplink(msg.KindVelocityReport, 30)
	a.Traffic().ChargeDownlink(msg.KindVelocityChange, 50, 2)
	a.CellUp(3, 30)
	a.StationDown(1, 50)
	a.QueryUp(7, 30)
	a.ObjectUp(42, 30)
	return a
}

func TestCostsFullSnapshot(t *testing.T) {
	mux := newTestMux(populated())

	rr := get(t, mux, "/debug/costs")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("text content type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "VelocityReport") {
		t.Errorf("text body missing kind row:\n%s", rr.Body.String())
	}

	rr = get(t, mux, "/debug/costs?format=json")
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("json content type = %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &s); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if s.Mode != "EQP" || s.Global.UpMsgs != 1 || s.Global.DownMsgs != 2 {
		t.Errorf("snapshot = %+v", s)
	}
	if len(s.Queries) != 1 || s.Queries[0].ID != 7 {
		t.Errorf("queries = %+v", s.Queries)
	}
}

func TestCostsScopeFilters(t *testing.T) {
	mux := newTestMux(populated())

	cases := []struct {
		url, key string
		upMsgs   int64
	}{
		{"/debug/costs?cell=3&format=json", "cell", 1},
		{"/debug/costs?station=1&format=json", "station", 0},
		{"/debug/costs?qid=7&format=json", "qid", 1},
		{"/debug/costs?oid=42&format=json", "oid", 1},
	}
	for _, c := range cases {
		rr := get(t, mux, c.url)
		if rr.Code != http.StatusOK {
			t.Errorf("%s status = %d", c.url, rr.Code)
			continue
		}
		var m map[string]TallySnap
		if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
			t.Errorf("%s: bad json: %v", c.url, err)
			continue
		}
		ts, ok := m[c.key]
		if !ok || ts.UpMsgs != c.upMsgs {
			t.Errorf("%s → %+v, want key %q upMsgs %d", c.url, m, c.key, c.upMsgs)
		}
	}

	// Text variant of a scoped tally.
	rr := get(t, mux, "/debug/costs?station=1")
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("scoped text content type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "station 1") {
		t.Errorf("scoped text body = %q", rr.Body.String())
	}
}

func TestCostsScopeErrors(t *testing.T) {
	mux := newTestMux(populated())
	for _, url := range []string{
		"/debug/costs?cell=99",   // out of configured range
		"/debug/costs?station=9", // out of configured range
		"/debug/costs?qid=12345", // no traffic recorded
		"/debug/costs?oid=12345", // no traffic recorded
	} {
		if rr := get(t, mux, url); rr.Code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", url, rr.Code)
		}
	}
	for _, url := range []string{
		"/debug/costs?cell=abc",
		"/debug/costs?qid=-4",
	} {
		if rr := get(t, mux, url); rr.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", url, rr.Code)
		}
	}
}
