package remote

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/obs"
)

// TestRemoteMetrics drives real traffic through a server and checks that the
// transport and backend metrics land in the registry supplied via the config.
func TestRemoteMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := ListenAndServe(ServerConfig{
		Addr:    "127.0.0.1:0",
		UoD:     geo.NewRect(0, 0, 100, 100),
		Alpha:   5,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if s.Metrics() != reg {
		t.Fatal("Metrics() did not return the configured registry")
	}

	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 2 }) {
		t.Fatal("objects never connected")
	}
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 2 }) {
		t.Fatalf("result never converged: %v", s.Result(qid))
	}

	snap := reg.Snapshot()
	if got := snap["mobieyes_remote_connections"]; got != 2.0 {
		t.Errorf("connections gauge = %v, want 2", got)
	}
	for _, name := range []string{
		"mobieyes_remote_connects_total",
		"mobieyes_remote_frames_in_total",
		"mobieyes_remote_frames_out_total",
		"mobieyes_remote_bytes_in_total",
		"mobieyes_remote_bytes_out_total",
	} {
		v, ok := snap[name].(int64)
		if !ok || v <= 0 {
			t.Errorf("%s = %v, want > 0", name, snap[name])
		}
	}
	if v, _ := snap["mobieyes_remote_decode_errors_total"].(int64); v != 0 {
		t.Errorf("decode errors = %v, want 0", v)
	}

	// Backend instrumentation rides the same registry: per-shard uplink
	// counters and the transport dispatch histogram must have fired.
	var text strings.Builder
	reg.WritePrometheus(&text)
	expo := text.String()
	for _, want := range []string{
		`mobieyes_server_uplinks_total{node="router"}`,
		`mobieyes_remote_uplink_seconds_count{kind="VelocityReport"}`,
		"mobieyes_remote_broadcast_fanout_count",
		"mobieyes_server_fot_size",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %s", want)
		}
	}

	// Each uplink is timed once, where the transport dispatches it: the
	// per-kind counts add up to the uplinks the server metered and
	// dispatched, and core keeps no histogram of its own.
	var timed, dispatched int64
	if !waitFor(t, 2*time.Second, func() bool {
		timed = 0
		dispatched, _, _, _, _ = s.Stats()
		for key, v := range reg.Snapshot() {
			if strings.HasPrefix(key, "mobieyes_remote_uplink_seconds{") {
				timed += v.(map[string]any)["count"].(int64)
			}
		}
		return timed == dispatched
	}) {
		t.Errorf("uplinks timed = %d, dispatched = %d", timed, dispatched)
	}
	for key := range reg.Snapshot() {
		if strings.HasPrefix(key, "mobieyes_server_uplink_seconds") {
			t.Errorf("core still times uplinks: %s", key)
		}
	}
}

// TestRemoteMetricsDefaultRegistry: with no registry configured the server
// still keeps one of its own.
func TestRemoteMetricsDefaultRegistry(t *testing.T) {
	s := testServer(t)
	if s.Metrics() == nil {
		t.Fatal("Metrics() = nil without a configured registry")
	}
	dialObject(t, s, 1, geo.Pt(10, 10), geo.Vec(0, 0))
	if !waitFor(t, 2*time.Second, func() bool {
		v, _ := s.Metrics().Snapshot()["mobieyes_remote_connects_total"].(int64)
		return v >= 1
	}) {
		t.Fatal("connects counter never incremented")
	}
}

// TestAdminSTATS: the STATS command streams the full Prometheus exposition,
// terminated by a "." line.
func TestAdminSTATS(t *testing.T) {
	s := testServer(t)
	admin, err := ServeAdmin("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 1 }) {
		t.Fatal("object never connected")
	}

	a := dialAdmin(t, admin)
	if _, err := fmt.Fprintln(a.conn, "STATS"); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for a.sc.Scan() {
		if a.sc.Text() == "." {
			break
		}
		lines = append(lines, a.sc.Text())
	}
	dump := strings.Join(lines, "\n")
	for _, want := range []string{
		"# TYPE mobieyes_remote_connections gauge",
		"mobieyes_remote_connections 1",
		"# TYPE mobieyes_remote_frames_in_total counter",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("STATS dump missing %q", want)
		}
	}
	// The session stays usable after a STATS dump.
	if got := a.cmd(t, "conns"); got != "conns 1" {
		t.Errorf("conns after STATS = %q", got)
	}
}
