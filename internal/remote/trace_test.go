package remote

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/obs/trace"
)

// dump reads a "."-terminated multi-line reply after sending line.
func (s *adminSession) dump(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(s.conn, line); err != nil {
		t.Fatal(err)
	}
	var out []string
	for s.sc.Scan() {
		txt := s.sc.Text()
		if txt == "." {
			return strings.Join(out, "\n")
		}
		out = append(out, txt)
	}
	t.Fatalf("reply to %q never terminated", line)
	return ""
}

// TestRemoteTracing runs a traced TCP deployment end to end: uplink frames
// mint trace IDs, downlink frames carry them to the device, the device's
// responses continue the chain, and the admin TRACE command dumps it all.
func TestRemoteTracing(t *testing.T) {
	rec := trace.NewRecorder(4096)
	s, err := ListenAndServe(ServerConfig{
		Addr:  "127.0.0.1:0",
		UoD:   geo.NewRect(0, 0, 100, 100),
		Alpha: 5,
		Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	admin, err := ServeAdmin("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 2 }) {
		t.Fatal("objects never connected")
	}
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 2 }) {
		t.Fatalf("result never converged: %v", s.Result(qid))
	}

	// The install completion is one causal chain across the TCP round trip:
	// the FocalInfoResponse uplink's trace covers the SQT insert and the
	// QueryInstall broadcast — provable only if the device carried the
	// downlink's trace ID back up.
	deadline := time.Now().Add(2 * time.Second)
	var causal []trace.Event
	for {
		causal = rec.Causal(0, int64(qid))
		if chainHasInstall(causal) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !chainHasInstall(causal) {
		t.Fatalf("causal timeline of query %d lacks the install chain:\n%v", qid, causal)
	}

	a := dialAdmin(t, admin)
	if got := a.dump(t, "TRACE"); !strings.Contains(got, "ingress") {
		t.Errorf("TRACE dump lacks ingress events:\n%s", got)
	}
	if got := a.dump(t, fmt.Sprintf("TRACE qid %d causal 1", qid)); !strings.Contains(got, "broadcast") {
		t.Errorf("TRACE qid dump lacks the install broadcast:\n%s", got)
	}
	if got := a.dump(t, "TRACE oid 2"); !strings.Contains(got, "oid=2") {
		t.Errorf("TRACE oid dump lacks object 2 events:\n%s", got)
	}
	// The session stays usable.
	if got := a.cmd(t, "conns"); got != "conns 2" {
		t.Errorf("conns after TRACE = %q", got)
	}
}

func chainHasInstall(evs []trace.Event) bool {
	byTrace := make(map[trace.ID][3]bool) // ingress, table, broadcast
	for _, e := range evs {
		v := byTrace[e.Trace]
		switch e.Kind {
		case trace.KindIngress:
			v[0] = true
		case trace.KindTable:
			if e.Note == "SQT insert" {
				v[1] = true
			}
		case trace.KindBroadcast:
			v[2] = true
		}
		byTrace[e.Trace] = v
	}
	for _, v := range byTrace {
		if v[0] && v[1] && v[2] {
			return true
		}
	}
	return false
}

// TestAdminTraceDisabled: without a recorder the TRACE command degrades to a
// clear error instead of an empty dump.
func TestAdminTraceDisabled(t *testing.T) {
	s := testServer(t)
	admin, err := ServeAdmin("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	a := dialAdmin(t, admin)
	if got := a.cmd(t, "TRACE"); got != "err tracing disabled" {
		t.Errorf("TRACE without recorder = %q", got)
	}
}

// TestAdminLatency: the admin LAT command and the server's LatencyView
// expose the per-stage pipeline decomposition of a live traced deployment,
// and its stage totals add up to the end-to-end total.
func TestAdminLatency(t *testing.T) {
	rec := trace.NewRecorder(4096)
	s, err := ListenAndServe(ServerConfig{
		Addr:  "127.0.0.1:0",
		UoD:   geo.NewRect(0, 0, 100, 100),
		Alpha: 5,
		Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if s.Latency() == nil {
		t.Fatal("traced server has no latency view")
	}
	admin, err := ServeAdmin("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	dialObject(t, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(t, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	if !waitFor(t, 2*time.Second, func() bool { return s.NumConnected() == 2 }) {
		t.Fatal("objects never connected")
	}
	qid := s.InstallQuery(1, model.CircleRegion{R: 3}, acceptAll, 100000)
	if !waitFor(t, 3*time.Second, func() bool { return len(s.Result(qid)) == 2 }) {
		t.Fatalf("result never converged: %v", s.Result(qid))
	}

	a := dialAdmin(t, admin)
	deadline := time.Now().Add(2 * time.Second)
	var got string
	for {
		got = a.dump(t, "LAT")
		if strings.Contains(got, "table") && !strings.Contains(got, "traces 0") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("LAT never reported folded traces:\n%s", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{"traces", "dispatch", "table", "fanout", "e2e"} {
		if !strings.Contains(got, want) {
			t.Errorf("LAT output missing %q:\n%s", want, got)
		}
	}
	// The same view backs /debug/latency.
	snap := s.Latency().Snapshot()
	if snap.Traces == 0 {
		t.Fatal("latency view snapshot has no traces")
	}
	// The stages telescope: each trace's present stages sum exactly to its
	// end-to-end span, so the totals over every folded trace agree too.
	var stageSum float64
	for _, st := range snap.Stages {
		stageSum += st.Mean * float64(st.Count)
	}
	e2eSum := snap.E2E.Mean * float64(snap.E2E.Count)
	if e2eSum <= 0 {
		t.Fatalf("end-to-end total = %v over %d chains", e2eSum, snap.E2E.Count)
	}
	if rel := math.Abs(stageSum-e2eSum) / e2eSum; rel > 0.01 {
		t.Fatalf("Σ(stage mean × count) = %v diverges from e2e mean × count = %v (rel %v)",
			stageSum, e2eSum, rel)
	}
}

// TestAdminLatencyDisabled: LAT without tracing errs like TRACE.
func TestAdminLatencyDisabled(t *testing.T) {
	s := testServer(t)
	if s.Latency() != nil {
		t.Fatal("untraced server grew a latency view")
	}
	admin, err := ServeAdmin("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	a := dialAdmin(t, admin)
	if got := a.cmd(t, "LAT"); got != "err tracing disabled" {
		t.Errorf("LAT without recorder = %q", got)
	}
}
