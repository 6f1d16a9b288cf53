package stream_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobieyes/internal/obs"
	"mobieyes/internal/obs/stream"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	name string
	id   string
	data string
}

// readSSE parses frames off r until fn returns false or the stream ends.
func readSSE(r *bufio.Reader, fn func(sseEvent) bool) error {
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.name != "" || ev.data != "" {
				if !fn(ev) {
					return nil
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.name = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			ev.id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[len("data: "):]
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		}
	}
}

func newSSEServer(t *testing.T, g *stream.Gateway) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/debug/stream", g)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewaySnapshotThenDelta drives the full SSE path: a client
// connecting mid-stream sees each query's snapshot (with matching SSE id),
// the live marker, then contiguous result deltas.
func TestGatewaySnapshotThenDelta(t *testing.T) {
	tap := stream.NewTap()
	g := stream.NewGateway(tap)
	ts := newSSEServer(t, g)

	tap.Publish(1, 100, true)
	tap.Publish(1, 101, true)
	tap.Publish(2, 200, true)
	tap.Publish(1, 100, false)

	resp, err := http.Get(ts.URL + "/debug/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Publish more once the handler has subscribed (headers are written
	// before the subscription cut, so poll the tap).
	waitFor(t, 2*time.Second, func() bool { return tap.Subscribers() == 1 })
	tap.Publish(1, 102, true)
	tap.Publish(2, 200, false)

	type state struct {
		seq     map[int64]uint64
		members map[int64]map[int64]bool
	}
	st := state{seq: map[int64]uint64{}, members: map[int64]map[int64]bool{}}
	var phase string
	var results int
	err = readSSE(bufio.NewReader(resp.Body), func(ev sseEvent) bool {
		switch ev.name {
		case "snapshot":
			if phase != "" && phase != "snapshot" {
				t.Fatalf("snapshot after %q", phase)
			}
			phase = "snapshot"
			var e stream.SnapshotEntry
			if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
				t.Fatalf("snapshot data %q: %v", ev.data, err)
			}
			if want := fmt.Sprintf("%d:%d", e.QID, e.Seq); ev.id != want {
				t.Fatalf("snapshot id = %q, want %q", ev.id, want)
			}
			st.seq[e.QID] = e.Seq
			st.members[e.QID] = map[int64]bool{}
			for _, oid := range e.Members {
				st.members[e.QID][oid] = true
			}
		case "live":
			if phase != "snapshot" {
				t.Fatalf("live after %q", phase)
			}
			phase = "live"
		case "result":
			if phase != "live" {
				t.Fatalf("result during %q", phase)
			}
			var e stream.Event
			if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
				t.Fatalf("result data %q: %v", ev.data, err)
			}
			if st.seq[e.QID]+1 != e.Seq {
				t.Fatalf("gap on qid %d: %d -> %d", e.QID, st.seq[e.QID], e.Seq)
			}
			st.seq[e.QID] = e.Seq
			if e.Enter {
				st.members[e.QID][e.OID] = true
			} else {
				delete(st.members[e.QID], e.OID)
			}
			results++
		}
		return results < 2
	})
	if err != nil {
		t.Fatalf("readSSE: %v", err)
	}
	if !st.members[1][101] || !st.members[1][102] || st.members[1][100] {
		t.Fatalf("q1 view = %v", st.members[1])
	}
	if len(st.members[2]) != 0 {
		t.Fatalf("q2 view = %v", st.members[2])
	}
}

// TestGatewayPerQueryFilter pins ?qid= subscriptions: only that query's
// events arrive, and an unknown qid snapshots empty at seq 0.
func TestGatewayPerQueryFilter(t *testing.T) {
	tap := stream.NewTap()
	g := stream.NewGateway(tap)
	ts := newSSEServer(t, g)
	tap.Publish(1, 100, true)
	tap.Publish(2, 200, true)

	resp, err := http.Get(ts.URL + "/debug/stream?qid=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, 2*time.Second, func() bool { return tap.Subscribers() == 1 })
	tap.Publish(1, 101, true) // must not reach the qid=2 client
	tap.Publish(2, 201, true)
	var snaps, results int
	readSSE(bufio.NewReader(resp.Body), func(ev sseEvent) bool {
		switch ev.name {
		case "snapshot":
			snaps++
			var e stream.SnapshotEntry
			json.Unmarshal([]byte(ev.data), &e)
			if e.QID != 2 {
				t.Fatalf("snapshot for qid %d", e.QID)
			}
		case "result":
			var e stream.Event
			json.Unmarshal([]byte(ev.data), &e)
			if e.QID != 2 {
				t.Fatalf("leaked event for qid %d", e.QID)
			}
			results++
		}
		return results < 1
	})
	if snaps != 1 {
		t.Fatalf("snapshots = %d, want 1", snaps)
	}

	if resp, err := http.Get(ts.URL + "/debug/stream?qid=bogus"); err == nil {
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad qid status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestGatewayStalledReaderEvicted proves end-to-end back-pressure: an SSE
// client that stops reading fills its subscriber buffer, is evicted, and
// the publisher (the engine side) never blocks; the client reconnects and
// re-snapshots.
func TestGatewayStalledReaderEvicted(t *testing.T) {
	tap := stream.NewTap()
	g := stream.NewGateway(tap)
	g.WriteTimeout = 200 * time.Millisecond
	ts := newSSEServer(t, g)

	resp, err := http.Get(ts.URL + "/debug/stream?qid=1&buf=2")
	if err != nil {
		t.Fatal(err)
	}
	// Read through the live marker so the subscription is registered,
	// then stall: never read again.
	br := bufio.NewReader(resp.Body)
	readSSE(br, func(ev sseEvent) bool { return ev.name != "live" })

	// Publish from the "engine": each call must return promptly even
	// though the client is stalled. Keep publishing until the tap reports
	// the eviction (the gateway goroutine needs to block on the dead
	// socket first, so a fixed small count would race).
	deadline := time.Now().Add(5 * time.Second)
	var oid int64
	for {
		// Burst so the buffer overflows while the gateway goroutine is
		// between drains or blocked in a write.
		for i := 0; i < 50; i++ {
			start := time.Now()
			tap.Publish(1, oid, true)
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Fatalf("Publish blocked %v with stalled subscriber", d)
			}
			oid++
		}
		_, _, _, evictions := tap.Stats()
		if evictions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled subscriber never evicted")
		}
	}
	resp.Body.Close()

	// The tap side is already detached; the handler exits once it notices
	// (write failure or eviction drain).
	waitFor(t, 2*time.Second, func() bool { return tap.Subscribers() == 0 })

	// Reconnect: fresh snapshot reflecting everything published.
	resp2, err := http.Get(ts.URL + "/debug/stream?qid=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap stream.SnapshotEntry
	readSSE(bufio.NewReader(resp2.Body), func(ev sseEvent) bool {
		if ev.name == "snapshot" {
			json.Unmarshal([]byte(ev.data), &snap)
			return false
		}
		return true
	})
	if snap.Seq != uint64(oid) || len(snap.Members) != int(oid) {
		t.Fatalf("re-snapshot seq=%d members=%d, want %d", snap.Seq, len(snap.Members), oid)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGatewayCostBoundary pins the encode-boundary charging rule: every
// byte the gateway writes — snapshots, markers, deltas, heartbeats — is
// charged to the cost hook and counted by the egress counter, exactly.
func TestGatewayCostBoundary(t *testing.T) {
	tap := stream.NewTap()
	g := stream.NewGateway(tap)
	g.Heartbeat = 10 * time.Millisecond
	var hooked int64
	g.SetCostHook(func(b int) { hooked += int64(b) })
	reg := obs.NewRegistry()
	g.Instrument(reg)

	tap.Publish(1, 100, true)
	tap.Publish(1, 101, true)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/debug/stream", nil).WithContext(ctx)
	rw := httptest.NewRecorder()
	mux := http.NewServeMux()
	mux.Handle("/debug/stream", g)
	done := make(chan struct{})
	go func() {
		mux.ServeHTTP(rw, req)
		close(done)
	}()
	// Let the handler emit the snapshot and some heartbeats, then hang up.
	time.Sleep(50 * time.Millisecond)
	cancel()
	<-done

	if rw.Body.Len() == 0 {
		t.Fatal("no SSE output")
	}
	if hooked != int64(rw.Body.Len()) {
		t.Fatalf("cost hook charged %d bytes, gateway wrote %d", hooked, rw.Body.Len())
	}
}

// TestGatewayDisabled pins the nil-gateway 404.
func TestGatewayDisabled(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle("/debug/stream", (*stream.Gateway)(nil))
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/stream", nil))
	if rw.Code != http.StatusNotFound {
		t.Fatalf("nil gateway status = %d", rw.Code)
	}
}
