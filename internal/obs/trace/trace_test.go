package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Event(1, KindIngress, "server", 1, 2, "x") // must not panic
	if got := r.NextID(); got != 0 {
		t.Fatalf("nil NextID = %d, want 0", got)
	}
	if got := r.Events(Filter{}); got != nil {
		t.Fatalf("nil Events = %v, want nil", got)
	}
	if got := r.Causal(1, 1); got != nil {
		t.Fatalf("nil Causal = %v, want nil", got)
	}
	if r.Cap() != 0 || r.Recorded() != 0 {
		t.Fatalf("nil Cap/Recorded = %d/%d, want 0/0", r.Cap(), r.Recorded())
	}
}

func TestNewRecorderRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultSize}, {-5, DefaultSize}, {1, 1}, {2, 2}, {3, 4}, {100, 128}, {4096, 4096},
	} {
		if got := NewRecorder(tc.in).Cap(); got != tc.want {
			t.Errorf("NewRecorder(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestNextIDMonotonic(t *testing.T) {
	r := NewRecorder(64)
	a, b := r.NextID(), r.NextID()
	if a == 0 || b != a+1 {
		t.Fatalf("NextID sequence %d, %d", a, b)
	}
}

func TestEventsOrderAndFilter(t *testing.T) {
	r := NewRecorder(64)
	t1, t2 := r.NextID(), r.NextID()
	r.Event(t1, KindIngress, "server", 7, 0, "VelocityReport")
	r.Event(t1, KindTable, "server", 7, 0, "FOT refresh")
	r.Event(t1, KindBroadcast, "server", 7, 3, "VelocityChange")
	r.Event(t2, KindIngress, "server", 9, 0, "CellChangeReport")
	r.Event(0, KindNote, "harness", 0, 0, "untraced")

	all := r.Events(Filter{})
	if len(all) != 5 {
		t.Fatalf("got %d events, want 5", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("events out of order: %v", all)
		}
	}
	if got := r.Events(Filter{Trace: t1}); len(got) != 3 {
		t.Fatalf("trace filter: got %d, want 3", len(got))
	}
	if got := r.Events(Filter{OID: 9}); len(got) != 1 || got[0].Trace != t2 {
		t.Fatalf("oid filter: got %v", got)
	}
	if got := r.Events(Filter{Kind: KindBroadcast}); len(got) != 1 || got[0].QID != 3 {
		t.Fatalf("kind filter: got %v", got)
	}
	if got := r.Events(Filter{Actor: "harness"}); len(got) != 1 {
		t.Fatalf("actor filter: got %v", got)
	}
	if got := r.Events(Filter{Limit: 2}); len(got) != 2 || got[1].Seq != all[4].Seq {
		t.Fatalf("limit filter should keep newest: got %v", got)
	}
}

func TestRingOverwrite(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Event(ID(i+1), KindNote, "a", int64(i), 0, "")
	}
	if r.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", r.Recorded())
	}
	evs := r.Events(Filter{})
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	// The newest 4 events (seq 7..10) survive.
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("slot %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

func TestCausalClosure(t *testing.T) {
	r := NewRecorder(128)
	t1, t2, t3 := r.NextID(), r.NextID(), r.NextID()
	// Chain t1 mentions query 5 only at its tail.
	r.Event(t1, KindIngress, "server", 7, 0, "VelocityReport")
	r.Event(t1, KindBroadcast, "server", 7, 0, "VelocityChange")
	r.Event(t1, KindResult, "server", 8, 5, "enter")
	// Chain t2 never touches query 5 or object 8.
	r.Event(t2, KindIngress, "server", 9, 0, "CellChangeReport")
	// Chain t3 mentions object 8 directly.
	r.Event(t3, KindIngress, "server", 8, 0, "ContainmentReport")
	// Untraced event naming query 5.
	r.Event(0, KindNote, "harness", 0, 5, "check")

	got := r.Causal(8, 5)
	if len(got) != 5 {
		t.Fatalf("Causal(8,5) = %d events, want 5 (t1 chain ×3, t3, untraced note): %v", len(got), got)
	}
	for _, e := range got {
		if e.Trace == t2 {
			t.Fatalf("unrelated chain t2 leaked into causal set: %v", got)
		}
	}
	// qid-only lookup pulls in the whole t1 chain.
	if got := r.Causal(0, 5); len(got) != 4 {
		t.Fatalf("Causal(0,5) = %d events, want 4: %v", len(got), got)
	}
	if got := r.Causal(0, 0); got != nil {
		t.Fatalf("Causal(0,0) = %v, want nil", got)
	}
}

func TestFormatAndString(t *testing.T) {
	r := NewRecorder(16)
	r.Event(3, KindBroadcast, "shard1", 7, 2, "QueryInstall")
	var buf bytes.Buffer
	Format(&buf, r.Events(Filter{}))
	out := buf.String()
	for _, want := range []string{"trace=3", "broadcast", "shard1", "oid=7", "qid=2", "QueryInstall"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted event %q missing %q", out, want)
		}
	}
}

func TestKindJSON(t *testing.T) {
	b, err := json.Marshal(Event{Seq: 1, Kind: KindMigrate, Actor: "router"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"migrate"`) {
		t.Fatalf("kind not marshalled by name: %s", b)
	}
}

// TestConcurrentRecordAndScan exercises writers racing readers; run under
// -race this validates the slot-locked ring.
func TestConcurrentRecordAndScan(t *testing.T) {
	r := NewRecorder(256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tid := r.NextID()
				r.Event(tid, KindIngress, "w", int64(w), int64(i%7), "spin")
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = r.Events(Filter{QID: 3})
				_ = r.Causal(2, 0)
			}
		}()
	}
	wg.Wait()
	if r.Recorded() != 8000 {
		t.Fatalf("Recorded = %d, want 8000", r.Recorded())
	}
	evs := r.Events(Filter{})
	if len(evs) != 256 {
		t.Fatalf("full ring scan returned %d, want 256", len(evs))
	}
}
