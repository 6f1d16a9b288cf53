package stream_test

import (
	"sync"
	"testing"

	"mobieyes/internal/obs/stream"
)

// TestSlowConsumerEviction pins the back-pressure contract: a subscriber
// that stops draining is evicted at the first publish that finds its buffer
// full, and from then on the engine does zero work for it — proven by the
// fan-out counters, which must not move again.
func TestSlowConsumerEviction(t *testing.T) {
	tap := stream.NewTap()
	sub, _ := tap.Subscribe(1, 4)
	fast, _ := tap.Subscribe(1, 1<<16)

	for i := 0; i < 100; i++ {
		tap.Publish(1, int64(i+10), true)
	}
	published, fanned, dropped, evictions := tap.Stats()
	if published != 100 {
		t.Fatalf("published = %d", published)
	}
	// The stalled sub absorbed 4 events then was evicted (4 buffered + 1
	// overflowing = 5 dropped); the fast sub absorbed all 100.
	if evictions != 1 || dropped != 5 {
		t.Fatalf("evictions = %d, dropped = %d (want 1, 5)", evictions, dropped)
	}
	if fanned != 4+100 {
		t.Fatalf("fanned = %d, want 104", fanned)
	}
	if n := tap.Subscribers(); n != 1 {
		t.Fatalf("subscribers after eviction = %d, want 1", n)
	}

	// The evicted sub learns on drain: no events, evicted=true.
	select {
	case <-sub.Ready():
	default:
		t.Fatal("evicted sub not signaled")
	}
	evs, evicted := sub.Drain()
	if !evicted || len(evs) != 0 {
		t.Fatalf("Drain after eviction = %d events, evicted=%v", len(evs), evicted)
	}

	// Reconnecting re-snapshots: the fresh snapshot carries the current
	// state and sequence, and deltas resume with no gap.
	sub2, snap := tap.Subscribe(1, 4)
	if len(snap) != 1 || snap[0].Seq != 100 || len(snap[0].Members) != 100 {
		t.Fatalf("re-snapshot = %+v", snap)
	}
	tap.Publish(1, 10, false)
	evs2, evicted2 := sub2.Drain()
	if evicted2 || len(evs2) != 1 || evs2[0].Seq != 101 {
		t.Fatalf("post-reconnect drain = %+v evicted=%v", evs2, evicted2)
	}
	sub2.Close()
	fast.Close()

	// Closing is idempotent and eviction-safe.
	sub.Close()
	if n := tap.Subscribers(); n != 0 {
		t.Fatalf("subscribers = %d, want 0", n)
	}
}

// TestTapConcurrentGapFree hammers the tap from concurrent publishers
// (mirroring a concurrent backend's listener callbacks) while
// subscribers attach mid-stream; every subscriber must observe contiguous
// per-query sequences from its snapshot cut. Run with -race.
func TestTapConcurrentGapFree(t *testing.T) {
	tap := stream.NewTap()
	const (
		publishers = 4
		perPub     = 500
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(qid int64) {
			defer wg.Done()
			<-start
			for i := 0; i < perPub; i++ {
				tap.Publish(qid, int64(i%50), i%2 == 0)
			}
		}(int64(p + 1))
	}

	subResults := make(chan map[int64]uint64, 8)
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			sub, snap := tap.Subscribe(stream.Firehose, publishers*perPub+16)
			defer sub.Close()
			last := map[int64]uint64{}
			for _, e := range snap {
				last[e.QID] = e.Seq
			}
			seen := 0
			for _, e := range snap {
				seen += int(e.Seq) // events before the cut, per query
			}
			for seen < publishers*perPub {
				<-sub.Ready()
				evs, evicted := sub.Drain()
				if evicted {
					t.Error("subscriber evicted despite ample buffer")
					return
				}
				for _, ev := range evs {
					if last[ev.QID]+1 != ev.Seq {
						t.Errorf("qid %d gap: %d -> %d", ev.QID, last[ev.QID], ev.Seq)
						return
					}
					last[ev.QID] = ev.Seq
					seen++
				}
			}
			subResults <- last
		}()
	}
	close(start)
	wg.Wait()
	close(subResults)
	for last := range subResults {
		for qid, seq := range last {
			if seq != perPub {
				t.Fatalf("qid %d final seq = %d, want %d", qid, seq, perPub)
			}
		}
	}
	published, _, dropped, evictions := tap.Stats()
	if published != publishers*perPub {
		t.Fatalf("published = %d", published)
	}
	if dropped != 0 || evictions != 0 {
		t.Fatalf("unexpected drops: dropped=%d evictions=%d", dropped, evictions)
	}
}

func TestNilTapIsDisabled(t *testing.T) {
	var tap *stream.Tap
	tap.Publish(1, 2, true) // must not panic
	tap.SetSink(func(int64, uint64, int64, bool) {})
	if tap.Subscribers() != 0 {
		t.Fatal("nil tap has subscribers")
	}
	if members, seq := tap.Result(1); members != nil || seq != 0 {
		t.Fatal("nil tap has results")
	}
}

// TestSinkSeesSequenceOrder pins the history tee contract: the sink runs
// under the tap mutex and observes every event in per-query sequence order
// with the seq the subscribers see.
func TestSinkSeesSequenceOrder(t *testing.T) {
	tap := stream.NewTap()
	type rec struct {
		qid int64
		seq uint64
		oid int64
		ent bool
	}
	var got []rec
	tap.SetSink(func(qid int64, seq uint64, oid int64, enter bool) {
		got = append(got, rec{qid, seq, oid, enter})
	})
	tap.Publish(7, 1, true)
	tap.Publish(7, 2, true)
	tap.Publish(7, 1, false)
	want := []rec{{7, 1, 1, true}, {7, 2, 2, true}, {7, 3, 1, false}}
	if len(got) != len(want) {
		t.Fatalf("sink saw %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sink[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
