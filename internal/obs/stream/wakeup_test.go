package stream_test

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobieyes/internal/obs/stream"
)

// TestTapSignalsOnlyOnEmptyEdge pins the wakeup rule: Publish signals a
// subscriber only when its buffer goes from empty to non-empty, so a burst
// drained in one go leaves no stale wakeup behind, and the first event
// after a Drain always signals.
func TestTapSignalsOnlyOnEmptyEdge(t *testing.T) {
	tap := stream.NewTap()
	sub, _ := tap.Subscribe(1, 16)
	defer sub.Close()
	ready := func() bool {
		select {
		case <-sub.Ready():
			return true
		default:
			return false
		}
	}
	tap.Publish(1, 10, true)
	if !ready() {
		t.Fatal("first event into an empty buffer did not signal")
	}
	tap.Publish(1, 11, true)
	tap.Publish(1, 12, true)
	if ready() {
		t.Fatal("events into a non-empty buffer signalled again")
	}
	if evs, _ := sub.Drain(); len(evs) != 3 {
		t.Fatalf("Drain = %d events, want 3", len(evs))
	}
	tap.Publish(1, 10, false)
	if !ready() {
		t.Fatal("first event after a Drain did not signal")
	}
	if evs, _ := sub.Drain(); len(evs) != 1 || evs[0].Seq != 4 {
		t.Fatalf("Drain = %+v, want seq 4", evs)
	}
}

// TestTapStalledDrainerLosesNothing runs a publisher against drainers that
// stall between Ready and Drain, so many events land in a non-empty buffer
// and raise no signal of their own. The publisher works in rounds of one to
// four events; every other round it waits until the drainers have taken
// everything, so the next round starts on empty buffers and a round of one
// event is exactly the case a lost edge signal would strand. Every drainer
// must receive every event of its subscription, in Seq order. Run with
// -race.
func TestTapStalledDrainerLosesNothing(t *testing.T) {
	const rounds = 1500
	tap := stream.NewTap()
	one, _ := tap.Subscribe(1, 4*rounds)
	fire, _ := tap.Subscribe(stream.Firehose, 8*rounds)
	subs := []*stream.Sub{one, fire}
	taken := make([]atomic.Int64, len(subs))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub *stream.Sub) {
			defer wg.Done()
			defer sub.Close()
			rng := rand.New(rand.NewSource(int64(i)))
			last := map[int64]uint64{}
			for {
				select {
				case <-sub.Ready():
				case <-stop:
					return
				}
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
				} else {
					runtime.Gosched()
				}
				evs, evicted := sub.Drain()
				if evicted {
					t.Errorf("sub %d evicted", i)
					return
				}
				for _, ev := range evs {
					if ev.Seq != last[ev.QID]+1 {
						t.Errorf("sub %d qid %d: seq %d after %d", i, ev.QID, ev.Seq, last[ev.QID])
						return
					}
					last[ev.QID] = ev.Seq
				}
				taken[i].Add(int64(len(evs)))
			}
		}(i, sub)
	}

	rng := rand.New(rand.NewSource(99))
	var sent [2]int64 // events for sub one (qid 1) and for the firehose
	for r := 0; r < rounds && !t.Failed(); r++ {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			qid := int64(1 + rng.Intn(2))
			tap.Publish(qid, int64(r), true)
			if qid == 1 {
				sent[0]++
			}
			sent[1]++
		}
		if r%2 == 1 {
			continue
		}
		deadline := time.Now().Add(10 * time.Second)
		for taken[0].Load() != sent[0] || taken[1].Load() != sent[1] {
			if time.Now().After(deadline) {
				t.Errorf("round %d: drainers took %d/%d and %d/%d events (lost wakeup)",
					r, taken[0].Load(), sent[0], taken[1].Load(), sent[1])
				break
			}
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if _, _, dropped, evictions := tap.Stats(); dropped != 0 || evictions != 0 {
		t.Fatalf("dropped = %d, evictions = %d", dropped, evictions)
	}
}

// TestTapSnapshotMatchesMapMirror takes subscriptions while publishers run
// a differential stream (enter a non-member, leave a member) and checks
// every snapshot against a map mirror rebuilt from the sink: a snapshot at
// Seq S holds exactly the members the query had after its S'th change, and
// the subscriber's first delta for it is S+1. Run with -race.
func TestTapSnapshotMatchesMapMirror(t *testing.T) {
	const (
		publishers = 4
		perPub     = 3000
		oids       = 40
	)
	tap := stream.NewTap()
	type change struct {
		oid   int64
		enter bool
	}
	history := map[int64][]change{} // per qid, in seq order; written under the tap mutex
	tap.SetSink(func(qid int64, seq uint64, oid int64, enter bool) {
		history[qid] = append(history[qid], change{oid, enter})
		if uint64(len(history[qid])) != seq {
			t.Errorf("sink: qid %d seq %d arrived as change %d", qid, seq, len(history[qid]))
		}
	})
	var pubs sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(qid int64) {
			defer pubs.Done()
			<-start
			rng := rand.New(rand.NewSource(qid))
			in := map[int64]bool{}
			for i := 0; i < perPub; i++ {
				oid := rng.Int63n(oids)
				tap.Publish(qid, oid, !in[oid])
				in[oid] = !in[oid]
			}
		}(int64(p + 1))
	}

	type cut struct {
		snap  []stream.SnapshotEntry
		first map[int64]uint64 // first delta seq seen per qid
	}
	cuts := make(chan cut, 64)
	var subsWG sync.WaitGroup
	for s := 0; s < 8; s++ {
		subsWG.Add(1)
		go func(s int) {
			defer subsWG.Done()
			<-start
			for k := 0; k < 4; k++ {
				qid := stream.Firehose
				if (s+k)%2 == 1 {
					qid = int64(1 + (s+k)%publishers)
				}
				sub, snap := tap.Subscribe(qid, publishers*perPub+1)
				runtime.Gosched()
				evs, _ := sub.Drain()
				first := map[int64]uint64{}
				for _, ev := range evs {
					if _, ok := first[ev.QID]; !ok {
						first[ev.QID] = ev.Seq
					}
				}
				sub.Close()
				cuts <- cut{snap, first}
			}
		}(s)
	}
	close(start)
	pubs.Wait()
	subsWG.Wait()
	close(cuts)

	members := func(qid int64, seq uint64) []int64 {
		m := map[int64]struct{}{}
		for _, c := range history[qid][:seq] {
			if c.enter {
				m[c.oid] = struct{}{}
			} else {
				delete(m, c.oid)
			}
		}
		out := make([]int64, 0, len(m))
		for oid := range m {
			out = append(out, oid)
		}
		slices.Sort(out)
		return out
	}
	n := 0
	for c := range cuts {
		for _, e := range c.snap {
			if e.Seq > uint64(len(history[e.QID])) {
				t.Fatalf("snapshot qid %d at seq %d beyond %d published", e.QID, e.Seq, len(history[e.QID]))
			}
			if want := members(e.QID, e.Seq); !slices.Equal(e.Members, want) && !(len(want) == 0 && len(e.Members) == 0) {
				t.Errorf("snapshot qid %d seq %d members %v, map mirror %v", e.QID, e.Seq, e.Members, want)
			}
			if f, ok := c.first[e.QID]; ok && f != e.Seq+1 {
				t.Errorf("snapshot qid %d at seq %d resumed at seq %d", e.QID, e.Seq, f)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no snapshot entries checked")
	}
	for qid := int64(1); qid <= publishers; qid++ {
		got, seq := tap.Result(qid)
		if want := members(qid, perPub); seq != perPub || !slices.Equal(got, want) && !(len(want) == 0 && len(got) == 0) {
			t.Errorf("final qid %d = %v at seq %d, map mirror %v at %d", qid, got, seq, want, perPub)
		}
	}
}
