package trace

import (
	"strconv"
	"sync"
	"testing"
)

// ringEvent is writer w's i'th event (i ≥ 1). Every field is derived from
// (w, i), so a reader can tell a whole event from one torn between two
// writers.
func ringEvent(w, i int) Event {
	return Event{
		Nanos: int64(i),
		Trace: ID(w)<<32 | ID(i),
		Kind:  Kind(1 + i%int(KindNote)),
		Actor: ringActors[w],
		OID:   int64(w + 1),
		QID:   int64(i),
		Note:  strconv.Itoa(w*1_000_000 + i),
	}
}

var ringActors = [...]string{"w0", "w1", "w2", "w3", "w4", "w5"}

// wholeEvent reports whether e is exactly some writer's ringEvent.
func wholeEvent(e Event) bool {
	w, i := int(e.OID-1), int(e.QID)
	if w < 0 || w >= len(ringActors) || i < 1 {
		return false
	}
	want := ringEvent(w, i)
	want.Seq = e.Seq
	return e == want
}

// TestRingIntegrityUnderRace runs writers against concurrent Events and
// Causal readers. Every event a reader sees must be whole, reader output
// must be strictly ascending by Seq, and once the writers finish the ring
// must hold exactly the last Cap sequence numbers. Run with -race.
func TestRingIntegrityUnderRace(t *testing.T) {
	const (
		writers   = 4
		perWriter = 3000
	)
	r := NewRecorder(128)
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	check := func(evs []Event, what string) {
		for k, e := range evs {
			if !wholeEvent(e) {
				t.Errorf("%s returned a torn event: %+v", what, e)
				return
			}
			if k > 0 && e.Seq <= evs[k-1].Seq {
				t.Errorf("%s out of order: seq %d after %d", what, e.Seq, evs[k-1].Seq)
				return
			}
		}
	}
	for rd := 0; rd < 2; rd++ {
		reading.Add(1)
		go func(rd int) {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				check(r.Events(Filter{}), "Events")
				check(r.Causal(int64(rd+1), 0), "Causal")
			}
		}(rd)
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 1; i <= perWriter; i++ {
				r.Record(ringEvent(w, i))
			}
		}(w)
	}
	writing.Wait()
	close(stop)
	reading.Wait()

	total := uint64(writers * perWriter)
	if r.Recorded() != total {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), total)
	}
	evs := r.Events(Filter{})
	if len(evs) != r.Cap() {
		t.Fatalf("quiescent ring holds %d events, want Cap = %d", len(evs), r.Cap())
	}
	for k, e := range evs {
		if want := total - uint64(r.Cap()) + 1 + uint64(k); e.Seq != want {
			t.Fatalf("quiescent ring: event %d has seq %d, want %d (last Cap seqs gapless)", k, e.Seq, want)
		}
		if !wholeEvent(e) {
			t.Fatalf("quiescent ring holds a torn event: %+v", e)
		}
	}
}

// TestRingLateWriterLoses pins the wrap rule: a writer that took its
// sequence number, then stalled while the ring lapped it, must not
// overwrite the newer event now in its slot.
func TestRingLateWriterLoses(t *testing.T) {
	r := NewRecorder(4)
	late := ringEvent(0, 1)
	late.Seq = r.seq.Add(1) // seq 1, not yet stored
	for i := 1; i <= r.Cap(); i++ {
		r.Record(ringEvent(1, i)) // seqs 2..5; seq 5 shares seq 1's slot
	}
	r.store(&late)
	evs := r.Events(Filter{})
	if len(evs) != r.Cap() {
		t.Fatalf("ring holds %d events, want %d", len(evs), r.Cap())
	}
	for k, e := range evs {
		if want := uint64(2 + k); e.Seq != want || e.OID != 2 {
			t.Fatalf("event %d = seq %d oid %d, want seq %d from the newer writer", k, e.Seq, e.OID, want)
		}
	}
	// The same store into a slot holding an older event does land.
	r.Record(ringEvent(1, 99)) // seq 6 overwrites seq 2
	older := ringEvent(0, 2)
	older.Seq = 10 // slot 2, which holds seq 6
	r.store(&older)
	if got := r.Events(Filter{OID: 1}); len(got) != 1 || got[0].Seq != 10 {
		t.Fatalf("newer store did not replace an older slot: %+v", got)
	}
}
