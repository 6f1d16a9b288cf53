package cost

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// TestTallyIndexListsExactlyCharged pins the per-ID index against the
// contract its maps used to give: ObjectSnap, QuerySnap and Snapshot list
// exactly the IDs that were charged — in ascending order, with negative IDs
// and IDs far beyond the dense range included, and never an uncharged
// neighbour that merely shares a chunk.
func TestTallyIndexListsExactlyCharged(t *testing.T) {
	ids := []int64{
		math.MinInt64, -1 << 40, -1, 0, 1, 2, chunkLen - 1, chunkLen,
		denseIDs - 1, denseIDs, 1 << 40, math.MaxInt64,
	}
	a := New()
	for i, id := range ids {
		a.ObjectUp(id, 10+i)
		a.QueryDown(id, 20+i, 2)
	}
	a.QueryDown(77, 50, 0) // charged without moving a counter: still listed

	s := a.Snapshot()
	var objIDs, qIDs []int64
	for _, ts := range s.Objects {
		objIDs = append(objIDs, ts.ID)
	}
	for _, ts := range s.Queries {
		qIDs = append(qIDs, ts.ID)
	}
	wantQ := slices.Clone(ids)
	wantQ = append(wantQ, 77)
	slices.Sort(wantQ)
	if !slices.Equal(objIDs, ids) {
		t.Errorf("Snapshot objects = %v, want %v", objIDs, ids)
	}
	if !slices.Equal(qIDs, wantQ) {
		t.Errorf("Snapshot queries = %v, want %v", qIDs, wantQ)
	}
	for i, id := range ids {
		o, ok := a.ObjectSnap(id)
		if want := (TallySnap{ID: id, UpMsgs: 1, UpBytes: int64(10 + i)}); !ok || o != want {
			t.Errorf("ObjectSnap(%d) = %+v, %v; want %+v", id, o, ok, want)
		}
		q, ok := a.QuerySnap(id)
		if want := (TallySnap{ID: id, DownMsgs: 2, DownBytes: int64(2 * (20 + i))}); !ok || q != want {
			t.Errorf("QuerySnap(%d) = %+v, %v; want %+v", id, q, ok, want)
		}
	}
	if q, ok := a.QuerySnap(77); !ok || q != (TallySnap{ID: 77}) {
		t.Errorf("QuerySnap(77) = %+v, %v; want a listed zero tally", q, ok)
	}
	for _, id := range []int64{3, chunkLen + 1, denseIDs - 2, -2, 1<<40 + 1} {
		if _, ok := a.ObjectSnap(id); ok {
			t.Errorf("ObjectSnap(%d) ok for an uncharged ID", id)
		}
		if _, ok := a.QuerySnap(id); ok {
			t.Errorf("QuerySnap(%d) ok for an uncharged ID", id)
		}
	}

	a.Reset()
	if s := a.Snapshot(); len(s.Objects) != 0 || len(s.Queries) != 0 {
		t.Fatalf("after Reset: %d objects, %d queries listed", len(s.Objects), len(s.Queries))
	}
	for _, id := range ids {
		if _, ok := a.ObjectSnap(id); ok {
			t.Errorf("ObjectSnap(%d) ok after Reset", id)
		}
	}
	a.ObjectUp(denseIDs, 5)
	a.ObjectUp(1, 6)
	if s := a.Snapshot(); len(s.Objects) != 2 || s.Objects[0] != (TallySnap{ID: 1, UpMsgs: 1, UpBytes: 6}) ||
		s.Objects[1] != (TallySnap{ID: denseIDs, UpMsgs: 1, UpBytes: 5}) {
		t.Fatalf("charges after Reset = %+v", s.Objects)
	}
}

// TestResetDuringCharges runs Reset and every reader against goroutines
// charging dense and sparse IDs. Run with -race; after the chargers stop,
// a final Reset must leave nothing listed and a fresh charge must count
// from zero.
func TestResetDuringCharges(t *testing.T) {
	a := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := (i*7 + int64(w)) % 3000
				if i%5 == 0 {
					id = -id - 1<<41 // sparse
				}
				a.ObjectUp(id, 8)
				a.QueryDown(id, 16, 1)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		a.Reset()
		_ = a.Snapshot()
		_, _ = a.ObjectSnap(int64(i))
		_, _ = a.QuerySnap(-int64(i) - 1<<41)
	}
	close(stop)
	wg.Wait()
	a.Reset()
	if s := a.Snapshot(); len(s.Objects) != 0 || len(s.Queries) != 0 {
		t.Fatalf("quiescent Reset left %d objects, %d queries", len(s.Objects), len(s.Queries))
	}
	a.ObjectUp(5, 8)
	if o, ok := a.ObjectSnap(5); !ok || o != (TallySnap{ID: 5, UpMsgs: 1, UpBytes: 8}) {
		t.Fatalf("charge after quiescent Reset = %+v, %v", o, ok)
	}
}
