package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"mobieyes/internal/geo"
)

// bruteForce is the reference implementation: a flat slice scanned linearly.
type bruteForce struct {
	items []Item
}

func (b *bruteForce) insert(it Item) { b.items = append(b.items, it) }

func (b *bruteForce) delete(it Item) bool {
	for i, x := range b.items {
		if x.ID == it.ID && x.Box == it.Box {
			b.items = append(b.items[:i], b.items[i+1:]...)
			return true
		}
	}
	return false
}

func (b *bruteForce) search(q geo.Rect) []int64 {
	var out []int64
	for _, it := range b.items {
		if it.Box.Intersects(q) {
			out = append(out, it.ID)
		}
	}
	return out
}

func sortedIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int64) bool {
	a, b = sortedIDs(a), sortedIDs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randRect(rng *rand.Rand, world, maxExtent float64) geo.Rect {
	x := rng.Float64() * world
	y := rng.Float64() * world
	return geo.NewRect(x, y, rng.Float64()*maxExtent, rng.Float64()*maxExtent)
}

func randPointRect(rng *rand.Rand, world float64) geo.Rect {
	x := rng.Float64() * world
	y := rng.Float64() * world
	return geo.NewRect(x, y, 0, 0)
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Search(geo.NewRect(0, 0, 100, 100), nil); len(got) != 0 {
		t.Fatalf("Search on empty tree = %v", got)
	}
	if tr.Delete(Item{ID: 1, Box: geo.NewRect(0, 0, 1, 1)}) {
		t.Fatal("Delete on empty tree returned true")
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d", tr.Height())
	}
}

func TestNewWithCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 3")
		}
	}()
	NewWithCapacity(3)
}

func TestInsertSearchSmall(t *testing.T) {
	tr := New()
	tr.Insert(Item{ID: 1, Box: geo.NewRect(0, 0, 1, 1)})
	tr.Insert(Item{ID: 2, Box: geo.NewRect(5, 5, 1, 1)})
	tr.Insert(Item{ID: 3, Box: geo.NewRect(0.5, 0.5, 1, 1)})

	got := tr.Search(geo.NewRect(0, 0, 2, 2), nil)
	if !equalIDs(got, []int64{1, 3}) {
		t.Fatalf("Search = %v, want [1 3]", got)
	}
	got = tr.Search(geo.NewRect(4, 4, 3, 3), nil)
	if !equalIDs(got, []int64{2}) {
		t.Fatalf("Search = %v, want [2]", got)
	}
	got = tr.Search(geo.NewRect(10, 10, 1, 1), nil)
	if len(got) != 0 {
		t.Fatalf("Search = %v, want empty", got)
	}
}

func TestInsertGrowsAndSplits(t *testing.T) {
	tr := NewWithCapacity(4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		tr.Insert(Item{ID: int64(i), Box: randRect(rng, 100, 5)})
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() < 3 {
		t.Fatalf("expected a tree of height ≥ 3 for 200 items at capacity 4, got %d", tr.Height())
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	tr := New()
	bf := &bruteForce{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		it := Item{ID: int64(i), Box: randRect(rng, 1000, 20)}
		tr.Insert(it)
		bf.insert(it)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		q := randRect(rng, 1000, 100)
		got := tr.Search(q, nil)
		want := bf.search(q)
		if !equalIDs(got, want) {
			t.Fatalf("query %v: got %d ids, want %d ids", q, len(got), len(want))
		}
	}
}

func TestSearchPointsMatchesBruteForce(t *testing.T) {
	// Zero-extent rectangles (points) are the object-index use case.
	tr := New()
	bf := &bruteForce{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		it := Item{ID: int64(i), Box: randPointRect(rng, 316)}
		tr.Insert(it)
		bf.insert(it)
	}
	for i := 0; i < 200; i++ {
		q := randRect(rng, 316, 15)
		if got, want := tr.Search(q, nil), bf.search(q); !equalIDs(got, want) {
			t.Fatalf("point query %v mismatch: %d vs %d", q, len(got), len(want))
		}
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	items := []Item{
		{ID: 1, Box: geo.NewRect(0, 0, 1, 1)},
		{ID: 2, Box: geo.NewRect(2, 2, 1, 1)},
		{ID: 3, Box: geo.NewRect(4, 4, 1, 1)},
	}
	for _, it := range items {
		tr.Insert(it)
	}
	if !tr.Delete(items[1]) {
		t.Fatal("Delete returned false for present item")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d after delete", tr.Len())
	}
	got := tr.Search(geo.NewRect(0, 0, 10, 10), nil)
	if !equalIDs(got, []int64{1, 3}) {
		t.Fatalf("Search after delete = %v", got)
	}
	if tr.Delete(items[1]) {
		t.Fatal("Delete returned true for absent item")
	}
	// Wrong box, right ID: must not delete.
	if tr.Delete(Item{ID: 1, Box: geo.NewRect(9, 9, 1, 1)}) {
		t.Fatal("Delete matched by ID only")
	}
}

func TestDeleteAll(t *testing.T) {
	tr := NewWithCapacity(4)
	rng := rand.New(rand.NewSource(4))
	var items []Item
	for i := 0; i < 500; i++ {
		it := Item{ID: int64(i), Box: randRect(rng, 100, 3)}
		items = append(items, it)
		tr.Insert(it)
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i, it := range items {
		if !tr.Delete(it) {
			t.Fatalf("Delete %v failed at step %d", it, i)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if got := tr.Search(geo.NewRect(0, 0, 100, 100), nil); len(got) != 0 {
		t.Fatalf("Search after deleting all = %v", got)
	}
}

func TestUpdate(t *testing.T) {
	tr := New()
	oldBox := geo.NewRect(0, 0, 0, 0)
	newBox := geo.NewRect(50, 50, 0, 0)
	tr.Insert(Item{ID: 7, Box: oldBox})
	if !tr.Update(7, oldBox, newBox) {
		t.Fatal("Update returned false")
	}
	if got := tr.Search(geo.NewRect(-1, -1, 2, 2), nil); len(got) != 0 {
		t.Fatalf("item still at old position: %v", got)
	}
	if got := tr.Search(geo.NewRect(49, 49, 2, 2), nil); !equalIDs(got, []int64{7}) {
		t.Fatalf("item not at new position: %v", got)
	}
	if tr.Update(99, oldBox, newBox) {
		t.Fatal("Update of absent item returned true")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestRandomizedMixedOps is the main torture test: random interleaving of
// inserts, deletes, updates and searches, cross-checked against brute force
// with full invariant validation.
func TestRandomizedMixedOps(t *testing.T) {
	tr := NewWithCapacity(8)
	bf := &bruteForce{}
	rng := rand.New(rand.NewSource(5))
	nextID := int64(0)

	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(bf.items) == 0: // insert
			it := Item{ID: nextID, Box: randRect(rng, 200, 8)}
			nextID++
			tr.Insert(it)
			bf.insert(it)
		case op < 7: // delete random present item
			it := bf.items[rng.Intn(len(bf.items))]
			if !tr.Delete(it) {
				t.Fatalf("step %d: Delete(%v) failed", step, it)
			}
			bf.delete(it)
		case op < 8: // update random present item
			it := bf.items[rng.Intn(len(bf.items))]
			newBox := randRect(rng, 200, 8)
			if !tr.Update(it.ID, it.Box, newBox) {
				t.Fatalf("step %d: Update(%v) failed", step, it)
			}
			bf.delete(it)
			bf.insert(Item{ID: it.ID, Box: newBox})
		default: // search
			q := randRect(rng, 200, 30)
			if got, want := tr.Search(q, nil), bf.search(q); !equalIDs(got, want) {
				t.Fatalf("step %d: search mismatch for %v: %d vs %d ids",
					step, q, len(got), len(want))
			}
		}
		if step%97 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tr.Len() != len(bf.items) {
				t.Fatalf("step %d: Len = %d, brute force has %d", step, tr.Len(), len(bf.items))
			}
		}
	}
}

func TestDuplicateIDs(t *testing.T) {
	tr := New()
	box := geo.NewRect(1, 1, 1, 1)
	tr.Insert(Item{ID: 42, Box: box})
	tr.Insert(Item{ID: 42, Box: box})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.Search(geo.NewRect(0, 0, 3, 3), nil)
	if len(got) != 2 || got[0] != 42 || got[1] != 42 {
		t.Fatalf("Search = %v", got)
	}
	if !tr.Delete(Item{ID: 42, Box: box}) {
		t.Fatal("first delete failed")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after one delete", tr.Len())
	}
}

func TestClusteredInsertions(t *testing.T) {
	// Clustered data exercises forced reinsertion and overlapping splits.
	tr := NewWithCapacity(6)
	bf := &bruteForce{}
	rng := rand.New(rand.NewSource(6))
	id := int64(0)
	for c := 0; c < 20; c++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for i := 0; i < 100; i++ {
			box := geo.NewRect(cx+rng.NormFloat64()*3, cy+rng.NormFloat64()*3, 1, 1)
			it := Item{ID: id, Box: box}
			id++
			tr.Insert(it)
			bf.insert(it)
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		q := randRect(rng, 1000, 50)
		if got, want := tr.Search(q, nil), bf.search(q); !equalIDs(got, want) {
			t.Fatalf("clustered search mismatch: %d vs %d", len(got), len(want))
		}
	}
}

func TestSearchReusesDst(t *testing.T) {
	tr := New()
	tr.Insert(Item{ID: 1, Box: geo.NewRect(0, 0, 1, 1)})
	buf := make([]int64, 0, 16)
	got := tr.Search(geo.NewRect(0, 0, 2, 2), buf)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Search = %v", got)
	}
	if cap(got) != cap(buf) {
		t.Fatal("Search reallocated despite sufficient capacity")
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	boxes := make([]geo.Rect, b.N)
	for i := range boxes {
		boxes[i] = randPointRect(rng, 316)
	}
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(Item{ID: int64(i), Box: boxes[i]})
	}
}

func BenchmarkSearch10k(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tr := New()
	for i := 0; i < 10000; i++ {
		tr.Insert(Item{ID: int64(i), Box: randPointRect(rng, 316)})
	}
	queries := make([]geo.Rect, 1024)
	for i := range queries {
		queries[i] = randRect(rng, 316, 10)
	}
	buf := make([]int64, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.Search(queries[i%len(queries)], buf[:0])
	}
}

func BenchmarkUpdate10k(b *testing.B) {
	// The object-index baseline's hot path: move a point to a nearby spot.
	rng := rand.New(rand.NewSource(3))
	tr := New()
	boxes := make([]geo.Rect, 10000)
	for i := range boxes {
		boxes[i] = randPointRect(rng, 316)
		tr.Insert(Item{ID: int64(i), Box: boxes[i]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % len(boxes)
		old := boxes[id]
		nb := geo.NewRect(old.LX+rng.Float64()*2-1, old.LY+rng.Float64()*2-1, 0, 0)
		if !tr.Update(int64(id), old, nb) {
			b.Fatal("update failed")
		}
		boxes[id] = nb
	}
}

func BenchmarkLinearScanBaseline10k(b *testing.B) {
	// Ablation: the same range query answered by a linear scan, to quantify
	// what the R*-tree buys the centralized baselines.
	rng := rand.New(rand.NewSource(4))
	bf := &bruteForce{}
	for i := 0; i < 10000; i++ {
		bf.insert(Item{ID: int64(i), Box: randPointRect(rng, 316)})
	}
	queries := make([]geo.Rect, 1024)
	for i := range queries {
		queries[i] = randRect(rng, 316, 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bf.search(queries[i%len(queries)])
	}
}
