// Package rtree implements an in-memory R*-tree (Beckmann, Kriegel,
// Schneider, Seeger: "The R*-tree: An Efficient and Robust Access Method for
// Points and Rectangles", SIGMOD 1990).
//
// The MobiEyes paper uses an R*-tree for both centralized baselines it
// compares against: the object index (a spatial index over moving object
// positions) and the query index (a spatial index over query regions). This
// package provides the shared substrate for both.
//
// The implementation includes the full R* heuristics:
//
//   - ChooseSubtree with minimum overlap enlargement at the leaf level and
//     minimum area enlargement above it;
//   - the R* split algorithm (ChooseSplitAxis by minimum margin sum,
//     ChooseSplitIndex by minimum overlap, ties broken by area);
//   - forced reinsertion of the 30% most distant entries on the first
//     overflow at each level per insertion;
//   - deletion with tree condensation and orphan reinsertion.
//
// Items are identified by an int64 ID chosen by the caller; Delete and
// Update locate items by ID and their last-known rectangle, so the caller
// must remember the rectangle it inserted (both baselines naturally do).
package rtree

import (
	"fmt"
	"sort"

	"mobieyes/internal/geo"
)

const (
	// defaultMaxEntries is M, the node capacity. 32 keeps nodes cache
	// friendly while staying close to the classic configuration.
	defaultMaxEntries = 32
	// reinsertFraction is p from the R* paper: on first overflow, the 30%
	// of entries farthest from the node center are reinserted.
	reinsertFraction = 0.3
)

// Item is a spatial object stored in the tree.
type Item struct {
	ID  int64
	Box geo.Rect
}

type entry struct {
	box   geo.Rect
	child *node // nil for leaf entries
	id    int64 // valid for leaf entries
}

type node struct {
	parent  *node // nil for the root
	leaf    bool
	level   int // 0 for leaves
	entries []entry
}

// Tree is an R*-tree. The zero value is not usable; call New.
type Tree struct {
	root       *node
	size       int
	maxEntries int
	minEntries int
	// reinsertedLevels tracks which levels already did forced reinsertion
	// during the current insertion, per the R* overflow treatment.
	reinsertedLevels map[int]bool
}

// New returns an empty R*-tree with the default node capacity.
func New() *Tree { return NewWithCapacity(defaultMaxEntries) }

// NewWithCapacity returns an empty R*-tree whose nodes hold at most max
// entries. It panics if max < 4, the smallest capacity for which the R*
// split distributions are well defined.
func NewWithCapacity(max int) *Tree {
	if max < 4 {
		panic(fmt.Sprintf("rtree: capacity %d too small (minimum 4)", max))
	}
	return &Tree{
		root:       &node{leaf: true},
		maxEntries: max,
		minEntries: max * 2 / 5, // m = 40% of M, the R* recommendation
	}
}

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.size }

// Insert adds an item to the tree. Inserting two items with the same ID is
// allowed (the tree is a multiset over IDs); Delete removes one matching
// occurrence.
func (t *Tree) Insert(it Item) {
	t.reinsertedLevels = map[int]bool{}
	t.insert(entry{box: it.Box, id: it.ID}, 0)
	t.size++
}

// insert places e at the given target level (0 = leaf).
func (t *Tree) insert(e entry, level int) {
	n := t.chooseSubtree(e.box, level)
	n.entries = append(n.entries, e)
	if e.child != nil {
		e.child.parent = n
	}
	t.adjustPathUp(n)
	if len(n.entries) > t.maxEntries {
		t.overflowTreatment(n, level)
	}
}

// chooseSubtree descends from the root to the node at the target level
// using the R* ChooseSubtree heuristics.
func (t *Tree) chooseSubtree(box geo.Rect, level int) *node {
	n := t.root
	for n.level > level {
		var best *entry
		if n.level == 1 {
			// Children are leaves: minimize overlap enlargement.
			best = chooseMinOverlap(n.entries, box)
		} else {
			best = chooseMinEnlargement(n.entries, box)
		}
		n = best.child
	}
	return n
}

// chooseMinOverlap picks the entry whose overlap with its siblings grows
// least when enlarged to include box; ties by area enlargement, then area.
func chooseMinOverlap(entries []entry, box geo.Rect) *entry {
	bestIdx := 0
	bestOverlapInc := -1.0
	bestEnlarge := 0.0
	bestArea := 0.0
	for i := range entries {
		enlarged := entries[i].box.Union(box)
		var before, after float64
		for j := range entries {
			if j == i {
				continue
			}
			before += entries[i].box.OverlapArea(entries[j].box)
			after += enlarged.OverlapArea(entries[j].box)
		}
		overlapInc := after - before
		enlarge := enlarged.Area() - entries[i].box.Area()
		area := entries[i].box.Area()
		if bestOverlapInc < 0 ||
			overlapInc < bestOverlapInc ||
			(overlapInc == bestOverlapInc && enlarge < bestEnlarge) ||
			(overlapInc == bestOverlapInc && enlarge == bestEnlarge && area < bestArea) {
			bestIdx, bestOverlapInc, bestEnlarge, bestArea = i, overlapInc, enlarge, area
		}
	}
	return &entries[bestIdx]
}

// chooseMinEnlargement picks the entry needing the least area enlargement
// to include box; ties broken by smaller area.
func chooseMinEnlargement(entries []entry, box geo.Rect) *entry {
	bestIdx := 0
	bestEnlarge := -1.0
	bestArea := 0.0
	for i := range entries {
		area := entries[i].box.Area()
		enlarge := entries[i].box.Union(box).Area() - area
		if bestEnlarge < 0 || enlarge < bestEnlarge ||
			(enlarge == bestEnlarge && area < bestArea) {
			bestIdx, bestEnlarge, bestArea = i, enlarge, area
		}
	}
	return &entries[bestIdx]
}

// adjustPathUp recomputes the exact bounding boxes of the entries pointing
// at n and each of its ancestors. O(height × node capacity).
func (t *Tree) adjustPathUp(n *node) {
	for n.parent != nil {
		p := n.parent
		for i := range p.entries {
			if p.entries[i].child == n {
				p.entries[i].box = mbr(n.entries)
				break
			}
		}
		n = p
	}
}

// overflowTreatment implements the R* policy: on the first overflow at a
// level (other than the root) during one insertion, reinsert the p entries
// farthest from the node's center; otherwise split.
func (t *Tree) overflowTreatment(n *node, level int) {
	if n != t.root && !t.reinsertedLevels[level] {
		t.reinsertedLevels[level] = true
		t.forcedReinsert(n, level)
		return
	}
	t.splitNode(n, level)
}

// forcedReinsert removes the 30% of n's entries whose centers are farthest
// from n's center and reinserts them at the same level.
func (t *Tree) forcedReinsert(n *node, level int) {
	center := mbr(n.entries).Center()
	type distEntry struct {
		d float64
		e entry
	}
	ds := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		ds[i] = distEntry{e.box.Center().Dist2(center), e}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].d > ds[j].d })
	p := int(reinsertFraction * float64(len(ds)))
	if p < 1 {
		p = 1
	}
	removed := make([]entry, p)
	for i := 0; i < p; i++ {
		removed[i] = ds[i].e
	}
	kept := n.entries[:0]
	for i := p; i < len(ds); i++ {
		kept = append(kept, ds[i].e)
	}
	n.entries = kept
	t.adjustPathUp(n)
	for _, e := range removed {
		t.insert(e, level)
	}
}

// splitNode splits an overflowing node using the R* topological split and
// propagates the split upward, growing the tree at the root if needed.
func (t *Tree) splitNode(n *node, level int) {
	left, right := rstarSplit(n.entries, t.minEntries)
	sibling := &node{leaf: n.leaf, level: n.level, entries: right}
	for i := range sibling.entries {
		if sibling.entries[i].child != nil {
			sibling.entries[i].child.parent = sibling
		}
	}
	n.entries = left
	for i := range n.entries {
		if n.entries[i].child != nil {
			n.entries[i].child.parent = n
		}
	}

	if n == t.root {
		newRoot := &node{level: n.level + 1}
		n.parent, sibling.parent = newRoot, newRoot
		newRoot.entries = []entry{
			{box: mbr(n.entries), child: n},
			{box: mbr(sibling.entries), child: sibling},
		}
		t.root = newRoot
		return
	}

	parent := n.parent
	sibling.parent = parent
	for i := range parent.entries {
		if parent.entries[i].child == n {
			parent.entries[i].box = mbr(n.entries)
			break
		}
	}
	parent.entries = append(parent.entries, entry{box: mbr(sibling.entries), child: sibling})
	t.adjustPathUp(parent)
	if len(parent.entries) > t.maxEntries {
		t.overflowTreatment(parent, level+1)
	}
}

// rstarSplit distributes entries into two groups using the R* split:
// choose the split axis by minimum total margin over all distributions,
// then the distribution with minimum overlap (ties by minimum total area).
func rstarSplit(entries []entry, minEntries int) (left, right []entry) {
	m := minEntries
	if m < 1 {
		m = 1
	}
	es := make([]entry, len(entries))
	copy(es, entries)

	bestAxisMargin := -1.0
	var bestAxisSorted []entry
	for axis := 0; axis < 2; axis++ {
		sorted := make([]entry, len(es))
		copy(sorted, es)
		sortByAxis(sorted, axis)
		margin := 0.0
		for k := m; k <= len(sorted)-m; k++ {
			margin += mbr(sorted[:k]).Margin() + mbr(sorted[k:]).Margin()
		}
		if bestAxisMargin < 0 || margin < bestAxisMargin {
			bestAxisMargin = margin
			bestAxisSorted = sorted
		}
	}

	bestOverlap, bestArea := -1.0, 0.0
	bestK := m
	for k := m; k <= len(bestAxisSorted)-m; k++ {
		l, r := mbr(bestAxisSorted[:k]), mbr(bestAxisSorted[k:])
		overlap := l.OverlapArea(r)
		area := l.Area() + r.Area()
		if bestOverlap < 0 || overlap < bestOverlap ||
			(overlap == bestOverlap && area < bestArea) {
			bestOverlap, bestArea, bestK = overlap, area, k
		}
	}
	left = append([]entry(nil), bestAxisSorted[:bestK]...)
	right = append([]entry(nil), bestAxisSorted[bestK:]...)
	return left, right
}

func sortByAxis(es []entry, axis int) {
	sort.Slice(es, func(i, j int) bool {
		var li, lj, hi, hj float64
		if axis == 0 {
			li, lj = es[i].box.LX, es[j].box.LX
			hi, hj = es[i].box.HX, es[j].box.HX
		} else {
			li, lj = es[i].box.LY, es[j].box.LY
			hi, hj = es[i].box.HY, es[j].box.HY
		}
		if li != lj {
			return li < lj
		}
		return hi < hj
	})
}

// mbr returns the minimum bounding rectangle of a set of entries.
func mbr(es []entry) geo.Rect {
	if len(es) == 0 {
		return geo.Rect{}
	}
	r := es[0].box
	for _, e := range es[1:] {
		r = r.Union(e.box)
	}
	return r
}

// Search appends to dst the IDs of all items whose rectangles intersect
// query, and returns the extended slice. Pass nil to allocate fresh.
func (t *Tree) Search(query geo.Rect, dst []int64) []int64 {
	return searchNode(t.root, query, dst)
}

func searchNode(n *node, query geo.Rect, dst []int64) []int64 {
	for i := range n.entries {
		if !n.entries[i].box.Intersects(query) {
			continue
		}
		if n.leaf {
			dst = append(dst, n.entries[i].id)
		} else {
			dst = searchNode(n.entries[i].child, query, dst)
		}
	}
	return dst
}

// Delete removes one occurrence of the item (matched by ID and rectangle).
// It returns true if an item was removed. Underfull nodes are condensed:
// their remaining entries are reinserted, per the classic R-tree deletion
// algorithm.
func (t *Tree) Delete(it Item) bool {
	leaf, idx := findLeaf(t.root, it)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.adjustPathUp(leaf)
	t.condenseTree(leaf)
	// Shrink the root while it is a non-leaf with a single child.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.root.parent = nil
	}
	if len(t.root.entries) == 0 && !t.root.leaf {
		t.root = &node{leaf: true}
	}
	return true
}

// findLeaf locates the leaf containing the item and the entry index.
func findLeaf(n *node, it Item) (*node, int) {
	if n.leaf {
		for i := range n.entries {
			if n.entries[i].id == it.ID && n.entries[i].box == it.Box {
				return n, i
			}
		}
		return nil, -1
	}
	for i := range n.entries {
		if n.entries[i].box.ContainsRect(it.Box) {
			if leaf, idx := findLeaf(n.entries[i].child, it); leaf != nil {
				return leaf, idx
			}
		}
	}
	return nil, -1
}

// condenseTree removes underfull nodes on the path from leaf to root and
// reinserts their orphaned entries.
func (t *Tree) condenseTree(leaf *node) {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan
	n := leaf
	for n != t.root {
		parent := n.parent
		if len(n.entries) < t.minEntries {
			for i := range parent.entries {
				if parent.entries[i].child == n {
					parent.entries = append(parent.entries[:i], parent.entries[i+1:]...)
					break
				}
			}
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e, n.level})
			}
			t.adjustPathUp(parent)
		}
		n = parent
	}
	for _, o := range orphans {
		t.reinsertedLevels = map[int]bool{}
		t.insert(o.e, o.level)
	}
}

// Update moves an item from its old rectangle to a new one. It returns
// false (and does not insert) when the old item is not present.
func (t *Tree) Update(id int64, oldBox, newBox geo.Rect) bool {
	if !t.Delete(Item{ID: id, Box: oldBox}) {
		return false
	}
	t.Insert(Item{ID: id, Box: newBox})
	return true
}

// Height returns the height of the tree (1 for a tree that is a single
// leaf). Exposed for tests and instrumentation.
func (t *Tree) Height() int { return t.root.level + 1 }

// checkInvariants validates structural invariants; used by tests.
func (t *Tree) checkInvariants() error {
	n, err := checkNode(t.root, t.root, t.maxEntries, t.minEntries)
	if err != nil {
		return err
	}
	if n != t.size {
		return fmt.Errorf("size mismatch: counted %d, tracked %d", n, t.size)
	}
	return nil
}

func checkNode(n, root *node, maxE, minE int) (items int, err error) {
	if len(n.entries) > maxE {
		return 0, fmt.Errorf("node at level %d has %d > %d entries", n.level, len(n.entries), maxE)
	}
	if n != root && len(n.entries) < minE {
		return 0, fmt.Errorf("non-root node at level %d has %d < %d entries", n.level, len(n.entries), minE)
	}
	if n.leaf {
		if n.level != 0 {
			return 0, fmt.Errorf("leaf with level %d", n.level)
		}
		return len(n.entries), nil
	}
	for i := range n.entries {
		c := n.entries[i].child
		if c == nil {
			return 0, fmt.Errorf("internal entry with nil child at level %d", n.level)
		}
		if c.parent != n {
			return 0, fmt.Errorf("broken parent pointer at level %d", n.level)
		}
		if c.level != n.level-1 {
			return 0, fmt.Errorf("child level %d under parent level %d", c.level, n.level)
		}
		want := mbr(c.entries)
		if n.entries[i].box != want {
			return 0, fmt.Errorf("stale bounding box at level %d: have %v want %v", n.level, n.entries[i].box, want)
		}
		cn, err := checkNode(c, root, maxE, minE)
		if err != nil {
			return 0, err
		}
		items += cn
	}
	return items, nil
}
