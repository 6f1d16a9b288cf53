// Package stream is the live result gateway (DESIGN.md §17): a single
// engine-side tap on the differential result stream
// (core.ServerAPI.SetResultListener) fanned out to many concurrent
// subscribers with strict snapshot-then-delta semantics.
//
// The Tap mirrors each query's current result set and a monotone per-query
// sequence number. Subscribe cuts a sequenced snapshot and registers the
// subscriber under the same mutex that assigns sequence numbers, so the
// first delta a subscriber sees is exactly snapshot seq + 1 — gap-freeness
// by construction, and a client can detect loss by watching for a hole.
//
// Back-pressure never reaches the engine: Publish does constant work per
// subscriber (append to a bounded buffer, and a non-blocking signal only
// when that buffer was empty), allocates nothing in steady state, and
// performs no I/O. A subscriber whose buffer is full is evicted on the
// spot — its buffered events are dropped, it is unsubscribed, and its next
// Drain reports the eviction so the client can reconnect and re-snapshot.
//
// The same event stream can be teed into the append-only history store
// (internal/history) via SetSink; the sink runs under the tap mutex so the
// recorded log is in global sequence order.
package stream

import (
	"cmp"
	"slices"
	"sync"

	"mobieyes/internal/obs"
)

// Firehose is the query ID that subscribes to every query's events. Engine
// query IDs start at 1, so 0 is free to mean "all".
const Firehose int64 = 0

// Event is one differential result change as seen by a subscriber: at the
// query's Seq'th change, object OID entered (Enter=true) or left the result
// set.
type Event struct {
	QID   int64  `json:"qid"`
	Seq   uint64 `json:"seq"`
	OID   int64  `json:"oid"`
	Enter bool   `json:"enter"`
}

// SnapshotEntry is one query's sequenced state at subscription time: the
// result membership after its Seq'th change. Deltas for this query resume
// at Seq+1.
type SnapshotEntry struct {
	QID     int64   `json:"qid"`
	Seq     uint64  `json:"seq"`
	Members []int64 `json:"members"`
}

// queryState is a query's mirrored result set and its change counter. An
// entry persists after the result empties (and after query removal) so
// sequence numbers never restart within a tap's lifetime. The members are
// an unordered slice: an enter appends, a leave swap-deletes. Publish is
// fed a differential stream — an enter for a non-member, a leave for a
// member — which is what every backend's result listener emits.
type queryState struct {
	seq     uint64
	members []int64
}

// Tap is the fan-out hub. A nil *Tap is a valid, disabled tap on which
// Publish and SetSink are no-ops.
type Tap struct {
	mu sync.Mutex
	// queries is indexed by qid, which engines allocate densely from 1;
	// any other qid (negative, or beyond maxDenseQID) lives in sparse.
	queries []*queryState
	sparse  map[int64]*queryState
	subs    []*Sub
	sink    func(qid int64, seq uint64, oid int64, enter bool)

	published obs.Counter // events published by the engine
	fanned    obs.Counter // event deliveries appended to subscriber buffers
	dropped   obs.Counter // events discarded by slow-consumer evictions
	evictions obs.Counter // subscribers evicted
}

// maxDenseQID bounds the qid-indexed slice. Engine qids are int32 and a
// restored snapshot may start the counter anywhere in that range, so a
// large qid costs one map entry rather than a slice up to it.
const maxDenseQID = 1 << 20

// NewTap returns an empty tap.
func NewTap() *Tap { return &Tap{} }

// SetSink installs the history tee, invoked under the tap mutex for every
// published event in global sequence order. The sink must be fast and must
// not call back into the tap. Call before traffic; nil disables.
func (t *Tap) SetSink(fn func(qid int64, seq uint64, oid int64, enter bool)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

// stateLocked returns qid's state, or nil if the tap has never seen qid.
func (t *Tap) stateLocked(qid int64) *queryState {
	if qid >= 0 && qid < int64(len(t.queries)) {
		return t.queries[qid]
	}
	return t.sparse[qid]
}

// ensureLocked returns qid's state, creating it on first publish.
func (t *Tap) ensureLocked(qid int64) *queryState {
	if qs := t.stateLocked(qid); qs != nil {
		return qs
	}
	qs := &queryState{}
	if qid >= 0 && qid < maxDenseQID {
		if qid >= int64(len(t.queries)) {
			t.queries = append(t.queries, make([]*queryState, int(qid)+1-len(t.queries))...)
		}
		t.queries[qid] = qs
	} else {
		if t.sparse == nil {
			t.sparse = make(map[int64]*queryState)
		}
		t.sparse[qid] = qs
	}
	return qs
}

// Publish records one result transition and fans it out. This is the engine
// hot-path entry: bounded work per subscriber, no blocking, no I/O.
func (t *Tap) Publish(qid, oid int64, enter bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	qs := t.ensureLocked(qid)
	qs.seq++
	if enter {
		qs.members = append(qs.members, oid)
	} else if i := slices.Index(qs.members, oid); i >= 0 {
		last := len(qs.members) - 1
		qs.members[i] = qs.members[last]
		qs.members = qs.members[:last]
	}
	ev := Event{QID: qid, Seq: qs.seq, OID: oid, Enter: enter}
	t.published.Add(1)
	for i := 0; i < len(t.subs); {
		sub := t.subs[i]
		if sub.qid != Firehose && sub.qid != qid {
			i++
			continue
		}
		if len(sub.buf) >= sub.cap {
			// Slow consumer: evict rather than block or grow. The
			// buffered events plus this one are dropped; the subscriber
			// learns via Drain and reconnects for a fresh snapshot.
			t.dropped.Add(int64(len(sub.buf)) + 1)
			t.evictions.Add(1)
			sub.evicted = true
			sub.buf, sub.spare = nil, nil
			t.removeLocked(i)
			sub.signal()
			continue
		}
		sub.buf = append(sub.buf, ev)
		t.fanned.Add(1)
		if len(sub.buf) == 1 {
			// Only the empty → non-empty edge needs a wakeup: a drainer
			// that has not drained yet will take this event with the rest.
			sub.signal()
		}
		i++
	}
	if t.sink != nil {
		t.sink(qid, qs.seq, oid, enter)
	}
	t.mu.Unlock()
}

// removeLocked swap-deletes t.subs[i].
func (t *Tap) removeLocked(i int) {
	last := len(t.subs) - 1
	t.subs[i] = t.subs[last]
	t.subs[last] = nil
	t.subs = t.subs[:last]
}

// Subscribe registers a subscriber for qid's events (Firehose = all
// queries) with a buffer of bufCap events (minimum 1) and returns it with
// its snapshot: the sequenced current result sets, cut atomically with the
// registration so deltas resume exactly at each entry's Seq+1. A specific
// qid the tap has never seen snapshots as {qid, 0, no members} — its first
// delta will be seq 1.
func (t *Tap) Subscribe(qid int64, bufCap int) (*Sub, []SnapshotEntry) {
	if bufCap < 1 {
		bufCap = 1
	}
	sub := &Sub{tap: t, qid: qid, cap: bufCap, ready: make(chan struct{}, 1)}
	t.mu.Lock()
	defer t.mu.Unlock()
	var snap []SnapshotEntry
	if qid == Firehose {
		for id, qs := range t.queries {
			if qs != nil {
				snap = append(snap, snapshotEntry(int64(id), qs))
			}
		}
		for id, qs := range t.sparse {
			snap = append(snap, snapshotEntry(id, qs))
		}
		slices.SortFunc(snap, func(a, b SnapshotEntry) int { return cmp.Compare(a.QID, b.QID) })
	} else {
		snap = append(snap, snapshotEntry(qid, t.stateLocked(qid)))
	}
	t.subs = append(t.subs, sub)
	return sub, snap
}

func snapshotEntry(qid int64, qs *queryState) SnapshotEntry {
	e := SnapshotEntry{QID: qid, Members: []int64{}}
	if qs == nil {
		return e
	}
	e.Seq = qs.seq
	e.Members = append(e.Members, qs.members...)
	slices.Sort(e.Members)
	return e
}

// Result returns the tap's mirrored result set for qid (sorted) and its
// sequence number — what a fresh snapshot of qid would contain.
func (t *Tap) Result(qid int64) ([]int64, uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := snapshotEntry(qid, t.stateLocked(qid))
	return e.Members, e.Seq
}

// Subscribers returns the number of live subscribers.
func (t *Tap) Subscribers() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.subs)
}

// Stats returns lifetime event counts: published by the engine, deliveries
// fanned to buffers, events dropped by evictions, and subscribers evicted.
func (t *Tap) Stats() (published, fanned, dropped, evictions int64) {
	if t == nil {
		return 0, 0, 0, 0
	}
	return t.published.Value(), t.fanned.Value(),
		t.dropped.Value(), t.evictions.Value()
}

// Instrument registers the tap's gauges and counters on reg:
//
//	mobieyes_stream_subscribers        live subscribers
//	mobieyes_stream_published_total    result events published by the engine
//	mobieyes_stream_fanned_total       event deliveries to subscriber buffers
//	mobieyes_stream_dropped_total      events dropped by slow-consumer evictions
//	mobieyes_stream_evictions_total    subscribers evicted
//
// No-op when t or reg is nil.
func (t *Tap) Instrument(reg *obs.Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.GaugeFunc("mobieyes_stream_subscribers",
		"Live result-stream subscribers.",
		func() float64 { return float64(t.Subscribers()) })
	reg.RegisterCounter("mobieyes_stream_published_total",
		"Result events published into the stream tap.", &t.published)
	reg.RegisterCounter("mobieyes_stream_fanned_total",
		"Result event deliveries appended to subscriber buffers.", &t.fanned)
	reg.RegisterCounter("mobieyes_stream_dropped_total",
		"Result events dropped by slow-consumer evictions.", &t.dropped)
	reg.RegisterCounter("mobieyes_stream_evictions_total",
		"Subscribers evicted for falling behind.", &t.evictions)
}

// Sub is one subscription. Drain from a single goroutine; the buffers
// themselves are guarded by the tap mutex.
type Sub struct {
	tap *Tap
	qid int64
	cap int

	// Guarded by tap.mu. Publish appends to buf; Drain hands buf out and
	// takes spare, the slice the previous Drain handed out, as the next
	// buf — so a steadily drained subscriber allocates nothing.
	buf     []Event
	spare   []Event
	evicted bool

	ready chan struct{}
}

// signal wakes the drainer without blocking (capacity-1 channel).
func (s *Sub) signal() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// Ready returns a channel that receives after events are buffered (or the
// subscription is evicted). One receipt may cover many events, and a
// receipt may find nothing new when an earlier Drain already took the
// events: drain after each.
func (s *Sub) Ready() <-chan struct{} { return s.ready }

// QID returns the subscribed query ID (Firehose for all-queries).
func (s *Sub) QID() int64 { return s.qid }

// Drain returns and clears the buffered events, plus whether the
// subscription has been evicted for falling behind. After evicted=true no
// further events will arrive; reconnect (re-Subscribe) for a fresh
// snapshot. The returned slice is valid until the next Drain, which reuses
// its storage: copy any events that must outlive it.
func (s *Sub) Drain() ([]Event, bool) {
	s.tap.mu.Lock()
	evs := s.buf
	s.buf, s.spare = s.spare[:0], evs
	evicted := s.evicted
	s.tap.mu.Unlock()
	return evs, evicted
}

// Close unsubscribes. Idempotent; safe after eviction.
func (s *Sub) Close() {
	s.tap.mu.Lock()
	if i := slices.Index(s.tap.subs, s); i >= 0 {
		s.tap.removeLocked(i)
	}
	s.tap.mu.Unlock()
}
