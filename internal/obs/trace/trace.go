// Package trace is a dependency-free causal-tracing subsystem: a flight
// recorder for the MobiEyes protocol path. Components record Events — each
// tagged with a trace ID minted at an ingress point (an uplink frame
// arriving, an API call installing a query) and propagated through the
// system alongside the work it caused — into a fixed-size ring of
// preallocated slots. When something goes wrong, the ring holds the recent
// past: the causal chain from "velocity report arrived" through "FOT
// refreshed" and "monitoring region broadcast" to "result flipped",
// reconstructable per object, per query, or per trace.
//
// Design constraints (see DESIGN.md §11):
//
//   - The disabled path must be free. Every recording method is nil-safe;
//     a nil *Recorder costs one branch (~1–2 ns), matching the nil-metrics
//     idiom of internal/obs, so tracing can compile into the hot uplink
//     path permanently and be turned on by configuration.
//   - Recording must be cheap and concurrency-safe: no allocation, one
//     atomic counter bump and one uncontended per-slot lock per event.
//     A writer waits only for someone else on its own slot (a reader
//     copying it, or a writer a full lap of the ring behind); readers copy
//     one slot at a time, so every event they return is whole, though the
//     set may be torn across slots.
//   - Bounded memory. The ring overwrites the oldest events; Recorded()
//     minus Cap() tells how much history has been lost.
//
// The package deliberately depends on nothing but the standard library —
// object and query identifiers are plain int64s — so every layer (wire,
// remote, core, sim, obs) can import it without cycles.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ID identifies one causal chain. The zero ID means "untraced": events
// recorded with it are kept but belong to no chain, and wire frames carry
// no trace field for it.
type ID uint64

// Kind classifies an event.
type Kind uint8

// Event kinds. The set mirrors the protocol's observable actions; Note is
// the escape hatch for anything else.
const (
	// KindIngress marks the birth of a trace: an uplink message entering
	// the server, or an API call (install, remove, expire).
	KindIngress Kind = iota + 1
	// KindTable is a server table mutation (FOT/SQT/RQI).
	KindTable
	// KindBroadcast is a downlink broadcast to a monitoring region.
	KindBroadcast
	// KindUnicast is a downlink unicast to one object.
	KindUnicast
	// KindResult is a differential result change (object entered or left
	// a query's result set).
	KindResult
	// KindMigrate is a cross-node focal-object handoff.
	KindMigrate
	// KindDeliver is a downlink message delivered to a client.
	KindDeliver
	// KindDrop is a message lost in transit (fault injection, full queues).
	KindDrop
	// KindNote is free-form annotation.
	KindNote
)

var kindNames = [...]string{
	"?", "ingress", "table", "broadcast", "unicast",
	"result", "migrate", "deliver", "drop", "note",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// MarshalText renders the kind name in JSON and text encodings.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name, so JSON event dumps round-trip. Unknown
// names decode to 0 ("?") rather than erroring: dumps are diagnostics, and a
// reader newer or older than the writer should still load the rest.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i := 1; i < len(kindNames); i++ {
		if kindNames[i] == s {
			*k = Kind(i)
			return nil
		}
	}
	*k = 0
	return nil
}

// Event is one recorded protocol action. OID and QID are 0 when the event
// concerns no particular object or query.
type Event struct {
	// Seq is the global recording order (1-based, gapless while the event
	// is still in the ring).
	Seq uint64 `json:"seq"`
	// Nanos is the wall-clock timestamp (UnixNano).
	Nanos int64 `json:"nanos"`
	// Trace is the causal chain this event belongs to (0 = untraced).
	Trace ID     `json:"trace"`
	Kind  Kind   `json:"kind"`
	Actor string `json:"actor"`
	OID   int64  `json:"oid,omitempty"`
	QID   int64  `json:"qid,omitempty"`
	Note  string `json:"note,omitempty"`
}

// String renders the event as one human-readable line.
func (e Event) String() string {
	ts := time.Unix(0, e.Nanos).UTC().Format("15:04:05.000000")
	s := fmt.Sprintf("#%-6d %s trace=%-4d %-9s %-8s", e.Seq, ts, e.Trace, e.Kind, e.Actor)
	if e.OID != 0 {
		s += fmt.Sprintf(" oid=%d", e.OID)
	}
	if e.QID != 0 {
		s += fmt.Sprintf(" qid=%d", e.QID)
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// Recorder is the flight recorder: a power-of-two ring of preallocated
// event slots. All methods are safe for concurrent use, and all are no-ops
// (or return zero values) on a nil receiver.
type Recorder struct {
	mask  uint64
	slots []slot
	// seq and ids are bumped by every issuer; each gets its own cache line
	// so neither bump invalidates the other or the read-only fields above.
	_   [cacheLine]byte
	seq atomic.Uint64 // total events ever recorded
	_   [cacheLine - 8]byte
	ids atomic.Uint64 // last minted trace ID
	_   [cacheLine - 8]byte
}

// cacheLine is the padding unit that keeps the two counters apart.
const cacheLine = 64

// slot is one ring position. The lock makes a copy in or out whole; ev.Seq
// is 0 while the slot has never been written.
type slot struct {
	mu sync.Mutex
	ev Event
}

// DefaultSize is the ring capacity NewRecorder uses for size <= 0.
const DefaultSize = 4096

// NewRecorder returns a recorder holding the most recent events. size is
// rounded up to a power of two; size <= 0 selects DefaultSize.
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Recorder{mask: uint64(n - 1), slots: make([]slot, n)}
}

// Cap returns the ring capacity (0 for nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Recorded returns the total number of events ever recorded (0 for nil);
// anything beyond Cap has been overwritten.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// NextID mints a fresh trace ID (0 on a nil recorder — i.e. untraced).
func (r *Recorder) NextID() ID {
	if r == nil {
		return 0
	}
	return ID(r.ids.Add(1))
}

// Event records one event stamped with the current wall clock. This is the
// hot path: on a nil recorder it is a single branch; enabled it is one
// clock read, one atomic add and one uncontended slot lock — no
// allocation.
func (r *Recorder) Event(tid ID, k Kind, actor string, oid, qid int64, note string) {
	if r == nil {
		return
	}
	r.put(&Event{
		Nanos: time.Now().UnixNano(),
		Trace: tid,
		Kind:  k,
		Actor: actor,
		OID:   oid,
		QID:   qid,
		Note:  note,
	})
}

// Record stores an event whose timestamp the caller already holds: the
// event's trace ID, kind, actor, entities, note and wall-clock timestamp
// are kept, and it is assigned a fresh local sequence number. The cluster
// telemetry plane uses it to stitch worker flight-recorder batches into
// the router's ring — trace IDs are minted at the router and ride the
// wire, so merged chains line up by ID; workers ship their events ahead of
// each op reply, so merge order tracks causal order. A zero Nanos is
// stamped with the local clock.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.Nanos == 0 {
		e.Nanos = time.Now().UnixNano()
	}
	r.put(&e)
}

// put assigns e the next sequence number and copies it into its slot. A
// writer delayed by a full lap of the ring finds a newer event there and
// drops its own: the newest Seq wins, so the last Cap sequence numbers are
// what the ring holds once writers finish.
func (r *Recorder) put(e *Event) {
	e.Seq = r.seq.Add(1)
	r.store(e)
}

// store copies an already sequenced event into its slot unless the slot
// holds a newer one.
func (r *Recorder) store(e *Event) {
	s := &r.slots[e.Seq&r.mask]
	s.mu.Lock()
	if e.Seq > s.ev.Seq {
		s.ev = *e
	}
	s.mu.Unlock()
}

// load copies slot i out whole; ok is false for a never-written slot.
func (r *Recorder) load(i int) (e Event, ok bool) {
	s := &r.slots[i]
	s.mu.Lock()
	e = s.ev
	s.mu.Unlock()
	return e, e.Seq != 0
}

// Filter selects events. Zero values mean "any"; Limit > 0 keeps only the
// newest Limit matches.
type Filter struct {
	Trace ID
	Kind  Kind
	OID   int64
	QID   int64
	Actor string
	Limit int
}

func (f Filter) match(e *Event) bool {
	if f.Trace != 0 && e.Trace != f.Trace {
		return false
	}
	if f.Kind != 0 && e.Kind != f.Kind {
		return false
	}
	if f.OID != 0 && e.OID != f.OID {
		return false
	}
	if f.QID != 0 && e.QID != f.QID {
		return false
	}
	if f.Actor != "" && e.Actor != f.Actor {
		return false
	}
	return true
}

// Events returns the matching events currently in the ring, ascending by
// sequence number. The scan copies one slot at a time: events recorded
// concurrently may or may not appear, exactly like any live scrape.
func (r *Recorder) Events(f Filter) []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, 64)
	for i := range r.slots {
		if e, ok := r.load(i); ok && f.match(&e) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Causal reconstructs the causal timeline around an object and/or query:
// every event that mentions them, plus every event of every trace that
// mentions them — so the full chains (ingress → table → broadcast →
// result) appear, not just the links naming the filtered entity. Either
// argument may be 0 to match on the other alone; both 0 returns nil.
func (r *Recorder) Causal(oid, qid int64) []Event {
	if r == nil || (oid == 0 && qid == 0) {
		return nil
	}
	mentions := func(e *Event) bool {
		return (oid != 0 && e.OID == oid) || (qid != 0 && e.QID == qid)
	}
	// Pass 1: the trace IDs of every chain touching the entity.
	tids := make(map[ID]struct{})
	all := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if e, ok := r.load(i); ok {
			all = append(all, e)
			if e.Trace != 0 && mentions(&e) {
				tids[e.Trace] = struct{}{}
			}
		}
	}
	// Pass 2: whole chains plus untraced direct mentions.
	var out []Event
	for i := range all {
		e := &all[i]
		if _, chained := tids[e.Trace]; (e.Trace != 0 && chained) || mentions(e) {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Format writes events one per line.
func Format(w io.Writer, evs []Event) error {
	for _, e := range evs {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
