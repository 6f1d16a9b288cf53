package telemetry

import (
	"sync"

	"mobieyes/internal/obs"
	"mobieyes/internal/obs/trace"
)

// shipEvery is the default op interval between periodic ships: a worker
// that applied this many table ops since its last batch ships on the next
// reply, even without an edge. Heartbeats always ship.
const shipEvery = 64

// maxEventsPerBatch bounds one batch's trace section; a burst beyond it
// ships across consecutive batches (the collector keeps its watermark).
const maxEventsPerBatch = 256

// A Collector is the worker-side half of the telemetry plane: it watches
// the worker's registry and flight recorder and emits delta
// Batches when due. All methods are safe for concurrent use and no-ops on a
// nil receiver, so the worker's serve loop threads it unconditionally.
//
// Delta semantics: metric series ship with absolute values but only when
// changed since the last ship. Trace events ship
// exactly once each, watermarked by the recorder's sequence numbers (events
// overwritten in the ring before a ship are lost, like any flight-recorder
// history). A lost batch therefore under-reports traces but self-heals
// metrics on the next ship.
type Collector struct {
	reg *obs.Registry
	rec *trace.Recorder

	mu     sync.Mutex
	seq    uint64 // last shipped batch sequence
	ops    uint64 // table ops since last ship
	edge   bool   // handoff/assign edge since last ship
	last   map[string]float64
	evMark uint64 // recorder sequence watermark
}

// NewCollector returns a collector over the worker's registry and flight
// recorder; either may be nil. Returns nil (a no-op collector) when both
// are nil — there would be nothing to ship.
func NewCollector(reg *obs.Registry, rec *trace.Recorder) *Collector {
	if reg == nil && rec == nil {
		return nil
	}
	return &Collector{reg: reg, rec: rec, last: make(map[string]float64)}
}

// NoteOp records one applied table op; every shipEvery ops make the next
// Collect(false) due.
func (c *Collector) NoteOp() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ops++
	c.mu.Unlock()
}

// MarkEdge makes the next Collect(false) due regardless of op count — the
// hook for handoff and span-reassignment edges, whose state changes the
// router's watchdog wants promptly.
func (c *Collector) MarkEdge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.edge = true
	c.mu.Unlock()
}

// Collect assembles the next batch if one is due (force makes it due, as on
// a heartbeat). It returns the batch sequence number and the encoded
// payload, or (0, nil) when nothing is due or nothing changed. The
// sequence increases by one per non-empty batch.
func (c *Collector) Collect(force bool) (uint64, []byte) {
	if c == nil {
		return 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !force && !c.edge && c.ops < shipEvery {
		return 0, nil
	}

	var b Batch
	// Changed metric series, absolute values.
	for _, p := range c.reg.Export() {
		k := p.Key()
		if v, ok := c.last[k]; ok && v == p.Value {
			continue
		}
		c.last[k] = p.Value
		b.Metrics = append(b.Metrics, p)
	}
	// Trace events past the watermark, oldest first, bounded per batch.
	if c.rec != nil {
		evs := c.rec.Events(trace.Filter{})
		for _, ev := range evs {
			if ev.Seq <= c.evMark {
				continue
			}
			c.evMark = ev.Seq
			b.Events = append(b.Events, ev)
			if len(b.Events) >= maxEventsPerBatch {
				break
			}
		}
	}

	payload := EncodeBatch(&b)
	c.ops, c.edge = 0, false
	if payload == nil {
		return 0, nil
	}
	c.seq++
	return c.seq, payload
}
