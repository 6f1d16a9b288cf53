// Package telemetry is the cluster telemetry plane: the push side of the
// observability stack for MobiEyes cluster mode (DESIGN.md §14).
//
// PR 2–5 built per-process, pull-only observability — metrics registries,
// the flight-recorder trace ring, the cost accountant. Cluster mode (PR 6)
// spread the system's behavior across worker processes, so a cross-node
// handoff's causal timeline lived split across two workers' rings and the
// router's /metrics scrape showed nothing about remote nodes. This package
// closes the gap with three pieces:
//
//   - A worker-side Collector that snapshots the worker's registry and
//     recorder into compact Batches — changed metric series (absolute
//     values, so a lost frame self-heals on the next ship) and the trace
//     events recorded since the last ship. A batch carries only what the
//     router cannot count for itself: uplinks per node, handoffs and cost
//     ledgers are the router's own. Batches ride the existing cluster wire
//     tier as msg.NodeTelemetry frames, streamed ahead of op replies and
//     heartbeat answers exactly like NodeDownlink frames, so merge order at
//     the router tracks causal order.
//
//   - A router-side Plane that re-exports worker metrics into the router's
//     obs.Registry under node="N" labels (one /metrics scrape covers the
//     whole cluster), merges worker trace batches into the router's ring
//     (trace IDs are minted at the router and ride the wire, so merged
//     chains stitch into one cross-node timeline), and records per-node
//     heartbeat state (span epoch and range, uplink RTT).
//
//   - A Watchdog evaluated on every telemetry round: the router+Σnodes ==
//     global cost identity, span coverage, epoch monotonicity and span
//     range agreement, heartbeat liveness deadlines, and per-node uplink
//     latency SLOs. Violations are
//     latched as structured Alerts, exposed via /debug/cluster (JSON +
//     text), the admin HEALTH command, and a /readyz that degrades from
//     "ok" to "degraded"/"failing".
//
// Like the rest of internal/obs, everything is dependency-free and
// nil-safe: a nil Collector or Plane costs one branch per call site.
package telemetry

import (
	"errors"
	"fmt"
	"math"

	"mobieyes/internal/obs"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/wire"
)

// batchVersion is the payload format version carried in every encoded
// Batch. The payload is opaque to the wire codec (msg.NodeTelemetry ships
// it as bytes), so this version can evolve independently of ProtoVersion.
// Version 2 dropped the cost-ledger section: no worker charges its global
// ledger, so the section only ever shipped zeros.
const batchVersion = 2

// Batch is one decoded telemetry payload: the worker's changed metric
// series and the trace events recorded since the previous batch.
type Batch struct {
	Metrics []obs.SeriesPoint
	Events  []trace.Event
}

// ---------------------------------------------------------------------------
// Payload codec: wire.Writer/wire.Reader primitives, strings as a u16
// length and the bytes, counts as u16 bounded by the payload size. The
// payload travels inside a msg.NodeTelemetry frame whose outer codec
// already enforces framing; this codec enforces internal shape.

func writeStr(w *wire.Writer, s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.U16(uint16(len(s)))
	w.Raw([]byte(s))
}

func readStr(r *wire.Reader) string { return string(r.Raw(int(r.U16()))) }

// EncodeBatch serializes a batch. An empty batch (no metrics or events)
// encodes to nil — callers must not ship it (the wire codec rejects
// empty telemetry payloads as non-canonical).
func EncodeBatch(b *Batch) []byte {
	if b == nil || (len(b.Metrics) == 0 && len(b.Events) == 0) {
		return nil
	}
	w := wire.NewWriter(make([]byte, 0, 256))
	w.U8(batchVersion)
	w.U16(uint16(len(b.Metrics)))
	for _, p := range b.Metrics {
		w.Bool(p.Counter)
		writeStr(&w, p.Name)
		writeStr(&w, p.Help)
		w.U8(uint8(len(p.Labels)))
		for _, l := range p.Labels {
			writeStr(&w, l)
		}
		w.F64(p.Value)
	}
	w.U16(uint16(len(b.Events)))
	for _, ev := range b.Events {
		w.U64(uint64(ev.Trace))
		w.U64(uint64(ev.Nanos))
		w.U8(uint8(ev.Kind))
		writeStr(&w, ev.Actor)
		w.U64(uint64(ev.OID))
		w.U64(uint64(ev.QID))
		writeStr(&w, ev.Note)
	}
	return w.Bytes()
}

// DecodeBatch parses a telemetry payload. It never panics on hostile input:
// every count is bounded against the payload size before allocation.
func DecodeBatch(p []byte) (*Batch, error) {
	d := wire.NewReader(p)
	if v := d.U8(); d.Err() == nil && v != batchVersion {
		return nil, fmt.Errorf("telemetry: batch version %d, want %d", v, batchVersion)
	}
	var b Batch
	nm := int(d.U16())
	if nm > len(p) { // each metric entry is ≥ 1 byte
		return nil, errors.New("telemetry: metric count exceeds payload")
	}
	for i := 0; i < nm && d.Err() == nil; i++ {
		var sp obs.SeriesPoint
		sp.Counter = d.U8() == 1
		sp.Name = readStr(&d)
		sp.Help = readStr(&d)
		nl := int(d.U8())
		if nl%2 != 0 {
			return nil, errors.New("telemetry: odd label count")
		}
		for j := 0; j < nl && d.Err() == nil; j++ {
			sp.Labels = append(sp.Labels, readStr(&d))
		}
		sp.Value = d.F64()
		b.Metrics = append(b.Metrics, sp)
	}
	ne := int(d.U16())
	if ne > len(p) {
		return nil, errors.New("telemetry: event count exceeds payload")
	}
	for i := 0; i < ne && d.Err() == nil; i++ {
		ev := trace.Event{
			Trace: trace.ID(d.U64()),
			Nanos: int64(d.U64()),
			Kind:  trace.Kind(d.U8()),
			Actor: readStr(&d),
			OID:   int64(d.U64()),
			QID:   int64(d.U64()),
			Note:  readStr(&d),
		}
		b.Events = append(b.Events, ev)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &b, nil
}
