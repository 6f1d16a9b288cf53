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
//   - A worker-side Collector that snapshots the worker's registry,
//     accountant and recorder into compact Batches — changed metric series
//     (absolute values, so a lost frame self-heals on the next ship),
//     changed cost-ledger entries, and the trace events recorded since the
//     last ship. Batches ride the existing cluster wire tier as
//     msg.NodeTelemetry frames, streamed ahead of op replies and heartbeat
//     answers exactly like NodeDownlink frames, so merge order at the
//     router tracks causal order.
//
//   - A router-side Plane that re-exports worker metrics into the router's
//     obs.Registry under node="N" labels (one /metrics scrape covers the
//     whole cluster), merges worker trace batches into the router's ring
//     (trace IDs are minted at the router and ride the wire, so merged
//     chains stitch into one cross-node timeline), and records per-node
//     heartbeat state (span epoch, span digest, uplink RTT).
//
//   - A Watchdog evaluated on every telemetry round: the router+Σnodes ==
//     global cost identity, span coverage and epoch monotonicity, heartbeat
//     liveness deadlines, and per-node uplink latency SLOs. Violations are
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

	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/wire"
)

// batchVersion is the payload format version carried in every encoded
// Batch. The payload is opaque to the wire codec (msg.NodeTelemetry ships
// it as bytes), so this version can evolve independently of ProtoVersion.
const batchVersion = 1

// Cost-entry axes: which counter array of the ledger an entry addresses.
const (
	axisUpMsgs uint8 = iota
	axisUpBytes
	axisDownMsgs
	axisDownBytes
	axisCompute
)

// CostEntry is one changed cost-ledger counter: an axis (uplink/downlink
// msgs/bytes or compute), the index within it (msg.Kind or cost.Unit), and
// the absolute cumulative value. Shipping absolutes keeps the stream
// self-healing: a dropped batch is corrected by the next one.
type CostEntry struct {
	Axis  uint8
	Index uint8
	Value int64
}

// Batch is one decoded telemetry payload: the worker's changed metric
// series, changed cost-ledger entries, and the trace events recorded since
// the previous batch.
type Batch struct {
	Metrics []obs.SeriesPoint
	Costs   []CostEntry
	Events  []trace.Event
}

// SpanDigest hashes a span assignment (epoch, lo, hi) with FNV-1a. Workers
// report it in NodeStatus so the router's watchdog can verify span
// agreement without a table op.
func SpanDigest(epoch uint64, lo, hi uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range [3]uint64{epoch, uint64(lo), uint64(hi)} {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xFF
			h *= prime64
		}
	}
	return h
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

// EncodeBatch serializes a batch. An empty batch (no metrics, costs or
// events) encodes to nil — callers must not ship it (the wire codec rejects
// empty telemetry payloads as non-canonical).
func EncodeBatch(b *Batch) []byte {
	if b == nil || (len(b.Metrics) == 0 && len(b.Costs) == 0 && len(b.Events) == 0) {
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
	w.U16(uint16(len(b.Costs)))
	for _, c := range b.Costs {
		w.U8(c.Axis)
		w.U8(c.Index)
		w.U64(uint64(c.Value))
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
	nc := int(d.U16())
	if nc > len(p) {
		return nil, errors.New("telemetry: cost count exceeds payload")
	}
	for i := 0; i < nc && d.Err() == nil; i++ {
		c := CostEntry{Axis: d.U8(), Index: d.U8(), Value: int64(d.U64())}
		if d.Err() == nil && c.Axis > axisCompute {
			return nil, fmt.Errorf("telemetry: unknown cost axis %d", c.Axis)
		}
		b.Costs = append(b.Costs, c)
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

// costEntries returns the entries of cur that differ from prev, as absolute
// values.
func costEntries(prev, cur cost.LedgerSnap) []CostEntry {
	var out []CostEntry
	for k := 0; k < msg.NumKinds; k++ {
		if cur.UpMsgs[k] != prev.UpMsgs[k] {
			out = append(out, CostEntry{axisUpMsgs, uint8(k), cur.UpMsgs[k]})
		}
		if cur.UpBytes[k] != prev.UpBytes[k] {
			out = append(out, CostEntry{axisUpBytes, uint8(k), cur.UpBytes[k]})
		}
		if cur.DownMsgs[k] != prev.DownMsgs[k] {
			out = append(out, CostEntry{axisDownMsgs, uint8(k), cur.DownMsgs[k]})
		}
		if cur.DownBytes[k] != prev.DownBytes[k] {
			out = append(out, CostEntry{axisDownBytes, uint8(k), cur.DownBytes[k]})
		}
	}
	for u := 0; u < cost.NumUnits; u++ {
		if cur.Compute[u] != prev.Compute[u] {
			out = append(out, CostEntry{axisCompute, uint8(u), cur.Compute[u]})
		}
	}
	return out
}

// applyCostEntries folds entries into a ledger snapshot, ignoring
// out-of-range indices (a newer worker may know more kinds than we do).
func applyCostEntries(snap *cost.LedgerSnap, entries []CostEntry) {
	for _, c := range entries {
		i := int(c.Index)
		switch c.Axis {
		case axisUpMsgs:
			if i < msg.NumKinds {
				snap.UpMsgs[i] = c.Value
			}
		case axisUpBytes:
			if i < msg.NumKinds {
				snap.UpBytes[i] = c.Value
			}
		case axisDownMsgs:
			if i < msg.NumKinds {
				snap.DownMsgs[i] = c.Value
			}
		case axisDownBytes:
			if i < msg.NumKinds {
				snap.DownBytes[i] = c.Value
			}
		case axisCompute:
			if i < cost.NumUnits {
				snap.Compute[i] = c.Value
			}
		}
	}
}
