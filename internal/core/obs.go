package core

import (
	"mobieyes/internal/grid"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/trace"
)

// Metric names of the server layer (scheme mobieyes_<layer>_<name>; see
// DESIGN.md §9). Under the router, per-node series carry node="N"
// (node="router" for work done outside any node).
const (
	metricOps            = "mobieyes_server_ops_total"
	metricUplinks        = "mobieyes_server_uplinks_total"
	metricBroadcasts     = "mobieyes_server_broadcasts_total"
	metricBroadcastCells = "mobieyes_server_broadcast_cells"
	metricMigrations     = "mobieyes_server_migrations_total"
	metricFOTSize        = "mobieyes_server_fot_size"
	metricSQTSize        = "mobieyes_server_sqt_size"
	metricRQIEntries     = "mobieyes_server_rqi_entries"
	metricPending        = "mobieyes_server_pending_installs"
	metricInflight       = "mobieyes_cluster_inflight_ops"

	helpOps            = "Elementary server-side operations (table updates, RQI touches, sends)."
	helpUplinks        = "Uplink messages dispatched."
	helpBroadcasts     = "Downlink broadcasts issued."
	helpBroadcastCells = "Grid cells addressed per downlink broadcast."
	helpMigrations     = "Cross-node focal handoffs."
	helpFOTSize        = "Focal object table rows."
	helpSQTSize        = "Server query table rows."
	helpRQIEntries     = "Total (cell, query) entries in the reverse query index."
	helpPending        = "Query installations awaiting the focal object's motion state."
	helpInflight       = "Uplinks currently inside the router's dispatch funnel (0 at quiescence)."
)

// serverObs is the optional instrumentation of one serial Server (standalone
// or as a router node). When nil — the default — the server is completely
// uninstrumented beyond its always-on ops and uplink counters, and the
// deterministic behavior is untouched either way: instrumentation only
// counts, it never alters protocol decisions or message contents.
type serverObs struct {
	broadcasts     *obs.Counter
	broadcastCells *obs.Histogram
	// Table-size gauges, published by syncTableGauges from the owning
	// goroutine (a standalone Server's entry points, a NodeServer's run).
	// The pending-installs gauge belongs to the query book
	// (queryBook.publish).
	fotSize    *obs.Gauge
	sqtSize    *obs.Gauge
	rqiEntries *obs.Gauge
}

// Instrument attaches the server's metrics to reg: the ops and uplink
// counters, broadcast fan-out, and FOT/SQT/RQI table-size gauges. Safe to
// call with a nil registry (no-op) and idempotent per registry.
//
// The table gauges are atomics the owning goroutine refreshes after every
// handled operation (install, remove, uplink dispatch), never scrape-time
// closures over the tables themselves — so a live /metrics endpoint can
// scrape at any moment without racing the single-goroutine server.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(metricOps, helpOps, s.ops)
	reg.RegisterCounter(metricUplinks, helpUplinks, s.upl)
	s.obsm = &serverObs{
		broadcasts:     reg.Counter(metricBroadcasts, helpBroadcasts),
		broadcastCells: reg.Histogram(metricBroadcastCells, helpBroadcastCells, obs.SizeBuckets),
		fotSize:        reg.Gauge(metricFOTSize, helpFOTSize),
		sqtSize:        reg.Gauge(metricSQTSize, helpSQTSize),
		rqiEntries:     reg.Gauge(metricRQIEntries, helpRQIEntries),
	}
	s.book.gauge = reg.Gauge(metricPending, helpPending)
	s.book.publish()
	s.syncTableGauges()
}

// syncTableGauges publishes the current table sizes into the atomic gauges.
// The owning goroutine calls it after every mutation entry point; all sizes
// are O(1) reads (RQI entries are tracked incrementally). No-op when the
// server is uninstrumented.
func (s *Server) syncTableGauges() {
	o := s.obsm
	if o == nil {
		return
	}
	o.fotSize.Set(float64(len(s.fot)))
	o.sqtSize.Set(float64(len(s.sqt)))
	o.rqiEntries.Set(float64(s.rqiCount))
}

// clearTableGauges zeroes the table gauges of a crashed node, whose rows
// no longer count anywhere. No-op when the server is uninstrumented.
func (s *Server) clearTableGauges() {
	if o := s.obsm; o != nil {
		o.fotSize.Set(0)
		o.sqtSize.Set(0)
		o.rqiEntries.Set(0)
	}
}

// broadcast sends m to region through the downlink, recording broadcast
// count and cell fan-out when instrumented. All server-side broadcasts go
// through here.
func (s *Server) broadcast(region grid.CellRange, m msg.Message) {
	if o := s.obsm; o != nil {
		o.broadcasts.Add(1)
		o.broadcastCells.Observe(float64(region.NumCells()))
	}
	if s.acct != nil {
		// Per-entity downlink attribution at protocol level: one logical
		// send per broadcast (station fan-out is the transport's ledger).
		oid, qid := TraceRef(m)
		sz := m.Size()
		if qid != 0 {
			s.acct.QueryDown(qid, sz, 1)
		}
		if oid != 0 {
			s.acct.ObjectDown(oid, sz, 1)
		}
	}
	if s.rec != nil {
		oid, qid := TraceRef(m)
		s.rec.Event(s.curTrace, trace.KindBroadcast, s.actor, oid, qid, m.Kind().String())
		if s.tdown != nil {
			s.tdown.BroadcastTraced(region, m, s.curTrace)
			return
		}
	}
	s.down.Broadcast(region, m)
}
