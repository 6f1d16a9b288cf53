package core

import (
	"io"

	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
)

// ServerAPI is the server-side surface of the MobiEyes protocol, implemented
// by the serial Server and by the router-over-nodes ClusterServer, whether
// its nodes are in-process or remote worker processes. Engines and transports program against this interface
// so the implementations are interchangeable; the router is additionally
// safe for concurrent use by multiple goroutines.
type ServerAPI interface {
	// Query lifecycle (§3.3).
	InstallQuery(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64) model.QueryID
	InstallQueryUntil(focal model.ObjectID, region model.Region, filter model.Filter, focalMaxVel float64, expiry model.Time) model.QueryID
	RemoveQuery(qid model.QueryID) bool
	ExpireQueries(now model.Time) []model.QueryID

	// Uplink dispatch (§3.4–3.6). HandleUplinkTraced is HandleUplink with
	// an inbound causal-trace ID (0 = start a fresh trace when tracing is
	// on); HandleUplink(m) is HandleUplinkTraced(m, 0).
	HandleUplink(m msg.Message)
	HandleUplinkTraced(m msg.Message, tid trace.ID)

	// SetTracer attaches a flight recorder for causal tracing (nil = off;
	// the default). See internal/obs/trace and DESIGN.md §11.
	SetTracer(rec *trace.Recorder)

	// SetAccountant attaches a cost accountant (nil = off; the default):
	// uplinks are attributed per node and per query/object, downlinks per
	// query/object at the broadcast/unicast funnels, and server work is
	// charged as computation units. See internal/obs/cost and DESIGN.md §12.
	SetAccountant(a *cost.Accountant)

	// Result access.
	Result(qid model.QueryID) []model.ObjectID
	ResultContains(qid model.QueryID, oid model.ObjectID) bool
	ResultSize(qid model.QueryID) int
	SetResultListener(fn func(ResultEvent))

	// Introspection.
	NumQueries() int
	QueryIDs() []model.QueryID
	Query(qid model.QueryID) (model.Query, bool)
	MonRegion(qid model.QueryID) (grid.CellRange, bool)
	NearbyQueries(cell grid.CellID) []model.QueryID
	Ops() int64
	Instrument(reg *obs.Registry)

	// Durability and diagnostics.
	Snapshot(w io.Writer) error
	CheckInvariants() error
}

var (
	_ ServerAPI = (*Server)(nil)
	_ ServerAPI = (*ClusterServer)(nil)
)
