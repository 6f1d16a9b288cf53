package load

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mobieyes/internal/core"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/trace"
)

// Target abstracts the backend under load. The in-process targets wrap a
// core.ServerAPI directly; the tcp target drives a real internal/remote
// server over loopback connections.
type Target interface {
	// Name identifies the backend in reports ("serial", "sharded", ...).
	Name() string
	// API exposes the underlying server for query installation and
	// invariant checks; nil when the backend is only reachable over the
	// wire (the tcp target installs through the remote server instead).
	API() core.ServerAPI
	// Install installs a range query on the given focal object.
	Install(focal model.ObjectID, radius, maxVel float64) model.QueryID
	// Do issues one uplink and returns when the backend has fully
	// processed it (for in-process targets the dispatch call itself; for
	// tcp, a pipelined Ping echo that the server only answers after the
	// preceding frame was dispatched).
	Do(worker int, m msg.Message) error
	// Quiesce blocks until all in-flight work has drained.
	Quiesce() error
	// Depth samples the backend's instantaneous internal queue depth
	// (the router's in-flight ops); 0 where the backend has no internal
	// queues.
	Depth() int64
	// Delivered counts downlink messages the backend emitted so far.
	Delivered() int64
	// Close releases the target's resources.
	Close() error
}

// sink is the downlink endpoint of the in-process targets: it counts
// deliveries and — when a delivery belongs to a trace — records the
// KindDeliver event that terminates the pipeline-stage decomposition.
type sink struct {
	rec       *trace.Recorder
	delivered atomic.Int64
}

func (s *sink) record(m msg.Message, tid trace.ID) {
	s.delivered.Add(1)
	if s.rec != nil && tid != 0 {
		oid, qid := core.TraceRef(m)
		s.rec.Event(tid, trace.KindDeliver, "loadgen", oid, qid, m.Kind().String())
	}
}

func (s *sink) Broadcast(region grid.CellRange, m msg.Message) { s.record(m, 0) }
func (s *sink) Unicast(oid model.ObjectID, m msg.Message)      { s.record(m, 0) }
func (s *sink) BroadcastTraced(region grid.CellRange, m msg.Message, tid trace.ID) {
	s.record(m, tid)
}
func (s *sink) UnicastTraced(oid model.ObjectID, m msg.Message, tid trace.ID) {
	s.record(m, tid)
}

var _ core.TracedDownlink = (*sink)(nil)

// serialTarget wraps the single-threaded core.Server behind a mutex. The
// serialization point is exactly what the open-loop harness should see:
// time spent queued on the lock is charged to the op's scheduled arrival.
type serialTarget struct {
	mu   sync.Mutex
	srv  *core.Server
	sink *sink
}

func (t *serialTarget) Name() string        { return "serial" }
func (t *serialTarget) API() core.ServerAPI { return t.srv }
func (t *serialTarget) Install(focal model.ObjectID, radius, maxVel float64) model.QueryID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.srv.InstallQuery(focal, model.CircleRegion{R: radius}, model.Filter{}, maxVel)
}
func (t *serialTarget) Do(worker int, m msg.Message) error {
	t.mu.Lock()
	t.srv.HandleUplinkTraced(m, 0)
	t.mu.Unlock()
	return nil
}
func (t *serialTarget) Quiesce() error   { return nil }
func (t *serialTarget) Depth() int64     { return 0 }
func (t *serialTarget) Delivered() int64 { return t.sink.delivered.Load() }
func (t *serialTarget) Close() error     { return nil }

// apiTarget wraps the concurrency-safe router, over fate-sharing shards
// ("sharded") or journaled in-process worker nodes ("cluster").
type apiTarget struct {
	name string
	srv  *core.ClusterServer
	sink *sink
}

func (t *apiTarget) Name() string        { return t.name }
func (t *apiTarget) API() core.ServerAPI { return t.srv }
func (t *apiTarget) Install(focal model.ObjectID, radius, maxVel float64) model.QueryID {
	return t.srv.InstallQuery(focal, model.CircleRegion{R: radius}, model.Filter{}, maxVel)
}
func (t *apiTarget) Do(worker int, m msg.Message) error {
	t.srv.HandleUplinkTraced(m, 0)
	return nil
}
func (t *apiTarget) Quiesce() error   { return nil }
func (t *apiTarget) Depth() int64     { return t.srv.InflightOps() }
func (t *apiTarget) Delivered() int64 { return t.sink.delivered.Load() }
func (t *apiTarget) Close() error     { return nil }

// newTarget builds the backend named by cfg.Backend. rec (nil = untraced)
// is attached as the backend's flight recorder; reg receives the backend's
// metrics (including the queue-depth gauges).
func newTarget(cfg Config, w *Workload, rec *trace.Recorder, reg *obs.Registry) (Target, error) {
	opts := core.Options{}
	switch cfg.Backend {
	case "serial", "":
		sk := &sink{rec: rec}
		srv := core.NewServer(w.G, opts, sk)
		srv.SetTracer(rec)
		srv.Instrument(reg)
		return &serialTarget{srv: srv, sink: sk}, nil
	case "sharded", "cluster":
		sk := &sink{rec: rec}
		newRouter, n := core.NewShardedServer, cfg.Shards
		if cfg.Backend == "cluster" {
			newRouter, n = core.NewClusterServer, cfg.Nodes
		}
		srv := newRouter(w.G, opts, sk, n)
		srv.SetTracer(rec)
		srv.Instrument(reg)
		return &apiTarget{name: cfg.Backend, srv: srv, sink: sk}, nil
	case "tcp":
		return newTCPTarget(cfg, w, rec, reg)
	default:
		return nil, fmt.Errorf("load: unknown backend %q (serial|sharded|cluster|tcp)", cfg.Backend)
	}
}
