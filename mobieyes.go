// Package mobieyes is a from-scratch Go implementation of MobiEyes —
// distributed processing of continuously moving queries on moving objects —
// as described by Buğra Gedik and Ling Liu (EDBT 2004), together with the
// centralized baselines the paper evaluates against and a simulation and
// benchmarking harness that regenerates every figure of the paper's
// evaluation.
//
// A moving query (MQ) is a spatial region (a circle) bound to a moving
// focal object plus a boolean filter; its result — the set of moving
// objects inside the region that satisfy the filter — is maintained
// continuously as everything moves. MobiEyes pushes most of that
// maintenance to the moving objects themselves: the server only mediates
// significant velocity-vector changes and grid-cell crossings, broadcasting
// them to the objects inside each query's monitoring region; each object
// locally predicts the focal object's position and reports only changes in
// its own containment status.
//
// # Layering
//
//   - Simulation and experiments: DefaultConfig, Run, Config, Metrics —
//     the deterministic engine behind the paper's figures. A scripted
//     scenario (explicit objects, queries and velocity changes) runs on the
//     same engine: sim.NewEngineOver over a workload.FromTrace workload.
//   - Concurrent deployment: internal/remote — a TCP server and device
//     client exchanging the protocol's messages over the network
//     (cmd/mobieyes-server, cmd/mobieyes-object).
//   - Protocol internals: internal/core (server and client state
//     machines), internal/grid, internal/network, internal/rtree, etc.
//
// # Quick start
//
//	cfg := mobieyes.DefaultConfig()
//	cfg.NumObjects = 1000
//	cfg.NumQueries = 100
//	m := mobieyes.Run(cfg)
//	fmt.Printf("%.1f messages/s, server %v per step\n",
//	    m.MessagesPerSecond(), m.ServerLoadPerStep())
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// paper-versus-measured record.
package mobieyes

import (
	"mobieyes/internal/core"
	"mobieyes/internal/model"
	"mobieyes/internal/sim"
)

// Config configures one simulation run (Table 1 parameters plus protocol
// options). See sim.Config for field documentation.
type Config = sim.Config

// Metrics is the measurement record of one run.
type Metrics = sim.Metrics

// Approach selects the system under test.
type Approach = sim.Approach

// Approaches.
const (
	MobiEyes       = sim.MobiEyes
	Naive          = sim.Naive
	CentralOptimal = sim.CentralOptimal
	ObjectIndex    = sim.ObjectIndex
	QueryIndex     = sim.QueryIndex
)

// Options configures the MobiEyes protocol variant.
type Options = core.Options

// PropagationMode selects eager or lazy query propagation.
type PropagationMode = core.PropagationMode

// Propagation modes.
const (
	EagerPropagation = core.EagerPropagation
	LazyPropagation  = core.LazyPropagation
)

// Region is the shape of a moving query's spatial region; CircleRegion and
// RectRegion are the provided shapes (§2.3 allows any closed shape with a
// cheap containment check).
type Region = model.Region

// CircleRegion is a circular query region of radius R.
type CircleRegion = model.CircleRegion

// RectRegion is an axis-aligned rectangular query region bound at its
// center.
type RectRegion = model.RectRegion

// PolygonRegion is a simple polygon query region with vertices relative to
// the focal object.
type PolygonRegion = model.PolygonRegion

// Filter is a boolean predicate over object properties with configurable
// selectivity.
type Filter = model.Filter

// ResultEvent is a differential change to a query's result set, delivered
// to the listener a server's SetResultListener installs — the simulated
// server's (sim.Engine.Server) or the TCP deployment's (remote.Server).
type ResultEvent = core.ResultEvent

// DefaultConfig returns the paper's Table 1 defaults.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Run executes one simulation and returns its metrics.
func Run(cfg Config) Metrics { return sim.Run(cfg) }
