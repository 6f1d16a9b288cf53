// Package sim is the simulation engine behind every experiment in the
// paper's evaluation (§5): a deterministic, time-stepped driver that runs
// either the distributed MobiEyes protocol (internal/core) or one of the
// centralized baselines (internal/centralized) over the Table 1 workload,
// while metering messages and bytes on the wireless medium, wall-clock
// server load, per-object communication energy, LQT sizes, query-evaluation
// counts, and result error against a brute-force ground truth.
package sim

import (
	"fmt"
	"math"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/history"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/stream"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/power"
	"mobieyes/internal/workload"
)

// Approach selects the system under test.
type Approach int

const (
	// MobiEyes is the paper's distributed protocol; core.Options selects
	// EQP/LQP and the optimizations.
	MobiEyes Approach = iota
	// Naive is the §5.3 baseline where every object reports its position
	// each step.
	Naive
	// CentralOptimal is the §5.3 baseline where every object reports
	// significant velocity-vector changes.
	CentralOptimal
	// ObjectIndex is the §5.2 centralized processor indexing objects.
	ObjectIndex
	// QueryIndex is the §5.2 centralized processor indexing queries.
	QueryIndex
)

var approachNames = [...]string{"MobiEyes", "Naive", "CentralOptimal", "ObjectIndex", "QueryIndex"}

// String implements fmt.Stringer.
func (a Approach) String() string {
	if a < 0 || int(a) >= len(approachNames) {
		return "UnknownApproach"
	}
	return approachNames[a]
}

// Config configures one simulation run. DefaultConfig returns Table 1.
type Config struct {
	Approach Approach

	// AreaSqMiles is the area of the (square) universe of discourse.
	AreaSqMiles float64
	// Alpha is the grid cell side length α in miles.
	Alpha float64
	// Alen is the base station lattice spacing in miles.
	Alen float64
	// StepSeconds is the time step ts.
	StepSeconds float64

	// Steps is the number of measured steps; Warmup steps run first and
	// are excluded from all metrics.
	Steps  int
	Warmup int

	// Workload overrides; UoD is derived from AreaSqMiles.
	NumObjects             int
	NumQueries             int
	VelocityChangesPerStep int
	RadiusFactor           float64
	Seed                   int64
	// Mobility selects the movement process (default: the paper's random
	// walk with nmo per-step velocity changes).
	Mobility workload.MobilityModel

	// Core configures the MobiEyes protocol variant (ignored by baselines).
	Core core.Options

	// Radio is the communication energy model.
	Radio power.Model

	// MeasureError compares the system's query results against brute-force
	// ground truth every step (needed for Fig. 2; costs extra time).
	MeasureError bool

	// Parallelism runs the per-object protocol phases (cell-change
	// detection, dead reckoning, query evaluation) across this many worker
	// goroutines. Results are bit-for-bit identical to the serial engine:
	// uplink messages are buffered per object and merged in object order
	// before the (serial) server processes them. 0 or 1 = serial.
	// Wall-clock server-load and client-load measurements remain
	// meaningful only in serial mode.
	Parallelism int

	// Metrics, when non-nil, instruments the engine and its server against
	// this registry: per-step engine latency, drain batch sizes, and all
	// server-layer metrics (see internal/obs and DESIGN.md §9). Metrics are
	// measurement only — the simulation's behavior and determinism are
	// unchanged. Nil (the default) disables instrumentation entirely.
	Metrics *obs.Registry

	// Trace, when non-nil, attaches a causal flight recorder to the server
	// and threads trace IDs through the simulated transport: a client's
	// response to a downlink continues the trace of the uplink that caused
	// it (see internal/obs/trace and DESIGN.md §11). Like Metrics, tracing
	// is measurement only — behavior and determinism are unchanged.
	Trace *trace.Recorder

	// Costs, when non-nil, attaches a cost accountant to the whole system:
	// the engine charges every message at the simulated transport (global
	// ledger plus per-cell and per-base-station tallies), the server
	// attributes uplinks per node and traffic per query/object, and
	// clients charge their computation units (see internal/obs/cost and
	// DESIGN.md §12). The engine calls Configure on it and resets it at the
	// same quiescent points as the message meter (after installation and
	// after warmup), so ledgers describe measured steady-state traffic.
	// Like Metrics, accounting is measurement only. MobiEyes only: a
	// baseline never attaches it, so Validate rejects it there.
	Costs *cost.Accountant

	// MeasureQuality compares query results against brute-force ground
	// truth every measured step and feeds Costs with answer-quality
	// samples: per-step precision/recall and a staleness histogram counting
	// how many steps each wrong (qid, oid) pair stayed wrong. Requires
	// Costs, so MobiEyes only; costs extra time like MeasureError.
	MeasureQuality bool

	// Stream, when non-nil, attaches a live result tap to the engine: every
	// differential enter/leave the server emits is published with a
	// monotone per-query sequence number, and subscribers get a
	// snapshot-then-delta view (see internal/obs/stream and DESIGN.md §17).
	// The tap owns the server's single result-listener slot; subscribe to
	// the tap instead of calling SetResultListener on the engine's server.
	// Measurement only — behavior and determinism are unchanged.
	Stream *stream.Tap

	// ResultLog, when non-nil, records the run into an append-only history
	// log (internal/history): query lifecycle marks, per-step object
	// position samples, and every sequenced result transition, all stamped
	// with simulation time so a replay is deterministic. If Stream is nil a
	// private tap supplies the sequence numbers. Charged to Costs' egress
	// meter at the encode boundary when Costs is set. (Not to be confused
	// with Engine.History, the per-step metrics time series.)
	ResultLog *history.Store
}

// DefaultConfig returns the Table 1 defaults: 100,000 mi² area, α = 5 mi,
// alen = 10 mi, ts = 30 s, 10,000 objects, 1,000 queries, 1,000 velocity
// changes per step.
func DefaultConfig() Config {
	return Config{
		Approach:               MobiEyes,
		AreaSqMiles:            100000,
		Alpha:                  5,
		Alen:                   10,
		StepSeconds:            30,
		Steps:                  20,
		Warmup:                 5,
		NumObjects:             10000,
		NumQueries:             1000,
		VelocityChangesPerStep: 1000,
		RadiusFactor:           1,
		Seed:                   1,
		Radio:                  power.DefaultGPRS(),
		// A small positive dead-reckoning threshold (≈16 m) filters the
		// floating-point drift between stepwise motion and closed-form
		// extrapolation; with Δ = 0 every object would "deviate" by a few
		// ulps each step and relay spuriously. Exactness tests use Δ = 0.
		Core: core.Options{DeadReckoningThreshold: 0.01},
	}
}

// Validate reports the first configuration error, or nil. The constructors
// panic on the same conditions (they are programmer errors); Validate lets
// callers that assemble configurations from external input fail gracefully.
func (c Config) Validate() error {
	switch {
	case c.AreaSqMiles <= 0:
		return fmt.Errorf("sim: AreaSqMiles must be positive, got %v", c.AreaSqMiles)
	case c.Alpha <= 0:
		return fmt.Errorf("sim: Alpha must be positive, got %v", c.Alpha)
	case c.Alen <= 0:
		return fmt.Errorf("sim: Alen must be positive, got %v", c.Alen)
	case c.StepSeconds <= 0:
		return fmt.Errorf("sim: StepSeconds must be positive, got %v", c.StepSeconds)
	case c.NumObjects <= 0:
		return fmt.Errorf("sim: NumObjects must be positive, got %d", c.NumObjects)
	case c.NumQueries < 0:
		return fmt.Errorf("sim: NumQueries must be non-negative, got %d", c.NumQueries)
	case c.VelocityChangesPerStep < 0:
		return fmt.Errorf("sim: VelocityChangesPerStep must be non-negative, got %d", c.VelocityChangesPerStep)
	case c.Steps < 0 || c.Warmup < 0:
		return fmt.Errorf("sim: Steps and Warmup must be non-negative, got %d/%d", c.Steps, c.Warmup)
	case c.Core.DeadReckoningThreshold < 0:
		return fmt.Errorf("sim: DeadReckoningThreshold must be non-negative, got %v", c.Core.DeadReckoningThreshold)
	case c.MeasureQuality && c.Costs == nil:
		return fmt.Errorf("sim: MeasureQuality requires a Costs accountant")
	case c.Approach != MobiEyes && (c.Costs != nil || c.MeasureQuality):
		return fmt.Errorf("sim: Costs and MeasureQuality need the MobiEyes approach, got %v", c.Approach)
	}
	return nil
}

// UoD returns the square universe of discourse for the configured area.
func (c Config) UoD() geo.Rect {
	side := math.Sqrt(c.AreaSqMiles)
	return geo.NewRect(0, 0, side, side)
}

// WorkloadConfig materializes the workload generator configuration.
func (c Config) WorkloadConfig() workload.Config {
	w := workload.Default(c.UoD())
	w.NumObjects = c.NumObjects
	w.NumQueries = c.NumQueries
	w.VelocityChangesPerStep = c.VelocityChangesPerStep
	w.RadiusFactor = c.RadiusFactor
	w.Seed = c.Seed
	w.Mobility = c.Mobility
	w.StepSeconds = c.StepSeconds
	return w
}
