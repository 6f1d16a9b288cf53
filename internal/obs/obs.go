// Package obs is the runtime observability layer: a dependency-free metrics
// toolkit — atomic counters, gauges, and fixed-bucket latency histograms with
// quantile estimation — behind a concurrent Registry, exposed over HTTP in
// Prometheus text-exposition format and /debug/vars-style JSON (see http.go).
//
// Design constraints, in order:
//
//  1. Nil safety. Every method works on a nil receiver: a nil *Registry
//     hands out nil metrics, and Add/Set/Observe on a nil metric are no-ops.
//     Instrumented code therefore needs no "is observability on?" branches,
//     and the serial deterministic simulation path pays nothing when no
//     registry is configured.
//  2. Hot-path cost. An enabled Counter.Add is one atomic add; an enabled
//     Histogram.Observe is two atomic adds, a short linear bucket scan, and
//     one CAS for the running sum — low tens of nanoseconds together (see
//     bench_test.go; numbers in EXPERIMENTS.md). Name lookups happen once at
//     registration, never per operation.
//  3. No dependencies. Everything is stdlib; the exposition format is
//     compatible with a real Prometheus scraper without importing one.
//
// Metric naming follows mobieyes_<layer>_<name>: layer is the package that
// owns the signal (server, remote, sim, go for runtime internals), and
// counters end in _total per Prometheus convention. Per-node series carry a
// node="N" label; per-message-kind series carry kind="VelocityReport" etc.
package obs

import (
	"math"
	"sync/atomic"
)

// A Counter is a monotonically increasing integer metric. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a standalone counter, not attached to any registry.
// Use Registry.RegisterCounter to expose it later — this is how code keeps
// counting cheaply whether or not observability is configured.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is a float64 metric that can go up and down. The zero value is
// ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta to the gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		niu := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, niu) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
