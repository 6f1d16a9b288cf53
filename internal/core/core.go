// Package core implements the MobiEyes distributed moving-query protocol —
// the primary contribution of Gedik & Liu (EDBT 2004). It contains the two
// state machines the paper describes:
//
//   - Server: the mediator. It maintains the focal object table (FOT), the
//     server-side query table (SQT) and the reverse query index (RQI),
//     handles query installation (§3.3), significant velocity-vector
//     changes (§3.4) and grid-cell crossings with eager or lazy query
//     propagation (§3.5), applies differential result updates (§3.6), and
//     optionally groups queries bound to the same focal object (§4.1).
//
//   - Client: the moving-object side. It maintains the local query table
//     (LQT) and the hasMQ flag, installs and removes queries delivered by
//     server broadcasts, runs dead reckoning when it is a focal object,
//     predicts focal positions to evaluate the queries in its LQT, applies
//     the safe-period optimization (§4.2), and reports containment changes
//     differentially — with query bitmaps when grouping is on.
//
// Both state machines are deterministic and transport-agnostic: the server
// talks through a Downlink and clients through an Uplink, so the same code
// runs under the deterministic simulation engine (internal/sim), the TCP
// deployment (internal/remote) and unit tests.
package core

import (
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// PropagationMode selects how non-focal objects learn about the queries of
// a grid cell they just entered (§3.5).
type PropagationMode int

const (
	// EagerPropagation: every object reports each cell crossing and the
	// server immediately ships it the nearby queries of its new cell.
	EagerPropagation PropagationMode = iota
	// LazyPropagation: non-focal objects stay silent on cell crossings and
	// pick up nearby queries from the next velocity-change broadcast, which
	// is expanded to carry full query state. Cheaper, but query results may
	// transiently miss objects (measured in Fig. 2).
	LazyPropagation
)

// String implements fmt.Stringer.
func (m PropagationMode) String() string {
	if m == LazyPropagation {
		return "LQP"
	}
	return "EQP"
}

// Options configure the protocol features shared by server and clients.
// The zero value is the paper's base algorithm: eager propagation, no
// safe-period skipping, no query grouping, dead-reckoning threshold 0
// (every velocity change is significant).
type Options struct {
	Mode PropagationMode
	// DeadReckoningThreshold is the paper's Δ: a focal object relays its
	// velocity vector when its true position deviates from the relayed
	// prediction by more than this many miles.
	DeadReckoningThreshold float64
	// SafePeriod enables the §4.2 optimization on clients: skip evaluating
	// a query until the worst-case earliest time the object could be
	// inside it.
	SafePeriod bool
	// Predictive replaces the safe period's worst-case bound with the
	// exact entry time of the current linear trajectories (an extension
	// beyond the paper): the object skips a query until the moment it can
	// first enter the region's enclosing circle, recomputed whenever
	// either party's velocity changes. Strictly tighter than SafePeriod;
	// when both are set, Predictive wins.
	Predictive bool
	// Grouping enables the §4.1 optimizations: the server merges per-focal
	// broadcasts with matching monitoring regions, and clients evaluate
	// groupable queries with one distance computation per focal object and
	// report grouped results as query bitmaps.
	Grouping bool
}

// Downlink is the server's transport: broadcasts reach every object under
// the base stations covering the region (the receiver decides relevance);
// unicasts reach one object.
//
// The server lends each message: m, and the slices it holds, are valid only
// for the duration of the Broadcast or Unicast call (and of the Traced forms
// of TracedDownlink). The state lists of QueryInstall and VelocityChange live
// in scratch the server overwrites on its next send. A downlink that encodes
// or sizes m during the call needs nothing more; one that keeps m past the
// call — to queue it for later delivery — keeps msg.Retain(m) instead.
type Downlink interface {
	Broadcast(region grid.CellRange, m msg.Message)
	Unicast(oid model.ObjectID, m msg.Message)
}

// Uplink is a client's transport to the server.
type Uplink interface {
	Send(m msg.Message)
}

// UplinkFunc adapts a function to the Uplink interface, for callers that
// want to intercept or log a client's traffic without a separate type.
type UplinkFunc func(msg.Message)

// Send implements Uplink.
func (f UplinkFunc) Send(m msg.Message) { f(m) }
