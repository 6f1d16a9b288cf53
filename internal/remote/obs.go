package remote

import (
	"io"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
)

// Metric names of the transport layer (scheme mobieyes_<layer>_<name>; see
// DESIGN.md §9). Frame and byte counters include the 4-byte length prefix of
// every frame; latency histograms carry kind="VelocityReport" etc.
const (
	metricConnections     = "mobieyes_remote_connections"
	metricConnects        = "mobieyes_remote_connects_total"
	metricFramesIn        = "mobieyes_remote_frames_in_total"
	metricFramesOut       = "mobieyes_remote_frames_out_total"
	metricBytesIn         = "mobieyes_remote_bytes_in_total"
	metricBytesOut        = "mobieyes_remote_bytes_out_total"
	metricDecodeErrors    = "mobieyes_remote_decode_errors_total"
	metricVersionRejects  = "mobieyes_remote_version_rejects_total"
	metricRejectedFrames  = "mobieyes_remote_rejected_frames_total"
	metricDispatchSeconds = "mobieyes_remote_uplink_seconds"
	metricBroadcastConns  = "mobieyes_remote_broadcast_fanout"
	metricPendingUni      = "mobieyes_remote_pending_unicasts"
	metricDroppedUni      = "mobieyes_remote_dropped_unicasts_total"

	helpConnections     = "Currently connected moving objects."
	helpConnects        = "Completed object handshakes (including reconnects)."
	helpFramesIn        = "Frames received from objects (handshakes included)."
	helpFramesOut       = "Frames written to objects."
	helpBytesIn         = "Bytes received from objects, length prefixes included."
	helpBytesOut        = "Bytes written to objects, length prefixes included."
	helpDecodeErrors    = "Received frames that failed protocol decoding."
	helpVersionRejects  = "Handshakes refused for a mismatched protocol version."
	helpRejectedFrames  = "Decoded frames refused before dispatch, by reason: kind (not an uplink kind) or cell (a cell change off the grid)."
	helpDispatchSeconds = "Uplink dispatch latency into the backend, in seconds."
	helpBroadcastConns  = "Connections addressed per downlink broadcast."
	helpPendingUni      = "FocalNotify frames parked for objects that are not connected (at most one each)."
	helpDroppedUni      = "Unicasts dropped because their object was not connected, by kind; a parked FocalNotify replaced by a newer one counts here too."
)

// remoteObs holds the transport-layer metrics of one Server. The remote
// server always carries a registry (its own if the config supplies none), so
// unlike core's serverObs this is never nil on a running server.
type remoteObs struct {
	connects       *obs.Counter
	framesIn       *obs.Counter
	framesOut      *obs.Counter
	bytesIn        *obs.Counter
	bytesOut       *obs.Counter
	decodeErrors   *obs.Counter
	versionRejects *obs.Counter
	// rejected counts refused frames by reject reason (index 0, admitted,
	// is unused).
	rejected [numRejectReasons]*obs.Counter
	// uplinkLat is indexed by message kind; only uplink kinds are populated
	// (downlink kinds never arrive on the uplink path).
	uplinkLat       [msg.NumKinds]*obs.Histogram
	broadcastFanout *obs.Histogram
	// droppedUni counts unicasts dropped for absent objects, indexed by
	// message kind; only the three kinds the backends unicast are populated.
	droppedUni [msg.NumKinds]*obs.Counter
}

func newRemoteObs(reg *obs.Registry) *remoteObs {
	o := &remoteObs{
		connects:        reg.Counter(metricConnects, helpConnects),
		framesIn:        reg.Counter(metricFramesIn, helpFramesIn),
		framesOut:       reg.Counter(metricFramesOut, helpFramesOut),
		bytesIn:         reg.Counter(metricBytesIn, helpBytesIn),
		bytesOut:        reg.Counter(metricBytesOut, helpBytesOut),
		decodeErrors:    reg.Counter(metricDecodeErrors, helpDecodeErrors),
		versionRejects:  reg.Counter(metricVersionRejects, helpVersionRejects),
		broadcastFanout: reg.Histogram(metricBroadcastConns, helpBroadcastConns, obs.SizeBuckets),
	}
	for r := rejectKind; r < numRejectReasons; r++ {
		o.rejected[r] = reg.Counter(metricRejectedFrames, helpRejectedFrames, "reason", rejectReasonNames[r])
	}
	for k := msg.Kind(0); int(k) < msg.NumKinds; k++ {
		if k.Uplink() {
			o.uplinkLat[k] = reg.Histogram(metricDispatchSeconds, helpDispatchSeconds, obs.LatencyBuckets, "kind", k.String())
		}
	}
	for _, k := range []msg.Kind{msg.KindQueryInstall, msg.KindFocalNotify, msg.KindFocalInfoRequest} {
		o.droppedUni[k] = reg.Counter(metricDroppedUni, helpDroppedUni, "kind", k.String())
	}
	return o
}

// observeUplink records backend dispatch latency for one received message.
func (o *remoteObs) observeUplink(k msg.Kind, start time.Time) {
	o.uplinkLat[k].Observe(time.Since(start).Seconds())
}

// instrument wires the server's transport metrics and gauges into its
// registry and instruments the backend. Called once from start().
func (s *Server) instrument() {
	s.om = newRemoteObs(s.reg)
	s.reg.GaugeFunc(metricConnections, helpConnections, func() float64 {
		return float64(s.NumConnected())
	})
	s.reg.GaugeFunc(metricPendingUni, helpPendingUni, func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.parked))
	})
	s.backend.Instrument(s.reg)
}

// Metrics returns the server's metric registry — the one given in
// ServerConfig.Metrics, or the server's own if none was supplied. Never nil.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Views returns the server's debug views — events, latency, costs, history,
// cluster, nodes — served by the admin port and, via obs.ListenAndServe, a
// metrics endpoint. A view whose backing is off answers disabled.
func (s *Server) Views() []obs.View {
	return []obs.View{
		obs.EventsView(s.rec),
		s.lat.View(),
		s.acct.View(),
		s.hist.View(),
		s.backend.Telemetry().View(),
		nodesView(s.backend),
	}
}

// Nodes is the nodes view's body: the router's span epoch and each node's
// cell span and table sizes.
type Nodes struct {
	Epoch uint64          `json:"epoch"`
	Nodes []core.NodeSpan `json:"nodes"`
}

// WriteText writes the epoch line, then one line per node.
func (n Nodes) WriteText(w io.Writer) error {
	p := obs.TextWriter{W: w}
	p.Printf("epoch %d\n", n.Epoch)
	for _, sp := range n.Nodes {
		state := "live"
		if !sp.Live {
			state = "dead"
		}
		p.Printf("node %d %s cells [%d,%d) focals %d queries %d",
			sp.Node, state, sp.Lo, sp.Hi, sp.Focals, sp.Queries)
		if sp.Fault != "" {
			// Unreachable node: its counts above are zeros because the
			// transport is dead, not because its tables are empty.
			p.Printf(" fault %q", sp.Fault)
		}
		p.Printf("\n")
	}
	return p.Err
}

// nodesView is the router's span view (/debug/nodes, admin nodes).
func nodesView(cs *core.ClusterServer) obs.View {
	return obs.View{
		Name: "nodes", Path: "/debug/nodes", Word: "nodes",
		Doc: "the router's span epoch, per-node cell spans and table sizes",
		Get: func(obs.Args) (obs.Body, error) {
			return Nodes{Epoch: cs.Epoch(), Nodes: cs.Spans()}, nil
		},
	}
}
