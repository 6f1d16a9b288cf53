package cost

import (
	"strconv"

	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
)

// Instrument registers the accountant's ledgers and quality instruments on
// reg under the mobieyes_cost_* namespace:
//
//	mobieyes_cost_msgs_total{dir,kind}      global transport message counts
//	mobieyes_cost_bytes_total{dir,kind}     global transport wire bytes
//	mobieyes_cost_compute_total{unit}       computation units by kind
//	mobieyes_cost_node_uplink_msgs{node}    per-node uplink attribution
//	                                        (node="router" for drops)
//	mobieyes_cost_precision / _recall       latest-step answer quality
//	mobieyes_cost_quality_total{outcome}    cumulative tp/fp/fn
//	mobieyes_cost_staleness_total{le}       staleness bucket counts (steps,
//	                                        non-cumulative buckets)
//	mobieyes_cost_staleness_steps_sum       total staleness steps observed
//	mobieyes_cost_egress_writes_total{sink} gateway/history egress writes
//	mobieyes_cost_egress_bytes_total{sink}  gateway/history egress bytes
//
// The registered counters are the live ledger counters — no copying, no
// per-update registry work. Call after Configure so per-node series exist.
// No-op when a or reg is nil.
func (a *Accountant) Instrument(reg *obs.Registry) {
	if a == nil || reg == nil {
		return
	}
	for k := 0; k < msg.NumKinds; k++ {
		kind := msg.Kind(k).String()
		reg.RegisterCounter("mobieyes_cost_msgs_total",
			"Messages on the wireless medium by direction and kind.",
			&a.global.upMsgs[k], "dir", "up", "kind", kind)
		reg.RegisterCounter("mobieyes_cost_msgs_total",
			"Messages on the wireless medium by direction and kind.",
			&a.global.downMsgs[k], "dir", "down", "kind", kind)
		reg.RegisterCounter("mobieyes_cost_bytes_total",
			"Wire bytes on the wireless medium by direction and kind.",
			&a.global.upBytes[k], "dir", "up", "kind", kind)
		reg.RegisterCounter("mobieyes_cost_bytes_total",
			"Wire bytes on the wireless medium by direction and kind.",
			&a.global.downBytes[k], "dir", "down", "kind", kind)
	}
	for u := 0; u < NumUnits; u++ {
		reg.RegisterCounter("mobieyes_cost_compute_total",
			"Computation units by kind (client and server work).",
			&a.global.compute[u], "unit", Unit(u).String())
	}
	for i := range a.nodes {
		nd := &a.nodes[i]
		reg.GaugeFunc("mobieyes_cost_node_uplink_msgs",
			"Uplink messages attributed to each router node.",
			func() float64 { return float64(nd.UplinkMsgs()) },
			"node", strconv.Itoa(i))
	}
	reg.GaugeFunc("mobieyes_cost_node_uplink_msgs",
		"Uplink messages attributed to each router node.",
		func() float64 { return float64(a.router.UplinkMsgs()) },
		"node", "router")
	reg.GaugeFunc("mobieyes_cost_precision",
		"Latest-step result-set precision against ground truth.",
		a.q.precision.Value)
	reg.GaugeFunc("mobieyes_cost_recall",
		"Latest-step result-set recall against ground truth.",
		a.q.recall.Value)
	reg.RegisterCounter("mobieyes_cost_quality_total",
		"Cumulative result-set outcomes against ground truth.",
		&a.q.tp, "outcome", "tp")
	reg.RegisterCounter("mobieyes_cost_quality_total",
		"Cumulative result-set outcomes against ground truth.",
		&a.q.fp, "outcome", "fp")
	reg.RegisterCounter("mobieyes_cost_quality_total",
		"Cumulative result-set outcomes against ground truth.",
		&a.q.fn, "outcome", "fn")
	for i := range a.q.stale {
		le := "+Inf"
		if i < len(staleBounds) {
			le = strconv.FormatInt(staleBounds[i], 10)
		}
		reg.RegisterCounter("mobieyes_cost_staleness_total",
			"Result-staleness episodes by duration bucket in steps (non-cumulative buckets).",
			&a.q.stale[i], "le", le)
	}
	reg.RegisterCounter("mobieyes_cost_staleness_steps_sum",
		"Total steps of result staleness observed.", &a.q.staleSum)
	reg.RegisterCounter("mobieyes_cost_egress_writes_total",
		"Observability egress writes by sink (encode-boundary charge).",
		&a.egress.gatewayWrites, "sink", "gateway")
	reg.RegisterCounter("mobieyes_cost_egress_writes_total",
		"Observability egress writes by sink (encode-boundary charge).",
		&a.egress.historyAppends, "sink", "history")
	reg.RegisterCounter("mobieyes_cost_egress_bytes_total",
		"Observability egress bytes by sink (encode-boundary charge).",
		&a.egress.gatewayBytes, "sink", "gateway")
	reg.RegisterCounter("mobieyes_cost_egress_bytes_total",
		"Observability egress bytes by sink (encode-boundary charge).",
		&a.egress.historyBytes, "sink", "history")
}
