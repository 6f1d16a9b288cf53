package sim

import (
	"time"

	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
)

// Metric names of the simulation layer (scheme mobieyes_<layer>_<name>; see
// DESIGN.md §9); uplink latency histograms carry kind="VelocityReport" etc.
const (
	metricSteps      = "mobieyes_sim_steps_total"
	metricStepSecs   = "mobieyes_sim_step_seconds"
	metricUplinkSecs = "mobieyes_sim_uplink_seconds"
	metricDrainBatch = "mobieyes_sim_drain_batch"
	metricUpDepth    = "mobieyes_sim_up_queue_depth"
	metricDownDepth  = "mobieyes_sim_down_queue_depth"

	helpSteps      = "Simulation steps executed."
	helpStepSecs   = "Wall-clock duration of one full simulation step."
	helpUplinkSecs = "Server handling latency of one drained uplink, in seconds."
	helpDrainBatch = "Uplink messages processed per transport drain."
	helpUpDepth    = "Uplink messages queued in the transport (0 at quiescence)."
	helpDownDepth  = "Downlink messages queued in the transport (0 at quiescence)."
)

// engineObs is the optional instrumentation of one Engine; nil (the default)
// means the engine runs uninstrumented.
type engineObs struct {
	steps      *obs.Counter
	stepLat    *obs.Histogram
	drainBatch *obs.Histogram
	// uplinkLat is indexed by message kind; only uplink kinds are populated.
	uplinkLat [msg.NumKinds]*obs.Histogram
	// upDepth/downDepth are published by the owning goroutine from inside
	// drain (the queues themselves are not safe to measure at scrape time),
	// so a live scrape sees the instantaneous transport backlog.
	upDepth   *obs.Gauge
	downDepth *obs.Gauge
}

func newEngineObs(reg *obs.Registry) *engineObs {
	o := &engineObs{
		steps:      reg.Counter(metricSteps, helpSteps),
		stepLat:    reg.Histogram(metricStepSecs, helpStepSecs, obs.LatencyBuckets),
		drainBatch: reg.Histogram(metricDrainBatch, helpDrainBatch, obs.SizeBuckets),
		upDepth:    reg.Gauge(metricUpDepth, helpUpDepth),
		downDepth:  reg.Gauge(metricDownDepth, helpDownDepth),
	}
	for k := msg.Kind(0); int(k) < msg.NumKinds; k++ {
		if k.Uplink() {
			o.uplinkLat[k] = reg.Histogram(metricUplinkSecs, helpUplinkSecs, obs.LatencyBuckets, "kind", k.String())
		}
	}
	return o
}

// observeUplink records the server's handling time of one drained uplink.
func (o *engineObs) observeUplink(k msg.Kind, d time.Duration) {
	if o == nil {
		return
	}
	o.uplinkLat[k].Observe(d.Seconds())
}

// syncQueueDepths publishes the current transport queue depths.
func (o *engineObs) syncQueueDepths(up, down int) {
	if o == nil {
		return
	}
	o.upDepth.Set(float64(up))
	o.downDepth.Set(float64(down))
}
