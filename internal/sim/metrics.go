package sim

import (
	"fmt"
	"time"

	"mobieyes/internal/msg"
	"mobieyes/internal/obs/cost"
)

// Metrics aggregates everything the paper's figures report, over the
// measured (post-warmup) portion of a run.
type Metrics struct {
	Approach Approach
	Steps    int
	Seconds  float64 // simulated wall time covered by the measured steps

	UplinkMsgs    int64
	DownlinkMsgs  int64
	UplinkBytes   int64
	DownlinkBytes int64

	// ServerNanos is the wall-clock time spent executing server-side logic
	// (the paper's server load measure); ClientNanos is the wall-clock time
	// spent in moving-object query evaluation (Fig. 13's measure),
	// totalled over all objects.
	ServerNanos int64
	ClientNanos int64

	// AvgLQTSize is the mean LQT size over objects and steps (Figs 10–12).
	AvgLQTSize float64
	// AvgError is the mean query-result error (missing/|correct|, Fig. 2);
	// valid when Config.MeasureError was set.
	AvgError float64
	// AvgPowerWatts is the mean per-object communication power (Fig. 9).
	AvgPowerWatts float64

	ServerOps int64 // deterministic server operation count (MobiEyes)
	Evals     int64 // client query evaluations (MobiEyes)
	Skipped   int64 // evaluations suppressed by safe periods (MobiEyes)

	// ByKind breaks the traffic down per message kind (kinds with any
	// traffic only, ordered by kind).
	ByKind []cost.KindStats
}

// trafficMetrics returns Metrics with the traffic fields read from a
// transport's ledger.
func trafficMetrics(t cost.LedgerSnap) Metrics {
	return Metrics{
		UplinkMsgs:    t.UplinkMsgs(),
		DownlinkMsgs:  t.DownlinkMsgs(),
		UplinkBytes:   t.UplinkBytes(),
		DownlinkBytes: t.DownlinkBytes(),
		ByKind:        t.ByKind(),
	}
}

// KindCount returns the total message count (both directions) for one kind.
func (m Metrics) KindCount(k msg.Kind) int64 {
	for _, ks := range m.ByKind {
		if ks.Kind == k {
			return ks.UplinkMsgs + ks.DownlinkMsgs
		}
	}
	return 0
}

// StepRecord is one step of a run's time series (see Engine.History):
// per-step deltas of the headline metrics.
type StepRecord struct {
	Step          int
	UplinkMsgs    int64
	DownlinkMsgs  int64
	UplinkBytes   int64
	DownlinkBytes int64
	AvgLQTSize    float64
	ServerNanos   int64
	// Error is the per-step result error (only when MeasureError is set).
	Error float64
}

// MessagesPerSecond returns the total wireless messages per simulated
// second — the y-axis of Figs. 4, 5, 7 and 8.
func (m Metrics) MessagesPerSecond() float64 {
	if m.Seconds == 0 {
		return 0
	}
	return float64(m.UplinkMsgs+m.DownlinkMsgs) / m.Seconds
}

// UplinkMessagesPerSecond returns uplink messages per simulated second —
// the y-axis of Fig. 6.
func (m Metrics) UplinkMessagesPerSecond() float64 {
	if m.Seconds == 0 {
		return 0
	}
	return float64(m.UplinkMsgs) / m.Seconds
}

// ServerLoadPerStep returns the mean wall-clock server time per step —
// the y-axis of Figs. 1 and 3.
func (m Metrics) ServerLoadPerStep() time.Duration {
	if m.Steps == 0 {
		return 0
	}
	return time.Duration(m.ServerNanos / int64(m.Steps))
}

// ClientLoadPerObjectStep returns the mean wall-clock query-processing time
// per moving object per step — the y-axis of Fig. 13.
func (m Metrics) ClientLoadPerObjectStep(numObjects int) time.Duration {
	if m.Steps == 0 || numObjects == 0 {
		return 0
	}
	return time.Duration(m.ClientNanos / int64(m.Steps) / int64(numObjects))
}

// String implements fmt.Stringer with a compact one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%s: %.1f msg/s (%.1f up), server %v/step, LQT %.2f, err %.4f, %.2f mW/obj",
		m.Approach, m.MessagesPerSecond(), m.UplinkMessagesPerSecond(),
		m.ServerLoadPerStep(), m.AvgLQTSize, m.AvgError, m.AvgPowerWatts*1000)
}
