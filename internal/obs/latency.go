package obs

import (
	"fmt"
	"io"
	"sync"

	"mobieyes/internal/obs/trace"
)

// Metric names for the latency view's registry exposition.
const (
	metricLatencyE2E   = "mobieyes_latency_e2e_seconds"
	metricLatencyStage = "mobieyes_latency_stage_seconds"
)

// A LatencyView folds the flight recorder's causal chains into per-stage
// latency histograms: every traced uplink decomposes (trace.Decompose) into
// dispatch → table → fanout → deliver spans, each observed into an
// HDR-bucketed histogram, plus the end-to-end chain duration. The view owns
// its histograms — Instrument registers them on a registry without
// re-observing — and consumes each trace exactly once across Collect calls
// via a sequence watermark, so scraping /debug/latency repeatedly never
// double-counts.
//
// All methods are safe for concurrent use and no-ops on a nil receiver.
type LatencyView struct {
	rec *trace.Recorder

	mu        sync.Mutex
	watermark uint64 // highest ingress Seq already folded in
	stages    [trace.NumStages]*Histogram
	e2e       *Histogram
	traces    int64 // chains folded in
	partial   int64 // folded chains missing at least one stage
	orphans   int64 // chains skipped in the last Collect (ingress overwritten)
}

// NewLatencyView returns a view over rec's ring. A nil rec yields a valid
// view whose Collect is a no-op, matching the nil-recorder idiom.
func NewLatencyView(rec *trace.Recorder) *LatencyView {
	lv := &LatencyView{rec: rec}
	for s := range lv.stages {
		lv.stages[s] = NewHistogram(HDRLatencyBuckets)
	}
	lv.e2e = NewHistogram(HDRLatencyBuckets)
	return lv
}

// Instrument registers the view's histograms on reg: the end-to-end chain
// latency and one stage series per pipeline stage, labeled stage=dispatch…
// deliver. No-op on nil lv or reg.
func (lv *LatencyView) Instrument(reg *Registry) {
	if lv == nil {
		return
	}
	reg.RegisterHistogram(metricLatencyE2E, "Traced uplink end-to-end latency (ingress to last recorded pipeline event).", lv.e2e)
	for s := trace.Stage(0); s < trace.NumStages; s++ {
		reg.RegisterHistogram(metricLatencyStage, "Traced uplink pipeline stage latency.", lv.stages[s], "stage", s.String())
	}
}

// Collect folds every not-yet-consumed trace currently in the ring into the
// histograms. A trace is consumed when its ingress sequence number is above
// the watermark; traces whose ingress was overwritten by ring wraparound are
// counted as orphans and skipped. Chains still in flight fold with their
// stages so far — call Collect after quiescence for exact decompositions.
func (lv *LatencyView) Collect() {
	if lv == nil || lv.rec == nil {
		return
	}
	evs := lv.rec.Events(trace.Filter{})
	lv.mu.Lock()
	defer lv.mu.Unlock()

	byTrace := make(map[trace.ID][]trace.Event)
	ingressSeq := make(map[trace.ID]uint64)
	for _, e := range evs {
		if e.Trace == 0 {
			continue
		}
		byTrace[e.Trace] = append(byTrace[e.Trace], e)
		if e.Kind == trace.KindIngress {
			if s, ok := ingressSeq[e.Trace]; !ok || e.Seq < s {
				ingressSeq[e.Trace] = e.Seq
			}
		}
	}
	lv.orphans = 0
	mark := lv.watermark
	for tid, group := range byTrace {
		seq, ok := ingressSeq[tid]
		if !ok {
			lv.orphans++
			continue
		}
		if seq <= lv.watermark {
			continue // already folded in an earlier Collect
		}
		sp, ok := trace.Decompose(group)
		if !ok {
			continue
		}
		lv.traces++
		all := true
		for s := trace.Stage(0); s < trace.NumStages; s++ {
			if !sp.Present[s] {
				all = false
				continue
			}
			lv.stages[s].Observe(sp.Stage[s].Seconds())
		}
		if !all {
			lv.partial++
		}
		lv.e2e.Observe(sp.E2E.Seconds())
		if seq > mark {
			mark = seq
		}
	}
	lv.watermark = mark
}

// StageSnap is the exported summary of one latency histogram.
type StageSnap struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

func snapHistogram(name string, h *Histogram) StageSnap {
	return StageSnap{
		Stage: name,
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// LatencySnap is a point-in-time summary of the view: chain counts plus the
// end-to-end and per-stage quantiles, all in seconds.
type LatencySnap struct {
	Traces  int64       `json:"traces"`
	Partial int64       `json:"partial"`
	Orphans int64       `json:"orphans"`
	E2E     StageSnap   `json:"e2e"`
	Stages  []StageSnap `json:"stages"`
}

// Snapshot collects pending traces and returns the current summary. A nil
// view returns the zero snapshot.
func (lv *LatencyView) Snapshot() LatencySnap {
	if lv == nil {
		return LatencySnap{}
	}
	lv.Collect()
	lv.mu.Lock()
	defer lv.mu.Unlock()
	snap := LatencySnap{
		Traces:  lv.traces,
		Partial: lv.partial,
		Orphans: lv.orphans,
		E2E:     snapHistogram("e2e", lv.e2e),
	}
	for s := trace.Stage(0); s < trace.NumStages; s++ {
		snap.Stages = append(snap.Stages, snapHistogram(s.String(), lv.stages[s]))
	}
	return snap
}

// fmtDur renders a latency in seconds at a human scale.
func fmtDur(sec float64) string {
	switch {
	case sec == 0:
		return "0"
	case sec < 1e-6:
		return fmt.Sprintf("%.0fns", sec*1e9)
	case sec < 1e-3:
		return fmt.Sprintf("%.2fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.3fs", sec)
	}
}

// WriteText writes the summary as an aligned human-readable table.
func (snap LatencySnap) WriteText(w io.Writer) error {
	p := TextWriter{W: w}
	p.Printf("traces %d  partial %d  orphans %d\n", snap.Traces, snap.Partial, snap.Orphans)
	p.Printf("%-9s %8s %10s %10s %10s %10s %10s %10s\n",
		"stage", "count", "mean", "p50", "p90", "p99", "p99.9", "max")
	row := func(s StageSnap) {
		p.Printf("%-9s %8d %10s %10s %10s %10s %10s %10s\n", s.Stage, s.Count,
			fmtDur(s.Mean), fmtDur(s.P50), fmtDur(s.P90), fmtDur(s.P99), fmtDur(s.P999), fmtDur(s.Max))
	}
	for _, s := range snap.Stages {
		row(s)
	}
	row(snap.E2E)
	return p.Err
}

// View is the stage-latency view (/debug/latency, admin LAT): every request
// folds newly recorded traces in first. A nil lv is disabled.
func (lv *LatencyView) View() View {
	return View{
		Name: "latency", Path: "/debug/latency", Word: "LAT",
		Doc: "per-stage and end-to-end latency of traced uplinks (needs -trace-events)",
		Get: func(Args) (Body, error) {
			if lv == nil {
				return nil, Disabled("tracing")
			}
			return lv.Snapshot(), nil
		},
	}
}
