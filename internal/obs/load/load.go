package load

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobieyes/internal/model"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/trace"
)

// Config parameterizes one load run.
type Config struct {
	// Backend selects the target: serial | sharded | cluster | tcp.
	Backend string
	// Rate is the open-loop arrival rate in ops/sec.
	Rate float64
	// Duration is the measured window; Warmup before it is discarded.
	Duration time.Duration
	Warmup   time.Duration
	// Interval is the time-series sampling period.
	Interval time.Duration
	// Objects and Queries size the workload population.
	Objects int
	Queries int
	// Workers is the issuing pool size. The pool is fixed: when the
	// backend stalls, ops queue behind the schedule instead of spawning
	// unbounded goroutines, and the lateness is charged to their latency.
	Workers int
	// Shards sizes the sharded and tcp backends' router, Nodes the cluster
	// backend's.
	Shards int
	Nodes  int
	// Seed makes the op stream deterministic.
	Seed uint64
	// Trace enables causal tracing and the per-stage decomposition in the
	// report; TraceSize is the flight-recorder ring capacity.
	Trace     bool
	TraceSize int
	// Registry, when non-nil, receives the backend's metrics (queue-depth
	// gauges, stage histograms) — share it with an obs HTTP endpoint to
	// watch a run live. Nil keeps a private registry.
	Registry *obs.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.Backend == "" {
		cfg.Backend = "serial"
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 5000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 250 * time.Millisecond
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 1000
	}
	if cfg.Queries <= 0 {
		cfg.Queries = cfg.Objects / 20
		if cfg.Queries < 1 {
			cfg.Queries = 1
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Workers < 4 {
			cfg.Workers = 4
		}
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.TraceSize <= 0 {
		cfg.TraceSize = 1 << 18
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Run executes one open-loop load run and returns its report.
//
// Ops are issued against a fixed arrival schedule: op i is due at
// start + i/Rate, a worker sleeps until then (or starts immediately when
// behind), and the op's latency is time from *scheduled* arrival to
// completion. That makes the quantiles coordinated-omission safe: a backend
// stall charges every op scheduled during the stall with its queueing delay
// instead of pausing the arrival clock (see EXPERIMENTS.md).
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	w := NewWorkload(cfg.Objects, cfg.Queries, cfg.Seed)

	var rec *trace.Recorder
	if cfg.Trace {
		rec = trace.NewRecorder(cfg.TraceSize)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t, err := newTarget(cfg, w, rec, reg)
	if err != nil {
		return nil, err
	}
	defer t.Close()

	var lv *obs.LatencyView
	if rec != nil {
		lv = obs.NewLatencyView(rec)
		if cfg.Registry != nil {
			lv.Instrument(reg)
		}
	}

	if err := setup(t, w); err != nil {
		return nil, err
	}
	// Setup traffic is not part of the measurement.
	lv.Discard()

	var (
		start    = time.Now()
		warmEnd  = start.Add(cfg.Warmup)
		end      = warmEnd.Add(cfg.Duration)
		next     atomic.Uint64 // op schedule index
		done     atomic.Int64  // completed ops (incl. warmup)
		measured atomic.Int64  // completed ops in the measured window
		opErr    atomic.Value  // first error any worker hit
		cum      = obs.NewHistogram(obs.HDRLatencyBuckets)
		cur      atomic.Pointer[obs.Histogram]
	)
	cur.Store(obs.NewHistogram(obs.HDRLatencyBuckets))

	interval := time.Duration(float64(time.Second) / cfg.Rate)
	var wg sync.WaitGroup
	for wk := 0; wk < cfg.Workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				sched := start.Add(time.Duration(i) * interval)
				if sched.After(end) {
					return
				}
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				m := w.Op(i)
				if err := t.Do(wk, m); err != nil {
					opErr.CompareAndSwap(nil, err)
					return
				}
				done.Add(1)
				if !sched.Before(warmEnd) {
					lat := time.Since(sched).Seconds()
					measured.Add(1)
					cum.Observe(lat)
					cur.Load().Observe(lat)
				}
			}
		}(wk)
	}

	// Sampler: one IntervalSample per tick until the workers finish.
	var (
		intervals   []IntervalSample
		prevDone    int64
		prevPause   uint64
		discarded   bool
		workersDone = make(chan struct{})
	)
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	prevPause = ms.PauseTotalNs
	ticker := time.NewTicker(cfg.Interval)
	defer ticker.Stop()
	sample := func(now time.Time) {
		// Discard warmup traces once, at the first post-warmup sample, so
		// the stage decomposition covers only the measured window.
		if !discarded && now.After(warmEnd) {
			lv.Discard()
			discarded = true
		} else if lv != nil {
			// Fold (or, pre-warmup, just scan past) pending traces each tick
			// so ring wraparound cannot swallow ingress events.
			if discarded {
				lv.Collect()
			} else {
				lv.Discard()
			}
		}
		h := obs.NewHistogram(obs.HDRLatencyBuckets)
		old := cur.Swap(h)
		runtime.ReadMemStats(&ms)
		d := done.Load()
		elapsed := now.Sub(start).Seconds()
		sched := int64(elapsed * cfg.Rate)
		if lim := int64((cfg.Warmup + cfg.Duration).Seconds() * cfg.Rate); sched > lim {
			sched = lim
		}
		backlog := sched - d
		if backlog < 0 {
			backlog = 0
		}
		intervals = append(intervals, IntervalSample{
			T:          elapsed,
			Issued:     int64(next.Load()),
			Done:       d,
			Throughput: float64(d-prevDone) / cfg.Interval.Seconds(),
			Backlog:    backlog,
			Depth:      t.Depth(),
			Count:      old.Count(),
			P50:        old.Quantile(0.5),
			P90:        old.Quantile(0.9),
			P99:        old.Quantile(0.99),
			P999:       old.Quantile(0.999),
			Max:        old.Max(),
			GCPauseNs:  ms.PauseTotalNs - prevPause,
			Goroutines: runtime.NumGoroutine(),
		})
		prevDone = d
		prevPause = ms.PauseTotalNs
	}
loop:
	for {
		select {
		case now := <-ticker.C:
			sample(now)
		case <-workersDone:
			break loop
		}
	}
	if err := t.Quiesce(); err != nil {
		return nil, err
	}
	// The measured window runs from warmup end to the last completion: at
	// oversaturation workers finish the schedule late, and dividing by the
	// nominal duration would just echo the arrival rate back.
	wall := time.Since(start) - cfg.Warmup
	sample(time.Now())
	if err, ok := opErr.Load().(error); ok && err != nil {
		return nil, fmt.Errorf("load: %s worker failed: %w", cfg.Backend, err)
	}

	rep := &Report{
		Backend:   t.Name(),
		Rate:      cfg.Rate,
		Objects:   cfg.Objects,
		Queries:   cfg.Queries,
		Workers:   cfg.Workers,
		Shards:    cfg.Shards,
		Nodes:     cfg.Nodes,
		Seed:      cfg.Seed,
		Duration:  cfg.Duration.Seconds(),
		Warmup:    cfg.Warmup.Seconds(),
		Sustained: float64(measured.Load()) / wall.Seconds(),
		Delivered: t.Delivered(),
		Summary:   summarize(cum),
		Intervals: intervals,
	}
	if lv != nil {
		snap := lv.Snapshot()
		rep.Stages = &snap
	}
	return rep, nil
}

// setup drives the population into the backend: every object joins its
// initial cell, a range query is installed on each focal object, and each
// focal's motion state is reported so the §3.3 pending installations
// complete deterministically (no reliance on the FocalInfoRequest round
// trip reaching a simulated device).
func setup(t Target, w *Workload) error {
	for oid := 1; oid <= w.NumObjects(); oid++ {
		if err := t.Do(0, w.Join(model.ObjectID(oid))); err != nil {
			return fmt.Errorf("load: join %d: %w", oid, err)
		}
	}
	qids := make([]model.QueryID, 0, w.NumQueries())
	for oid := 1; oid <= w.NumQueries(); oid++ {
		qids = append(qids, t.Install(model.ObjectID(oid), w.Radius, 100))
	}
	for oid := 1; oid <= w.NumQueries(); oid++ {
		if err := t.Do(0, w.FocalInfo(model.ObjectID(oid))); err != nil {
			return fmt.Errorf("load: focal info %d: %w", oid, err)
		}
	}
	w.SetQueryIDs(qids)
	return t.Quiesce()
}
