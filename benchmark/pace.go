package main

import "time"

// window is the length of the fixed windows a phase is summarised by.
const window = 250 * time.Millisecond

// waitUntil returns at the due time: it sleeps to within 2 ms, then yields
// the processor to the operating system in a loop to within 5 µs, and spins
// the rest. time.Sleep alone wakes about half a millisecond late on this
// kind of box, more than the latencies the paced phase measures. The yield
// has to reach the kernel: loopback TCP wakes a socket's reader on the
// writer's processor, and behind a pacer that spins without yielding — or
// that only calls runtime.Gosched — the server's reader waited for the next
// scheduler tick, which put a flat 2 ms under every latency.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - 2*time.Millisecond)
		case d > 5*time.Microsecond:
			osYield()
		}
	}
}

// pacedLog keeps the raw samples of an open-loop phase: no buckets, no
// interpolation. Each goroutine that observes completions owns one log; the
// logs are merged when the phase is over.
type pacedLog struct {
	dur time.Duration
	// lat[w] holds the due-time→completion latencies (µs) of the ops that
	// were due in window w.
	lat [][]float32
	// backlog counts the ops that were due within the phase but completed
	// after its time was up.
	backlog int
}

func newPacedLog(dur time.Duration) *pacedLog {
	return &pacedLog{dur: dur, lat: make([][]float32, numWindows(dur))}
}

func numWindows(dur time.Duration) int {
	return max(int(dur/window), 1)
}

// windowOf maps an offset from the phase start to its window; the tail of a
// phase that is not a whole number of windows joins the last one.
func windowOf(offset time.Duration, n int) int {
	return min(max(int(offset/window), 0), n-1)
}

func micros(d time.Duration) float32 { return float32(float64(d.Nanoseconds()) / 1e3) }

// record notes an op that was due at offset due from the phase start and
// completed at offset done.
func (l *pacedLog) record(due, done time.Duration) {
	w := windowOf(due, len(l.lat))
	l.lat[w] = append(l.lat[w], micros(done-due))
	if done > l.dur {
		l.backlog++
	}
}

func (l *pacedLog) merge(o *pacedLog) {
	for w := range o.lat {
		l.lat[w] = append(l.lat[w], o.lat[w]...)
	}
	l.backlog += o.backlog
}

// runPaced is the open loop: op i is due at start + i/rate whether or not
// earlier ops are done, for as many ops as are due within dur. prepare
// builds op i before its due time; issue sends it and is told the due time
// as an offset from start, so that latency runs from when the op should have
// been sent, which charges a stall to every op that was due during it. It
// returns how late each op was issued (µs).
func runPaced(start time.Time, rate float64, dur time.Duration, prepare func(i int), issue func(i int, due time.Duration)) []float32 {
	n := int(rate * dur.Seconds())
	late := make([]float32, 0, n)
	for i := 0; i < n; i++ {
		prepare(i)
		due := time.Duration(float64(i) / rate * 1e9)
		waitUntil(start.Add(due))
		late = append(late, micros(time.Since(start)-due))
		issue(i, due)
	}
	return late
}

// pacedSummary is what a paced phase reports: p50 and p90 are the first
// decile over the phase's windows of the per-window percentile; p99 and
// max are over the whole phase.
type pacedSummary struct {
	p50, p90, p99, max float64
	lateP90, lateP99   float64
	samples, backlog   int
}

func (l *pacedLog) summary(late []float32) pacedSummary {
	s := pacedSummary{
		p50:     windowQuantile(l.lat, func(w []float32) float64 { return percentile(w, 0.50) }, latencyQuantile),
		p90:     windowQuantile(l.lat, func(w []float32) float64 { return percentile(w, 0.90) }, latencyQuantile),
		lateP90: percentile(late, 0.90),
		lateP99: percentile(late, 0.99),
		backlog: l.backlog,
	}
	var all []float32
	for _, w := range l.lat {
		all = append(all, w...)
	}
	s.samples = len(all)
	s.p99 = percentile(all, 0.99)
	s.max = percentile(all, 1)
	return s
}
