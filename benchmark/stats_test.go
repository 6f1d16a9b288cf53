package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	// 1..100 shuffled by a stride coprime with 100.
	xs := make([]float32, 100)
	for i := range xs {
		xs[i] = float32((i*37)%100 + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {0.991, 100}, {1, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float32{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
	// No interpolation: the result is always one of the samples.
	if got := percentile([]float32{10, 20}, 0.75); got != 20 {
		t.Errorf("percentile({10,20}, 0.75) = %v, want the sample 20", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("odd count: got %v, want 4", got)
	}
	if in[0] != 5 || in[1] != 1 {
		t.Errorf("median reordered its argument: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v, want 2.5", got)
	}
}

func TestWindowQuantile(t *testing.T) {
	id := func(x float64) float64 { return x }
	// Two warm-up windows, then 101..108 in some order.
	rates := []float64{1, 2, 105, 101, 108, 103, 102, 107, 104, 106}
	if got := windowQuantile(rates, id, 0.75); got != 106 {
		t.Errorf("upper quartile of 101..108 = %v, want 106", got)
	}
	if got := windowQuantile(rates, id, 0.25); got != 102 {
		t.Errorf("lower quartile of 101..108 = %v, want 102", got)
	}
	// Of thirty windows, a third slowed by a neighbour and two lucky ones
	// move neither the rate nor the latency that stands for the phase.
	noisy := []float64{1, 2}
	for i := 0; i < 30; i++ {
		switch {
		case i%3 == 0:
			noisy = append(noisy, 40+float64(i)) // slowed
		case i == 1 || i == 2:
			noisy = append(noisy, 180) // lucky
		default:
			noisy = append(noisy, 100)
		}
	}
	if got := windowQuantile(noisy, id, rateQuantile); got != 100 {
		t.Errorf("rate: got %v, want 100", got)
	}
	inverse := func(x float64) float64 { return 1e4 / x } // the same windows as latencies
	if got := windowQuantile(noisy, inverse, latencyQuantile); got != 100 {
		t.Errorf("latency: got %v, want 100", got)
	}
	// Short phases keep what they have.
	if got := windowQuantile([]float64{7, 42}, id, rateQuantile); got != 42 {
		t.Errorf("two windows: got %v, want the last", got)
	}
	if got := windowQuantile([]float64{42}, id, latencyQuantile); got != 42 {
		t.Errorf("single window: got %v, want 42", got)
	}
	if got := windowQuantile([]float64(nil), id, rateQuantile); got != 0 {
		t.Errorf("no windows: got %v, want 0", got)
	}
}

func TestWindowsAndRates(t *testing.T) {
	if n := numWindows(6 * window); n != 6 {
		t.Errorf("numWindows(6 windows) = %d", n)
	}
	if n := numWindows(window / 2); n != 1 {
		t.Errorf("numWindows(half a window) = %d, want 1", n)
	}
	if w := windowOf(2*window+window/2, 3); w != 2 {
		t.Errorf("windowOf(2.5 windows) = %d, want 2", w)
	}
	if w := windowOf(3*window+window/5, 3); w != 2 {
		t.Errorf("the tail joins the last window: got %d, want 2", w)
	}
	// A phase of 2.5 windows has windows of 1 and 1.5: 300 ops in the second
	// are as fast as 200 in the first.
	perWindow := 200 / window.Seconds()
	if got := windowRates([]int64{200, 300}, 2*window+window/2); got[0] != perWindow || got[1] != perWindow {
		t.Errorf("windowRates = %v, want %v twice", got, perWindow)
	}
	if got := windowRates([]int64{100}, window/2); got[0] != perWindow {
		t.Errorf("short phase: windowRates = %v, want %v", got, perWindow)
	}
	r := satResult{rates: []float64{1, 2, 30, 10, 40, 20, 35, 15, 25, 5, 45, 50}}
	if got := r.opsPerSecond(); got != 45 {
		t.Errorf("opsPerSecond = %v, want 45, the ninth of the ten windows after the warm-up", got)
	}
}

func TestPacedLog(t *testing.T) {
	const us = time.Microsecond
	l := newPacedLog(2 * window)
	l.record(window/10, window/10+50*us)
	l.record(window+window/2, window+window/2+70*us)
	l.record(2*window-window/10, 2*window+window/10) // done after the phase's time was up
	o := newPacedLog(2 * window)
	o.record(window+window/4, window+window/4+90*us)
	l.merge(o)
	if len(l.lat[0]) != 1 || len(l.lat[1]) != 3 {
		t.Fatalf("samples per window = %d, %d; want 1, 3", len(l.lat[0]), len(l.lat[1]))
	}
	s := l.summary([]float32{1, 2, 3})
	if s.backlog != 1 || s.samples != 4 {
		t.Errorf("backlog %d samples %d, want 1 and 4", s.backlog, s.samples)
	}
	// The second window's samples are 70 µs, 90 µs and a fifth of a window.
	if s.p50 != 90 {
		t.Errorf("p50 = %v, want 90", s.p50)
	}
	if want := float64(micros(window / 5)); s.max != want {
		t.Errorf("max = %v, want %v", s.max, want)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: spanOp, parent: -1, start: 0, end: 100},
		{name: spanGen, parent: 0, start: 10, end: 30},     // 20 covered
		{name: spanHandle, parent: 0, start: 40, end: 80},  // 40 covered
		{name: spanSink, parent: 2, start: 50, end: 60},    // child of the handle
		{name: spanPublish, parent: 2, start: 55, end: 70}, // overlaps the sink: 50..70 covered once
		{name: spanWrite, parent: 0, start: 90, end: 120},  // runs past its parent: clipped to 90..100
	}
	want := []int64{100 - 20 - 40 - 10, 20, 40 - 20, 10, 15, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spanNames[spans[i].name], got[i], want[i])
		}
	}
}

func TestLaneNesting(t *testing.T) {
	tr := newTracer(1)
	ln := tr.lane()
	op := ln.begin(spanOp)
	g := ln.begin(spanGen)
	ln.end(g)
	h := ln.begin(spanHandle)
	s := ln.begin(spanSink)
	ln.end(s)
	ln.end(h)
	ln.end(op)
	parents := []int32{-1, 0, 0, 2}
	for i, p := range parents {
		if ln.spans[i].parent != p {
			t.Errorf("span %d: parent %d, want %d", i, ln.spans[i].parent, p)
		}
		if ln.spans[i].end < ln.spans[i].start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if len(ln.open) != 0 {
		t.Errorf("%d spans left open", len(ln.open))
	}
	// A nil tracer and a nil lane record nothing and do not panic.
	var none *tracer
	nl := none.lane()
	nl.end(nl.begin(spanOp))
	nl.add(spanPongWait, time.Now(), time.Now())
	if st := tr.stats(); st[spanOp].count != 1 || st[spanGen].count != 1 {
		t.Errorf("stats counted %d ops, %d gens; want 1, 1", st[spanOp].count, st[spanGen].count)
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := make([]int64, 200)
	for i := range xs {
		xs[i] = 100
	}
	xs[3], xs[150] = 40_000_000, 1_000_000 // two descheduled spans: the top 1 %
	if got := trimmedMean(xs); got != 100 {
		t.Errorf("trimmedMean = %v, want 100", got)
	}
	if got := trimmedMean([]int64{10, 20}); got != 15 {
		t.Errorf("fewer than 100 samples keep all: got %v, want 15", got)
	}
	if got := trimmedMean(nil); got != 0 {
		t.Errorf("no samples: got %v", got)
	}
}
