package obs

import (
	"math"
	"strconv"
	"sync"
	"testing"
)

// TestNilSafety: every operation on a nil registry and nil metrics is a
// no-op — the contract that lets instrumentation run unconditionally on the
// deterministic serial path.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Errorf("nil counter Value = %d", c.Value())
	}
	g := r.Gauge("x", "")
	g.Set(1)
	g.Add(2)
	if g.Value() != 0 {
		t.Errorf("nil gauge Value = %v", g.Value())
	}
	h := r.Histogram("x_seconds", "", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram not a no-op")
	}
	r.RegisterCounter("y_total", "", NewCounter())
	r.GaugeFunc("y", "", func() float64 { return 1 })
	if err := r.WritePrometheus(discard{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	if len(r.Snapshot()) != 0 {
		t.Error("nil Snapshot not empty")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestGetOrCreate: constructors are idempotent per name+labels, label order
// does not matter, and type conflicts panic.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ops_total", "ops", "shard", "0")
	b := r.Counter("ops_total", "ops", "shard", "0")
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	if c := r.Counter("ops_total", "ops", "shard", "1"); c == a {
		t.Error("distinct labels shared a counter")
	}
	x := r.Gauge("g", "", "a", "1", "b", "2")
	y := r.Gauge("g", "", "b", "2", "a", "1")
	if x != y {
		t.Error("label order changed series identity")
	}
	defer func() {
		if recover() == nil {
			t.Error("type conflict did not panic")
		}
	}()
	r.Gauge("ops_total", "")
}

// TestRegisterCounterReplaces: attaching an existing counter exposes its
// live value, and re-attaching (a rebuilt component) replaces the series.
func TestRegisterCounterReplaces(t *testing.T) {
	r := NewRegistry()
	c1 := NewCounter()
	c1.Add(7)
	r.RegisterCounter("ops_total", "", c1)
	if v := r.Snapshot()["ops_total"]; v != int64(7) {
		t.Fatalf("registered counter snapshot = %v", v)
	}
	c2 := NewCounter()
	c2.Add(40)
	r.RegisterCounter("ops_total", "", c2)
	if v := r.Snapshot()["ops_total"]; v != int64(40) {
		t.Fatalf("replaced counter snapshot = %v", v)
	}
}

// TestConcurrentMutation hammers one registry from many goroutines — run
// under -race this is the data-race check for the whole package.
func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := string(rune('0' + w%4))
			for i := 0; i < perWorker; i++ {
				r.Counter("ops_total", "ops", "shard", shard).Inc()
				r.Gauge("load", "").Add(1)
				r.Histogram("lat_seconds", "", nil).Observe(float64(i%100) * 1e-6)
				if i%100 == 0 {
					var sink [64]byte
					b := writerTo{buf: sink[:0]}
					r.WritePrometheus(&b) // concurrent scrape
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, sh := range []string{"0", "1", "2", "3"} {
		total += r.Counter("ops_total", "", "shard", sh).Value()
	}
	if total != workers*perWorker {
		t.Errorf("counter total = %d, want %d", total, workers*perWorker)
	}
	if g := r.Gauge("load", "").Value(); g != workers*perWorker {
		t.Errorf("gauge = %v, want %d", g, workers*perWorker)
	}
	if h := r.Histogram("lat_seconds", "", nil); h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
}

// TestScrapeDuringRegistration scrapes while another goroutine keeps
// creating brand-new series in the same families — the case where the scrape
// walks a family's series map as a registration inserts into it. Under -race
// this pins that snapshotting holds the registry lock. The churn is bounded
// (512 rounds of five new series) and the scraper runs exactly as long as
// the churn does, so every scrape overlaps registrations and none walks more
// than 2,560 series: a fixed scrape count against unbounded churn lets the
// registry outgrow the scraper under -race, and the test's time with it.
func TestScrapeDuringRegistration(t *testing.T) {
	r := NewRegistry()
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; i < 512; i++ {
			sh := strconv.Itoa(i)
			r.Counter("churn_total", "", "shard", sh).Inc()
			r.Gauge("churn_load", "", "shard", sh).Set(float64(i))
			r.Histogram("churn_seconds", "", nil, "shard", sh).Observe(1e-6)
			r.RegisterCounter("churn_attached_total", "", NewCounter(), "shard", sh)
			r.GaugeFunc("churn_fn", "", func() float64 { return float64(i) }, "shard", sh)
		}
	}()
	for scrapes, done := 0, false; !done; scrapes++ {
		select {
		case <-churned:
			done = true // one last scrape sees the full registry
		default:
		}
		if err := r.WritePrometheus(discard{}); err != nil {
			t.Fatalf("scrape %d: %v", scrapes, err)
		}
		r.Snapshot()
	}
}

// TestFirstUseConcurrent races many goroutines on the FIRST constructor call
// for one series: all must receive the same instance (creation happens under
// the registry lock), so no increment is lost to an orphaned duplicate.
func TestFirstUseConcurrent(t *testing.T) {
	r := NewRegistry()
	const n = 32
	counters := make([]*Counter, n)
	hists := make([]*Histogram, n)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			counters[i] = r.Counter("first_total", "")
			counters[i].Inc()
			hists[i] = r.Histogram("first_seconds", "", nil)
			hists[i].Observe(1)
		}(i)
	}
	close(gate)
	wg.Wait()
	for i := 1; i < n; i++ {
		if counters[i] != counters[0] {
			t.Fatal("concurrent first use created distinct counters")
		}
		if hists[i] != hists[0] {
			t.Fatal("concurrent first use created distinct histograms")
		}
	}
	if v := r.Counter("first_total", "").Value(); v != n {
		t.Errorf("counter = %d, want %d (increments lost to an orphan)", v, n)
	}
	if c := r.Histogram("first_seconds", "", nil).Count(); c != n {
		t.Errorf("histogram count = %d, want %d", c, n)
	}
}

type writerTo struct{ buf []byte }

func (w *writerTo) Write(p []byte) (int, error) { w.buf = append(w.buf[:0], p...); return len(p), nil }

// TestHistogramBuckets: observations land in the right buckets (le
// semantics: a value equal to a bound belongs to that bound's bucket).
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 100} {
		h.Observe(v)
	}
	got := h.snapshot()
	want := []int64{2, 2, 2, 2} // ≤1: {0.5,1}, ≤2: {1.5,2}, ≤4: {3,4}, +Inf: {5,100}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-117.0) > 1e-9 {
		t.Errorf("sum = %v", h.Sum())
	}
}

// TestHistogramQuantileUniform: against a uniform distribution on (0, 1000]
// with 10 equal buckets, interpolated quantiles are exact at every point.
func TestHistogramQuantileUniform(t *testing.T) {
	bounds := make([]float64, 10)
	for i := range bounds {
		bounds[i] = float64((i + 1) * 100)
	}
	h := NewHistogram(bounds)
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.10, 100}, {0.50, 500}, {0.90, 900}, {0.99, 990}, {1.0, 1000},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1.0 {
			t.Errorf("q=%v: got %v, want %v ±1", tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileSkewed: a point mass in one bucket interpolates
// within that bucket only, and overflow observations clamp to the top bound.
func TestHistogramQuantileSkewed(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(5) // bucket (1,10]
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // overflow
	}
	if q := h.Quantile(0.5); q < 1 || q > 10 {
		t.Errorf("p50 = %v, want within (1,10]", q)
	}
	if q := h.Quantile(0.99); q != 100 {
		t.Errorf("p99 = %v, want clamp to 100", q)
	}
	empty := NewHistogram(nil)
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

// TestGaugeFunc: scrape-time computation wins over the stored gauge value.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 3.0
	r.GaugeFunc("table_size", "", func() float64 { return n })
	if v := r.Snapshot()["table_size"]; v != 3.0 {
		t.Fatalf("gauge func snapshot = %v", v)
	}
	n = 8
	if v := r.Snapshot()["table_size"]; v != 8.0 {
		t.Fatalf("gauge func not recomputed: %v", v)
	}
}
