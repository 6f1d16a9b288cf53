package telemetry

import (
	"testing"
	"time"

	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
)

// benchBatch builds a representative batch: a handful of metric series and a
// burst of trace events.
func benchBatch() *Batch {
	b := &Batch{}
	names := []string{"mobieyes_uplink_messages_total", "mobieyes_downlink_messages_total",
		"mobieyes_fot_rows", "mobieyes_sqt_rows", "mobieyes_rqi_rows", "mobieyes_ops_total"}
	for i, n := range names {
		b.Metrics = append(b.Metrics, obs.SeriesPoint{
			Name: n, Help: "bench", Counter: i%2 == 0,
			Labels: []string{"table", "fot"}, Value: float64(i * 1000),
		})
	}
	for i := 0; i < 32; i++ {
		b.Events = append(b.Events, trace.Event{
			Trace: trace.ID(i%4 + 1), Nanos: int64(i), Kind: trace.KindTable,
			Actor: "node1", OID: int64(i), Note: "fot update",
		})
	}
	return b
}

// BenchmarkEncodeBatch measures the worker-side delta-encode cost per batch.
func BenchmarkEncodeBatch(b *testing.B) {
	batch := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if EncodeBatch(batch) == nil {
			b.Fatal("empty payload")
		}
	}
}

// BenchmarkDecodeBatch measures the router-side parse cost per batch.
func BenchmarkDecodeBatch(b *testing.B) {
	p := EncodeBatch(benchBatch())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectIdle measures the per-reply overhead of a collector with
// nothing due — the cost every worker op reply pays.
func BenchmarkCollectIdle(b *testing.B) {
	reg := obs.NewRegistry()
	reg.Counter("x_total", "x").Add(1)
	c := NewCollector(reg, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, p := c.Collect(false); p != nil {
			b.Fatal("unexpected ship")
		}
	}
}

// BenchmarkCollectHeartbeat measures the full forced collect + encode path —
// the per-heartbeat telemetry cost on a worker with live counters.
func BenchmarkCollectHeartbeat(b *testing.B) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("x_total", "x")
	c := NewCollector(reg, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr.Add(1)
		if _, p := c.Collect(true); p == nil {
			b.Fatal("nothing shipped")
		}
	}
}

// BenchmarkPlaneApply measures the router-side merge cost per pushed batch.
func BenchmarkPlaneApply(b *testing.B) {
	p := New(Config{Metrics: obs.NewRegistry(), Trace: trace.NewRecorder(1024)})
	payload := EncodeBatch(benchBatch())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Apply(1, uint64(i+1), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWatchdogRound measures one full invariant evaluation round on a
// healthy four-node cluster with live ledgers.
func BenchmarkWatchdogRound(b *testing.B) {
	acct := cost.New()
	acct.Configure(0, 0, 4)
	for n := 0; n < 4; n++ {
		for k := 0; k < 4; k++ {
			acct.Traffic().ChargeUplink(msg.Kind(k), 64)
			acct.NodeUplink(n, msg.Kind(k), 64)
		}
	}
	clock := time.Unix(1000, 0)
	p := New(Config{Metrics: obs.NewRegistry(), Costs: acct,
		Now: func() time.Time { return clock }})
	v := View{Epoch: 3, Cells: 400}
	for n := 0; n < 4; n++ {
		lo, hi := n*100, (n+1)*100
		v.Spans = append(v.Spans, SpanView{Node: n, Lo: lo, Hi: hi, Live: true})
		p.ExpectNode(n)
		p.ApplyStatus(msg.NodeStatus{Node: uint32(n), Epoch: 3, Lo: uint32(lo), Hi: uint32(hi)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alerts := p.Round(v); len(alerts) != 0 {
			b.Fatalf("healthy round alerted: %v", alerts)
		}
	}
}
