package load

import (
	"testing"
	"time"
)

// benchSustained runs one open-loop load run at a rate far above what the
// backend can sustain, so the measured completion rate is the backend's
// saturation throughput. Reported as ops/sec (run with -benchtime=1x; each
// iteration is a full run).
func benchSustained(b *testing.B, backend string, objects int) {
	for i := 0; i < b.N; i++ {
		rep, err := Run(Config{
			Backend:  backend,
			Rate:     2e6,
			Duration: 500 * time.Millisecond,
			Warmup:   100 * time.Millisecond,
			Objects:  objects,
			Queries:  objects / 100,
			Seed:     7,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Sustained, "ops/sec")
		b.ReportMetric(rep.Summary.P99*1e9, "p99-ns")
	}
}

func BenchmarkSustainedSerial10k(b *testing.B)  { benchSustained(b, "serial", 10_000) }
func BenchmarkSustainedSerial100k(b *testing.B) { benchSustained(b, "serial", 100_000) }
