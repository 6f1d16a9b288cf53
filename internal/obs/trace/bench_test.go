package trace

import "testing"

// The acceptance number for this package (ISSUE 4): the disabled path —
// tracing compiled into the hot uplink path but turned off — must stay in
// the low single-digit nanoseconds, like the nil-metrics path in
// internal/obs. Results are recorded in BENCH_PR4.json and EXPERIMENTS.md.

// BenchmarkTraceEventDisabled is the hot-path cost with tracing off: a nil
// *Recorder, exactly as the server runs when no recorder is configured.
func BenchmarkTraceEventDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Event(ID(i), KindIngress, "server", 7, 3, "VelocityReport")
	}
}

// BenchmarkTraceEventEnabled is the recording cost with tracing on: one
// clock read, one atomic add and one uncontended slot lock. It reports 0
// allocs/op — the event is copied into a preallocated ring slot —
// and TestEventDoesNotAllocate holds it there.
func BenchmarkTraceEventEnabled(b *testing.B) {
	r := NewRecorder(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Event(ID(i), KindIngress, "server", 7, 3, "VelocityReport")
	}
}

// BenchmarkNextIDDisabled is the ingress-point cost of minting a trace ID
// with tracing off.
func BenchmarkNextIDDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.NextID()
	}
}

func BenchmarkTraceEventEnabledParallel(b *testing.B) {
	r := NewRecorder(4096)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Event(1, KindIngress, "server", 7, 3, "VelocityReport")
		}
	})
}
