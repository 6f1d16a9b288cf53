package main

import (
	"testing"
	"time"
)

// Every system must set up, run both phases without a failed op and pass its
// output checks; the phases here are a fraction of a second, so the numbers
// mean nothing.
func TestSystemsRunClean(t *testing.T) {
	const dur = 200 * time.Millisecond
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			sys, err := setup(w, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.close()
			tr := newTracer(w.spanEvery)
			p := sys.paced(dur, tr)
			if p.attempted == 0 || p.failed != 0 || len(p.problems) != 0 {
				t.Errorf("paced: attempted %d failed %d problems %v", p.attempted, p.failed, p.problems)
			}
			if p.samples == 0 || p.p50 <= 0 || p.p90 < p.p50 || p.max < p.p90 {
				t.Errorf("paced summary: %+v", p.pacedSummary)
			}
			s := sys.sat(dur, tr)
			if s.attempted == 0 || s.failed != 0 || len(s.problems) != 0 {
				t.Errorf("sat: attempted %d failed %d problems %v", s.attempted, s.failed, s.problems)
			}
			if s.opsPerSecond() <= 0 || s.downlinkBytesPerOp() <= 0 {
				t.Errorf("sat: %.0f ops/s, %.1f downlink B/op", s.opsPerSecond(), s.downlinkBytesPerOp())
			}
			if problems := sys.check(); len(problems) != 0 {
				t.Errorf("output checks: %v", problems)
			}
			if st := tr.stats(); st[spanOp].count+st[spanStep].count == 0 {
				t.Error("the traced phases recorded no span")
			}
		})
	}
}

// The isolated replays must agree with each other (the differential oracle)
// and fill every row of the layers an op stream passes through.
func TestIsolatedLayers(t *testing.T) {
	for _, spec := range []streamSpec{mixStream, focalStream} {
		rows, problems := isolatedLayers(spec, 2, 4000)
		if len(problems) != 0 {
			t.Errorf("queries=%d: %v", spec.queries, problems)
		}
		for _, name := range []string{
			"core.server.ns_per_op", "core.sharded.ns_per_op", "core.cluster.ns_per_op",
			"core.server.downlinks_per_op", "wire.up_decode_ns", "wire.down_encode_ns",
			"wire.bytes_per_up_msg", "wire.bytes_per_down_msg", "remote.frame_read_ns", "remote.frame_write_ns",
		} {
			if rows[name] <= 0 {
				t.Errorf("queries=%d: %s = %v", spec.queries, name, rows[name])
			}
		}
		known := map[string]bool{}
		for _, d := range perLayer {
			known[d.name] = true
		}
		for name := range rows {
			if !known[name] {
				t.Errorf("isolatedLayers reports %s, which spec.go does not list", name)
			}
		}
	}
}
