package main

// The names in this file are the vocabulary BENCHMARK.json, the README and
// later issues use; spec_test.go holds them equal to BENCHMARK.json.

type systemKind int

const (
	kindTCP    systemKind = iota // remote.ListenAndServe on loopback
	kindEngine                   // a core backend called in-process
	kindSim                      // sim.Engine stepping the paper's workload
)

// workload is one set of inputs and the system they are run against.
type workload struct {
	name   string
	kind   systemKind
	stream streamSpec
	// cluster selects core.NewClusterServer over clusterNodes nodes instead
	// of core.NewShardedServer over nproc shards (engine systems only).
	cluster bool
	// observed attaches every observability hook the public API offers.
	observed bool
	// pacedRate is the open-loop rate of the paced phase in ops/s, chosen
	// well under the knee at the commit that introduced the benchmark, on
	// the 2-vCPU box it was written on (README, "The paced rates"). It is
	// part of the workload's definition; a later change must not retune it.
	pacedRate float64
	// spanEvery is the traced run's sampling rate: issuers record the
	// spans of one op in spanEvery, so a lane's buffer outlasts the run.
	spanEvery int
}

const clusterNodes = 4

// simObjects is Table 1's population; one sim_step op is one object-step.
const simObjects = 10000

var workloads = []workload{
	{name: "tcp_mix", kind: kindTCP, stream: mixStream, pacedRate: 20000, spanEvery: 16},
	{name: "tcp_focal", kind: kindTCP, stream: focalStream, pacedRate: 5000, spanEvery: 16},
	{name: "engine_mix", kind: kindEngine, stream: mixStream, pacedRate: 80000, spanEvery: 64},
	{name: "engine_obs", kind: kindEngine, stream: mixStream, observed: true, pacedRate: 80000, spanEvery: 64},
	{name: "cluster_focal", kind: kindEngine, stream: focalStream, cluster: true, pacedRate: 5000, spanEvery: 16},
	{name: "sim_step", kind: kindSim, pacedRate: 200000, spanEvery: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported number.
type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of the system sees; every workload reports all
// of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sat_ops_per_s", "1/s"},
	{"paced_p50_us", "us"},
	{"downlink_bytes_per_op", "B/op"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the traced run's rows. A layer that is not on a workload's
// path reports 0 for its rows on that workload.
var perLayer = []metricDef{
	{"loadgen.gen_ns_per_op", "ns"},
	{"loadgen.late_p90_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.paced_p90_us", "us"},
	{"loadgen.paced_p99_us", "us"},
	{"loadgen.paced_max_us", "us"},
	{"loadgen.paced_backlog_ops", "count"},
	{"loadgen.paced_invalid", "count"},
	{"loadgen.trace_overhead_frac", "fraction"},
	{"loadgen.failed_frac", "fraction"},

	{"wire.up_decode_ns", "ns"},
	{"wire.up_decode_allocs", "count"},
	{"wire.up_encode_ns", "ns"},
	{"wire.down_encode_ns", "ns"},
	{"wire.down_encode_allocs", "count"},
	{"wire.down_decode_ns", "ns"},
	{"wire.bytes_per_up_msg", "B"},
	{"wire.bytes_per_down_msg", "B"},

	{"remote.frame_read_ns", "ns"},
	{"remote.frame_write_ns", "ns"},
	{"remote.frame_read_allocs", "count"},
	{"remote.frame_write_allocs", "count"},
	{"remote.client_write_ns_per_op", "ns"},
	{"remote.pong_wait_p50_us", "us"},
	{"remote.frames_in_per_op", "count"},
	{"remote.frames_out_per_op", "count"},
	{"remote.bytes_out_per_op", "B"},
	{"remote.decode_errors", "count"},
	{"remote.dispatch_ns_per_op", "ns"},
	{"remote.unattributed_ns_per_op", "ns"},

	{"core.server.ns_per_op", "ns"},
	{"core.server.allocs_per_op", "count"},
	{"core.server.velocity_ns", "ns"},
	{"core.server.cellchange_ns", "ns"},
	{"core.server.containment_ns", "ns"},
	{"core.server.downlinks_per_op", "count"},

	{"core.sharded.ns_per_op", "ns"},
	{"core.sharded.allocs_per_op", "count"},
	{"core.sharded.router_overhead_ns", "ns"},
	{"core.sharded.parallel_speedup", "ratio"},

	{"core.cluster.ns_per_op", "ns"},
	{"core.cluster.allocs_per_op", "count"},
	{"core.cluster.router_overhead_ns", "ns"},
	{"core.cluster.handoffs_per_op", "count"},
	{"core.cluster.handoff_us", "us"},
	{"core.cluster.nonhandoff_ns", "ns"},

	{"obs.allon_overhead_ns_per_op", "ns"},
	{"obs.stream_publish_ns", "ns"},
	{"obs.history_append_ns", "ns"},
	{"obs.results_per_op", "count"},

	{"core.client.eval_ns_per_objstep", "ns"},
	{"core.client.evals_per_objstep", "count"},
	{"core.client.safe_skip_frac", "fraction"},
	{"core.client.avg_lqt", "count"},
	{"network.cover_ns_per_call", "ns"},
	{"network.cover_stations_per_call", "count"},
	{"sim.server_ns_per_step", "ns"},
	{"sim.step_p50_ms", "ms"},
	{"sim.step_p90_ms", "ms"},
	{"sim.uplinks_per_objstep", "count"},
	{"sim.downlink_msgs_per_objstep", "count"},
}
