package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"mobieyes/internal/core"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/network"
	"mobieyes/internal/remote"
	"mobieyes/internal/sim"
	"mobieyes/internal/wire"
)

// replayOps is the length of the recorded op stream each layer is replayed
// with in isolation, single goroutine.
const replayOps = 100000

// recording is a workload's op stream, recorded once so that every layer
// sees the same messages: the set-up traffic and the first replayOps ops of
// the canonical order.
type recording struct {
	spec              streamSpec
	joins, infos, ops []msg.Message
}

func record(spec streamSpec, seed uint64, n int) *recording {
	rec := &recording{spec: spec}
	gen := newGenerator(spec, seed)
	cur := &rec.joins
	// populate cannot fail with these callbacks.
	_ = populate(gen,
		func(f model.ObjectID) model.QueryID { return model.QueryID(f) },
		func(m msg.Message) { *cur = append(*cur, m) },
		func() error { cur = &rec.infos; return nil })
	rec.ops = gen.record(n)
	return rec
}

// populate brings a fresh backend to the state the op stream starts from.
func (rec *recording) populate(srv core.ServerAPI) error {
	for _, m := range rec.joins {
		srv.HandleUplink(m)
	}
	install := installOn(srv)
	for f := model.ObjectID(1); int(f) <= rec.spec.queries; f++ {
		if qid := install(f); qid != model.QueryID(f) {
			return fmt.Errorf("query on focal %d got id %d, want %d", f, qid, f)
		}
	}
	for _, m := range rec.infos {
		srv.HandleUplink(m)
	}
	return nil
}

// replaySink is the downlink of a single-goroutine replay: it counts, keeps
// the first messages for the wire layer's downlink rows, and times itself so
// that the sink's time is not charged to the backend.
type replaySink struct {
	ln   *lane
	msgs int64
	keep []msg.Message
}

const keepDownlinks = 50000

func (s *replaySink) take(m msg.Message) {
	sp := s.ln.begin(spanSink)
	s.msgs++
	if len(s.keep) < cap(s.keep) {
		s.keep = append(s.keep, m)
	}
	s.ln.end(sp)
}

func (s *replaySink) Broadcast(_ grid.CellRange, m msg.Message) { s.take(m) }
func (s *replaySink) Unicast(_ model.ObjectID, m msg.Message)   { s.take(m) }

// calibration is the cost of the benchmark's own instruments, subtracted
// from what they measure.
type calibration struct {
	timerNs float64 // one time.Now/time.Since pair
	spanNs  float64 // one begin/end pair on a lane
}

func calibrate() calibration {
	const n = 200000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	timer := float64(time.Since(t0).Nanoseconds()) / n
	_ = sink
	ln := newTracer(1).lane()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		ln.end(ln.begin(spanOp))
	}
	return calibration{timerNs: timer, spanNs: float64(time.Since(t0).Nanoseconds()) / n}
}

// replayed is what one backend did with the recorded stream.
type replayed struct {
	nsPerOp, allocsPerOp float64
	kindNs               [msg.NumKinds]float64 // mean per uplink kind
	downlinks            int64
	snapshot             []byte
	// Ops during which migrations() advanced, and the rest.
	handoffs          int64
	handoffNs, restNs float64
	spans             int // spans the replay's callbacks recorded
}

// replay populates srv and times every op of the recording through
// HandleUplink. migrations, when non-nil, is read after every op to tell the
// ops that moved a focal object between nodes from the rest.
func replay(srv core.ServerAPI, rec *recording, sink *replaySink, cal calibration, migrations func() int64) (replayed, error) {
	var r replayed
	if err := rec.populate(srv); err != nil {
		return r, err
	}
	var kindTotal [msg.NumKinds]int64
	var kindCount [msg.NumKinds]int64
	var total, handoffTotal int64
	var moved int64
	if migrations != nil {
		moved = migrations()
	}
	spans0, down0 := 0, sink.msgs
	if sink.ln != nil {
		spans0 = len(sink.ln.spans)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, m := range rec.ops {
		t0 := time.Now()
		srv.HandleUplink(m)
		d := time.Since(t0).Nanoseconds()
		total += d
		k := m.Kind()
		kindTotal[k] += d
		kindCount[k]++
		if migrations != nil {
			if now := migrations(); now != moved {
				moved = now
				r.handoffs++
				handoffTotal += d
			}
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(rec.ops))
	if sink.ln != nil {
		r.spans = len(sink.ln.spans) - spans0
	}
	r.downlinks = sink.msgs - down0
	r.nsPerOp = float64(total)/n - cal.timerNs - float64(r.spans)*cal.spanNs/n
	r.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / n
	for k := range kindTotal {
		if kindCount[k] > 0 {
			r.kindNs[k] = float64(kindTotal[k])/float64(kindCount[k]) - cal.timerNs
		}
	}
	if r.handoffs > 0 {
		r.handoffNs = float64(handoffTotal)/float64(r.handoffs) - cal.timerNs
	}
	if rest := int64(len(rec.ops)) - r.handoffs; rest > 0 {
		r.restNs = float64(total-handoffTotal)/float64(rest) - cal.timerNs
	}
	var buf bytes.Buffer
	if err := srv.Snapshot(&buf); err != nil {
		return r, fmt.Errorf("snapshot: %w", err)
	}
	r.snapshot = buf.Bytes()
	if err := srv.CheckInvariants(); err != nil {
		return r, fmt.Errorf("CheckInvariants: %w", err)
	}
	return r, nil
}

// timeLoop runs f(0..n-1) three times and returns the median pass's ns per
// call and the allocations per call.
func timeLoop(n int, f func(i int)) (ns, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	var passes [3]float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for p := range passes {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		passes[p] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&m1)
	return median(passes[:]), float64(m1.Mallocs-m0.Mallocs) / float64(3*n)
}

// isolatedLayers replays the workload's recorded op stream through each
// layer on its own and returns their rows, plus the problems the output
// checks found: the serial, sharded, cluster and observed backends must end
// with byte-identical snapshots, the repo's differential oracle.
func isolatedLayers(spec streamSpec, seed uint64, ops int) (map[string]float64, []string) {
	out := make(map[string]float64)
	var problems []string
	cal := calibrate()
	rec := record(spec, seed, ops)
	g := grid.New(uod(), cellAlpha)

	opts := core.Options{}
	run := func(name string, sink *replaySink, srv core.ServerAPI, migrations func() int64) replayed {
		r, err := replay(srv, rec, sink, cal, migrations)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s replay: %v", name, err))
		}
		return r
	}

	serialSink := &replaySink{keep: make([]msg.Message, 0, keepDownlinks)}
	serial := run("serial", serialSink, core.NewServer(g, opts, serialSink), nil)

	shardedSink := &replaySink{}
	sharded := run("sharded", shardedSink, core.NewShardedServer(g, opts, shardedSink, runtime.NumCPU()), nil)

	clusterSink := &replaySink{}
	cs := core.NewClusterServer(g, opts, clusterSink, clusterNodes)
	cluster := run("cluster", clusterSink, cs, cs.Migrations)
	cs.Close()

	// The observed replay puts spans around its own callbacks, so the
	// tracer's statistics split publish from append; replay subtracts what
	// the spans themselves cost.
	tr := newTracer(1)
	obsSink := &replaySink{ln: tr.lane()}
	obsSrv := core.NewServer(g, opts, obsSink)
	stop := attachObservers(obsSrv, g, 0, obsSink.ln)
	observed := run("observed", obsSink, obsSrv, nil)
	stop()

	for name, r := range map[string]replayed{"sharded": sharded, "cluster": cluster, "observed": observed} {
		if !bytes.Equal(r.snapshot, serial.snapshot) {
			problems = append(problems, fmt.Sprintf("%s snapshot differs from serial after the same %d ops", name, len(rec.ops)))
		}
	}

	n := float64(len(rec.ops))
	out["core.server.ns_per_op"] = serial.nsPerOp
	out["core.server.allocs_per_op"] = serial.allocsPerOp
	out["core.server.velocity_ns"] = serial.kindNs[msg.KindVelocityReport]
	out["core.server.cellchange_ns"] = serial.kindNs[msg.KindCellChangeReport]
	out["core.server.containment_ns"] = serial.kindNs[msg.KindContainmentReport]
	out["core.server.downlinks_per_op"] = float64(serial.downlinks) / n

	out["core.sharded.ns_per_op"] = sharded.nsPerOp
	out["core.sharded.allocs_per_op"] = sharded.allocsPerOp
	out["core.sharded.router_overhead_ns"] = sharded.nsPerOp - serial.nsPerOp

	out["core.cluster.ns_per_op"] = cluster.nsPerOp
	out["core.cluster.allocs_per_op"] = cluster.allocsPerOp
	out["core.cluster.router_overhead_ns"] = cluster.nsPerOp - sharded.nsPerOp
	out["core.cluster.handoffs_per_op"] = float64(cluster.handoffs) / n
	out["core.cluster.handoff_us"] = cluster.handoffNs / 1e3
	out["core.cluster.nonhandoff_ns"] = cluster.restNs

	spans := tr.stats()
	out["obs.allon_overhead_ns_per_op"] = observed.nsPerOp - serial.nsPerOp
	// Publish's self time contains the history span's own begin and end.
	out["obs.stream_publish_ns"] = max(spans[spanPublish].meanSelf-cal.spanNs, 0)
	out["obs.history_append_ns"] = spans[spanHistory].meanNs
	out["obs.results_per_op"] = float64(spans[spanPublish].count) / n

	wireAndFrames(rec.ops, serialSink.keep, out)
	return out, problems
}

// wireAndFrames times the codec and the framing on the workload's own
// message mix: the recorded uplinks and the downlinks the serial replay
// produced from them.
func wireAndFrames(up, down []msg.Message, out map[string]float64) {
	upFrames := make([][]byte, len(up))
	out["wire.up_encode_ns"], _ = timeLoop(len(up), func(i int) { upFrames[i] = wire.EncodeTraced(up[i], 0) })
	out["wire.up_decode_ns"], out["wire.up_decode_allocs"] = timeLoop(len(up), func(i int) {
		if _, _, err := wire.DecodeTraced(upFrames[i]); err != nil {
			panic(err) // the benchmark's own encoding
		}
	})
	downFrames := make([][]byte, len(down))
	out["wire.down_encode_ns"], out["wire.down_encode_allocs"] = timeLoop(len(down), func(i int) { downFrames[i] = wire.EncodeTraced(down[i], 0) })
	out["wire.down_decode_ns"], _ = timeLoop(len(down), func(i int) {
		if _, _, err := wire.DecodeTraced(downFrames[i]); err != nil {
			panic(err)
		}
	})
	out["wire.bytes_per_up_msg"] = meanLen(upFrames)
	out["wire.bytes_per_down_msg"] = meanLen(downFrames)

	// The server reads uplink frames and writes downlink frames.
	var stream bytes.Buffer
	for _, f := range upFrames {
		_ = remote.WriteFrame(&stream, f) // bytes.Buffer writes cannot fail
	}
	var br *bufio.Reader
	out["remote.frame_read_ns"], out["remote.frame_read_allocs"] = timeLoop(len(upFrames), func(i int) {
		if i == 0 {
			br = bufio.NewReader(bytes.NewReader(stream.Bytes()))
		}
		if _, err := remote.ReadFrame(br); err != nil {
			panic(err)
		}
	})
	out["remote.frame_write_ns"], out["remote.frame_write_allocs"] = timeLoop(len(downFrames), func(i int) {
		_ = remote.WriteFrame(io.Discard, downFrames[i]) // io.Discard cannot fail
	})
}

func meanLen(frames [][]byte) float64 {
	if len(frames) == 0 {
		return 0
	}
	total := 0
	for _, f := range frames {
		total += len(f)
	}
	return float64(total) / float64(len(frames))
}

// coverLayer times network.Deployment.Cover on the monitoring regions of the
// engine's installed queries: the set-cover step of every broadcast.
func coverLayer(s *simSystem, out map[string]float64) {
	srv := s.e.Server()
	var regions []grid.CellRange
	for _, qid := range srv.QueryIDs() {
		if r, ok := srv.MonRegion(qid); ok {
			regions = append(regions, r)
		}
	}
	dep := network.NewDeployment(s.e.Grid(), sim.DefaultConfig().Alen)
	stations := 0
	ns, _ := timeLoop(len(regions), func(i int) { stations += len(dep.Cover(regions[i])) })
	out["network.cover_ns_per_call"] = ns
	if len(regions) > 0 {
		out["network.cover_stations_per_call"] = float64(stations) / float64(3*len(regions))
	}
}
