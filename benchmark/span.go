package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span times one call the benchmark makes into a layer's public function:
// name, start, end, and the span that caused it. Spans are kept in memory
// and written out when the run ends. Each lane belongs to one goroutine, so
// recording takes no lock and a span's parent is the innermost open span of
// its lane.
type span struct {
	name       spanName
	parent     int32 // index in the lane, -1 for a root
	start, end int64 // ns since the tracer's epoch
}

type spanName uint8

const (
	spanOp spanName = iota
	spanGen
	spanEncode
	spanWrite
	spanPongWait
	spanHandle
	spanSink
	spanPublish
	spanHistory
	spanStep
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanOp:       "loadgen.op",
	spanGen:      "loadgen.gen",
	spanEncode:   "wire.EncodeTraced",
	spanWrite:    "remote.WriteFrame",
	spanPongWait: "remote.pong_wait",
	spanHandle:   "core.HandleUplink",
	spanSink:     "downlink.sink",
	spanPublish:  "stream.Publish",
	spanHistory:  "history.AppendResult",
	spanStep:     "sim.Run",
}

// maxSpansPerLane bounds a lane's buffer (24 B per span → 12 MB); a lane
// that fills stops recording and counts the drops. With at most four lanes
// a run's spans stay under 64 MB.
const maxSpansPerLane = 1 << 19

type lane struct {
	epoch   time.Time
	spans   []span
	open    []int32
	dropped int
}

// tracer owns the lanes of one traced run. every is the sampling rate: the
// issuers record one op in every.
type tracer struct {
	epoch time.Time
	every int
	lanes []*lane
}

func newTracer(every int) *tracer { return &tracer{epoch: time.Now(), every: every} }

// sampling is how many ops an issuer lets pass per op it records.
func (t *tracer) sampling() int {
	if t == nil {
		return 1
	}
	return t.every
}

// lane adds a lane; call before the goroutine that owns it starts. A nil
// tracer has only nil lanes, which record nothing.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{epoch: t.epoch}
	t.lanes = append(t.lanes, l)
	return l
}

// begin opens a span and returns its handle. A nil lane records nothing, so
// untraced code paths pass nil.
func (l *lane) begin(name spanName) int32 {
	if l == nil {
		return -1
	}
	start := time.Since(l.epoch).Nanoseconds()
	if len(l.spans) >= maxSpansPerLane {
		l.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	i := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, parent: parent, start: start})
	l.open = append(l.open, i)
	return i
}

// end closes the innermost open span, which must be the one begin returned.
func (l *lane) end(i int32) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = time.Since(l.epoch).Nanoseconds()
	l.open = l.open[:len(l.open)-1]
}

// add records a closed span measured elsewhere (an asynchronous wait), as a
// root of the lane.
func (l *lane) add(name spanName, start, end time.Time) {
	if l == nil || len(l.spans) >= maxSpansPerLane {
		return
	}
	l.spans = append(l.spans, span{name: name, parent: -1,
		start: start.Sub(l.epoch).Nanoseconds(), end: end.Sub(l.epoch).Nanoseconds()})
}

// spanStats summarises one span name over all lanes. The means leave out
// the longest 1 % of the spans: on a box with as many issuers as processors
// a goroutine is descheduled inside a span now and then, and one 40 ms gap
// in 10⁵ spans of 150 ns would quadruple their mean.
type spanStats struct {
	count    int
	meanNs   float64 // trimmed mean duration
	meanSelf float64 // trimmed mean self time
}

// trimmedMean sorts xs and returns the mean of all but its largest 1 %.
func trimmedMean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	keep := xs[:len(xs)-len(xs)/100]
	var sum int64
	for _, x := range keep {
		sum += x
	}
	return float64(sum) / float64(len(keep))
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are merged
// first and children are clipped to the parent, so a stretch covered twice
// is subtracted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := s.start // everything before it is already subtracted
		for _, k := range kids {
			lo, hi := max(spans[k].start, covered), min(spans[k].end, s.end)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// stats summarises every span name over every lane.
func (t *tracer) stats() [numSpanNames]spanStats {
	var durs, selfs [numSpanNames][]int64
	for _, l := range t.lanes {
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			durs[s.name] = append(durs[s.name], s.end-s.start)
			selfs[s.name] = append(selfs[s.name], self[i])
		}
	}
	var out [numSpanNames]spanStats
	for n := range out {
		out[n] = spanStats{count: len(durs[n]), meanNs: trimmedMean(durs[n]), meanSelf: trimmedMean(selfs[n])}
	}
	return out
}

// write stores the spans as benchmark/out/<workload>.trace.json: one array
// [lane, name, parent, start_ns, end_ns] per span, parent being the index of
// the parent among the same lane's spans or -1.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	dropped := 0
	for _, l := range t.lanes {
		dropped += l.dropped
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"sample_every\":%d,\"dropped\":%d,\"names\":[", workload, seed, t.every, dropped)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"columns\":[\"lane\",\"name\",\"parent\",\"start_ns\",\"end_ns\"],\"spans\":[")
	first := true
	for li, l := range t.lanes {
		for _, s := range l.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d]", li, s.name, s.parent, s.start, s.end)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
