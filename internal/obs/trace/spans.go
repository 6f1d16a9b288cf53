package trace

import "time"

// Stage is one segment of the uplink pipeline, in causal order. The
// decomposition telescopes: each stage's span runs from the end of the
// previous present stage to that stage's last event, so the present stages
// of one trace always sum exactly to its end-to-end duration.
type Stage uint8

const (
	// StageDispatch is ingress → first table mutation: trace minting, node
	// routing, lock acquisition, queueing.
	StageDispatch Stage = iota
	// StageTable covers the server table mutations (FOT/SQT/RQI, migration,
	// result flips).
	StageTable
	// StageFanout covers downlink send: broadcast enumeration and unicast
	// emission into the transport.
	StageFanout
	// StageDeliver covers transport transit until the last client delivery.
	StageDeliver
	// NumStages is the number of pipeline stages.
	NumStages
)

var stageNames = [NumStages]string{"dispatch", "table", "fanout", "deliver"}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "?"
}

// Spans is the per-stage decomposition of one trace. Present[s] reports
// whether the trace recorded any event of stage s; absent stages have zero
// duration and Σ(present stage durations) == E2E exactly.
type Spans struct {
	Trace   ID
	E2E     time.Duration
	Stage   [NumStages]time.Duration
	Present [NumStages]bool
}

// stageOf classifies an event kind into a pipeline stage. ok=false means the
// kind carries no timing information (ingress anchors the trace separately;
// drops and notes are annotations).
func stageOf(k Kind) (Stage, bool) {
	switch k {
	case KindTable, KindMigrate, KindResult:
		return StageTable, true
	case KindBroadcast, KindUnicast:
		return StageFanout, true
	case KindDeliver:
		return StageDeliver, true
	}
	return 0, false
}

// Decompose derives per-stage spans from one trace's events. The events may
// arrive in any order and from any subset of the pipeline — a dropped
// downlink, a disabled client, or ring overwrite simply leaves that stage
// absent. ok is false when no ingress event is present (the trace's start
// was overwritten), in which case no timing can be anchored.
//
// The construction is a cumulative-max sweep in causal stage order: let cur
// start at the ingress timestamp; for each present stage, its span ends at
// max(cur, latest event of that stage) and starts at cur. Clock
// non-monotonicity (an event stamped before the previous stage's end)
// clamps to a zero-length contribution instead of going negative, so the
// telescoping identity Σ spans == E2E holds unconditionally. Never panics.
func Decompose(evs []Event) (Spans, bool) {
	var sp Spans
	var ingress int64
	haveIngress := false
	var first, last [NumStages]int64
	for _, e := range evs {
		if e.Kind == KindIngress {
			if !haveIngress || e.Nanos < ingress {
				ingress = e.Nanos
				haveIngress = true
			}
			sp.Trace = e.Trace
			continue
		}
		s, ok := stageOf(e.Kind)
		if !ok {
			continue
		}
		if !sp.Present[s] {
			first[s], last[s] = e.Nanos, e.Nanos
			sp.Present[s] = true
		} else {
			if e.Nanos < first[s] {
				first[s] = e.Nanos
			}
			if e.Nanos > last[s] {
				last[s] = e.Nanos
			}
		}
		if sp.Trace == 0 {
			sp.Trace = e.Trace
		}
	}
	if !haveIngress {
		return Spans{}, false
	}
	cur := ingress
	if sp.Present[StageTable] {
		// Dispatch is the gap between ingress and the first table touch:
		// routing, locking, queueing. It exists only when a table event
		// anchors its end.
		lo := max64(first[StageTable], cur)
		sp.Stage[StageDispatch] = time.Duration(lo-cur) * time.Nanosecond
		sp.Present[StageDispatch] = true
		hi := max64(last[StageTable], lo)
		sp.Stage[StageTable] = time.Duration(hi-lo) * time.Nanosecond
		cur = hi
	}
	for _, s := range [...]Stage{StageFanout, StageDeliver} {
		if !sp.Present[s] {
			continue
		}
		end := max64(last[s], cur)
		sp.Stage[s] = time.Duration(end-cur) * time.Nanosecond
		cur = end
	}
	sp.E2E = time.Duration(cur-ingress) * time.Nanosecond
	return sp, true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
