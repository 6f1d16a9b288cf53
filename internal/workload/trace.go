package workload

// Mobility traces. A Trace captures the initial population (positions,
// velocities, speed bounds, property keys) and the exact sequence of
// per-step velocity changes of a workload run, in a compact binary format.
// Replaying a trace reproduces every trajectory bit-for-bit, which makes
// captured scenarios portable: a failing protocol run can be recorded once
// and replayed deterministically in a regression test, independent of the
// random process that produced it.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
)

const (
	// traceMagic identifies the trace format; traceVersion gates
	// incompatible changes.
	traceMagic   = "MOBT"
	traceVersion = uint16(1)

	// Plausibility bounds on a trace file's header counts.
	maxTraceObjects = 10_000_000
	maxTraceSteps   = 100_000_000
	// tracePrealloc caps the capacity ReadTrace reserves from a header count
	// before the records it announces have arrived: the counts are untrusted,
	// so the slices grow with the records actually read.
	tracePrealloc = 1024
)

// ObjectInit is the initial state of one recorded object.
type ObjectInit struct {
	ID       model.ObjectID
	Pos      geo.Point
	Vel      geo.Vector
	MaxVel   float64
	PropsKey uint64
}

// VelocityChange is one scripted velocity assignment: at the step it
// belongs to, object Index (into the Objects slice) switches to Vel before
// moving.
type VelocityChange struct {
	Index uint32
	Vel   geo.Vector
}

// TraceStep is the set of velocity changes applied at the start of one step.
type TraceStep struct {
	Changes []VelocityChange
}

// Trace is a recorded mobility scenario.
type Trace struct {
	StepSeconds float64
	Objects     []ObjectInit
	Steps       []TraceStep
}

// Record runs w's mobility process for the given number of steps and
// captures it: the returned trace replays to exactly the trajectories the
// workload produced. The workload's objects are advanced as a side effect
// (recording *is* a run). Each step is one Step; the final velocity of
// every object it changed — by a border bounce or by the perturbation
// process — goes into the trace.
func (w *Workload) Record(steps int) *Trace {
	t := &Trace{StepSeconds: w.cfg.StepSeconds}
	for _, o := range w.Objects {
		t.Objects = append(t.Objects, ObjectInit{
			ID: o.ID, Pos: o.Pos, Vel: o.Vel, MaxVel: o.MaxVel, PropsKey: o.Props.Key,
		})
	}
	before := make([]geo.Vector, len(w.Objects))
	for s := 0; s < steps; s++ {
		for i, o := range w.Objects {
			before[i] = o.Vel
		}
		w.Step()
		var st TraceStep
		for i, o := range w.Objects {
			if o.Vel != before[i] {
				st.Changes = append(st.Changes, VelocityChange{Index: uint32(i), Vel: o.Vel})
			}
		}
		t.Steps = append(t.Steps, st)
	}
	return t
}

// FromTrace returns a workload over a fresh copy of the trace's recorded
// population, with no queries. Its PerturbStep plays the recorded steps in
// order and changes no velocity once they run out; BounceAtBorders does
// nothing, because a trace carries no universe of discourse and its steps
// already hold every bounce. So Step replays the recorded trajectories
// bit-for-bit. Object i must have ID i+1, as in a generated workload (the
// simulator indexes objects by ID−1); any other trace is an error.
func FromTrace(tr *Trace) (*Workload, error) {
	w := &Workload{
		cfg:    Config{NumObjects: len(tr.Objects), StepSeconds: tr.StepSeconds},
		replay: tr,
	}
	for i, oi := range tr.Objects {
		if oi.ID != model.ObjectID(i+1) {
			return nil, fmt.Errorf("workload: trace object %d has ID %d, want %d", i, oi.ID, i+1)
		}
		w.Objects = append(w.Objects, &model.MovingObject{
			ID: oi.ID, Pos: oi.Pos, Vel: oi.Vel, MaxVel: oi.MaxVel,
			Props: model.Props{Key: oi.PropsKey},
		})
	}
	return w, nil
}

// replayStep applies the next recorded step's velocity changes and returns
// the indices they touched; past the last recorded step it changes nothing.
func (w *Workload) replayStep() []int {
	if w.played >= len(w.replay.Steps) {
		return nil
	}
	st := w.replay.Steps[w.played]
	w.played++
	changed := make([]int, 0, len(st.Changes))
	for _, ch := range st.Changes {
		w.Objects[ch.Index].Vel = ch.Vel
		changed = append(changed, int(ch.Index))
	}
	return changed
}

// Write serializes the trace. The format is little-endian binary:
// magic, version, step seconds, object table, then per-step change lists.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU16 := func(v uint16) { var b [2]byte; le.PutUint16(b[:], v); bw.Write(b[:]) }
	writeU32 := func(v uint32) { var b [4]byte; le.PutUint32(b[:], v); bw.Write(b[:]) }
	writeU64 := func(v uint64) { var b [8]byte; le.PutUint64(b[:], v); bw.Write(b[:]) }
	writeF := func(v float64) { writeU64(math.Float64bits(v)) }

	writeU16(traceVersion)
	writeF(t.StepSeconds)
	writeU32(uint32(len(t.Objects)))
	for _, o := range t.Objects {
		writeU32(uint32(o.ID))
		writeF(o.Pos.X)
		writeF(o.Pos.Y)
		writeF(o.Vel.X)
		writeF(o.Vel.Y)
		writeF(o.MaxVel)
		writeU64(o.PropsKey)
	}
	writeU32(uint32(len(t.Steps)))
	for _, st := range t.Steps {
		writeU32(uint32(len(st.Changes)))
		for _, ch := range st.Changes {
			writeU32(ch.Index)
			writeF(ch.Vel.X)
			writeF(ch.Vel.Y)
		}
	}
	return bw.Flush()
}

// traceReader decodes little-endian fields and latches the first read
// error: once it is set, reads are no-ops whose values the caller discards
// when it checks err.
type traceReader struct {
	br  *bufio.Reader
	buf [8]byte
	err error
}

func (r *traceReader) read(n int) []byte {
	b := r.buf[:n]
	if r.err == nil {
		_, r.err = io.ReadFull(r.br, b)
	}
	return b
}

func (r *traceReader) u16() uint16  { return binary.LittleEndian.Uint16(r.read(2)) }
func (r *traceReader) u32() uint32  { return binary.LittleEndian.Uint32(r.read(4)) }
func (r *traceReader) u64() uint64  { return binary.LittleEndian.Uint64(r.read(8)) }
func (r *traceReader) f64() float64 { return math.Float64frombits(r.u64()) }

// ReadTrace deserializes a trace written by Write. It accepts exactly what
// Write produces: bytes after the last step are an error.
func ReadTrace(r io.Reader) (*Trace, error) {
	rd := &traceReader{br: bufio.NewReader(r)}
	head := rd.read(len(traceMagic))
	if rd.err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", rd.err)
	}
	if string(head) != traceMagic {
		return nil, errors.New("trace: bad magic (not a trace file)")
	}
	ver := rd.u16()
	if rd.err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", rd.err)
	}
	if ver != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	t := &Trace{StepSeconds: rd.f64()}
	if rd.err != nil {
		return nil, fmt.Errorf("trace: reading step seconds: %w", rd.err)
	}
	if t.StepSeconds <= 0 || math.IsNaN(t.StepSeconds) {
		return nil, fmt.Errorf("trace: invalid step seconds %v", t.StepSeconds)
	}
	nObj := rd.u32()
	if rd.err != nil {
		return nil, fmt.Errorf("trace: reading object count: %w", rd.err)
	}
	if nObj > maxTraceObjects {
		return nil, fmt.Errorf("trace: implausible object count %d", nObj)
	}
	t.Objects = make([]ObjectInit, 0, min(nObj, tracePrealloc))
	for i := uint32(0); i < nObj; i++ {
		var o ObjectInit
		o.ID = model.ObjectID(rd.u32())
		o.Pos.X, o.Pos.Y = rd.f64(), rd.f64()
		o.Vel.X, o.Vel.Y = rd.f64(), rd.f64()
		o.MaxVel = rd.f64()
		o.PropsKey = rd.u64()
		if rd.err != nil {
			return nil, fmt.Errorf("trace: reading object %d: %w", i, rd.err)
		}
		t.Objects = append(t.Objects, o)
	}
	nSteps := rd.u32()
	if rd.err != nil {
		return nil, fmt.Errorf("trace: reading step count: %w", rd.err)
	}
	if nSteps > maxTraceSteps {
		return nil, fmt.Errorf("trace: implausible step count %d", nSteps)
	}
	t.Steps = make([]TraceStep, 0, min(nSteps, tracePrealloc))
	for s := uint32(0); s < nSteps; s++ {
		nCh := rd.u32()
		if rd.err != nil {
			return nil, fmt.Errorf("trace: reading step %d: %w", s, rd.err)
		}
		if uint64(nCh) > uint64(nObj)*4 {
			return nil, fmt.Errorf("trace: implausible change count %d at step %d", nCh, s)
		}
		var st TraceStep
		if nCh > 0 {
			// nCh ≤ 4·nObj, and nObj objects have been read: this allocation
			// is bounded by the input consumed so far.
			st.Changes = make([]VelocityChange, nCh)
		}
		for c := range st.Changes {
			ch := &st.Changes[c]
			ch.Index = rd.u32()
			ch.Vel.X, ch.Vel.Y = rd.f64(), rd.f64()
			if rd.err != nil {
				return nil, fmt.Errorf("trace: reading change %d of step %d: %w", c, s, rd.err)
			}
			if ch.Index >= nObj {
				return nil, fmt.Errorf("trace: change references object %d of %d", ch.Index, nObj)
			}
		}
		t.Steps = append(t.Steps, st)
	}
	if _, err := rd.br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, errors.New("trace: trailing bytes after the last step")
		}
		return nil, fmt.Errorf("trace: reading end of trace: %w", err)
	}
	return t, nil
}
