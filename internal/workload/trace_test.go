package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
)

func recordedWorkload(t *testing.T, steps int) (*Trace, *Workload) {
	t.Helper()
	cfg := Default(geo.NewRect(0, 0, 100, 100))
	cfg.NumObjects = 150
	cfg.NumQueries = 10
	cfg.VelocityChangesPerStep = 20
	w := New(cfg)
	return w.Record(steps), w
}

// replayed returns a FromTrace workload over tr with every recorded step
// played.
func replayed(t *testing.T, tr *Trace) *Workload {
	t.Helper()
	w, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	for range tr.Steps {
		w.Step()
	}
	return w
}

// TestReplayReproducesTrajectories: replaying a trace lands every object on
// exactly the position the original run produced. Past the last recorded
// step velocities hold, and no step reports a change.
func TestReplayReproducesTrajectories(t *testing.T) {
	tr, w := recordedWorkload(t, 50)
	p := replayed(t, tr)
	for i, o := range w.Objects {
		if p.Objects[i].Pos != o.Pos {
			t.Fatalf("object %d: replay at %v, original at %v", i, p.Objects[i].Pos, o.Pos)
		}
		if p.Objects[i].Vel != o.Vel {
			t.Fatalf("object %d: replay velocity %v, original %v", i, p.Objects[i].Vel, o.Vel)
		}
	}
	if changed := p.Step(); len(changed) != 0 {
		t.Fatalf("step after exhaustion changed %v", changed)
	}
	for i, o := range w.Objects {
		if p.Objects[i].Vel != o.Vel {
			t.Fatalf("object %d: velocity %v after exhaustion, want %v", i, p.Objects[i].Vel, o.Vel)
		}
	}
}

func TestFromTraceDoesNotAliasTrace(t *testing.T) {
	tr, _ := recordedWorkload(t, 1)
	a, errA := FromTrace(tr)
	b, errB := FromTrace(tr)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	a.Objects[0].Pos = geo.Pt(-999, -999)
	if b.Objects[0].Pos == geo.Pt(-999, -999) {
		t.Fatal("replays share object state")
	}
	if tr.Objects[0].Pos == geo.Pt(-999, -999) {
		t.Fatal("replay mutates the trace")
	}
}

// TestFromTraceRejectsIDs: a trace whose object IDs are not 1..N in order
// cannot drive the simulator, which indexes objects by ID−1.
func TestFromTraceRejectsIDs(t *testing.T) {
	for name, ids := range map[string][]model.ObjectID{
		"zero":      {0, 1},
		"gap":       {1, 3},
		"unordered": {2, 1},
	} {
		tr := &Trace{StepSeconds: 30}
		for _, id := range ids {
			tr.Objects = append(tr.Objects, ObjectInit{ID: id})
		}
		if _, err := FromTrace(tr); err == nil {
			t.Errorf("%s: FromTrace accepted IDs %v", name, ids)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr, _ := recordedWorkload(t, 25)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.StepSeconds != tr.StepSeconds {
		t.Fatalf("StepSeconds = %v, want %v", back.StepSeconds, tr.StepSeconds)
	}
	if len(back.Objects) != len(tr.Objects) || len(back.Steps) != len(tr.Steps) {
		t.Fatalf("shape mismatch: %d/%d objects, %d/%d steps",
			len(back.Objects), len(tr.Objects), len(back.Steps), len(tr.Steps))
	}
	for i := range tr.Objects {
		if back.Objects[i] != tr.Objects[i] {
			t.Fatalf("object %d differs: %+v vs %+v", i, back.Objects[i], tr.Objects[i])
		}
	}
	for s := range tr.Steps {
		if len(back.Steps[s].Changes) != len(tr.Steps[s].Changes) {
			t.Fatalf("step %d change count differs", s)
		}
		for c := range tr.Steps[s].Changes {
			if back.Steps[s].Changes[c] != tr.Steps[s].Changes[c] {
				t.Fatalf("step %d change %d differs", s, c)
			}
		}
	}

	// Replays of original and round-tripped traces agree.
	pa, pb := replayed(t, tr), replayed(t, back)
	for i := range pa.Objects {
		if pa.Objects[i].Pos != pb.Objects[i].Pos {
			t.Fatalf("object %d diverges after round trip", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":      nil,
		"bad magic":  []byte("NOPE0123456789"),
		"truncated":  []byte("MOBT"),
		"short body": append([]byte("MOBT"), 1, 0, 0, 0),
	}
	for name, data := range cases {
		if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadTrace accepted invalid input", name)
		}
	}
}

func TestReadRejectsCorruptCounts(t *testing.T) {
	tr, _ := recordedWorkload(t, 2)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the object count (bytes 14..17: magic 4 + version 2 + f64 8).
	blown := append([]byte(nil), data...)
	blown[14], blown[15], blown[16], blown[17] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadTrace(bytes.NewReader(blown)); err == nil {
		t.Error("ReadTrace accepted an implausible object count")
	}
	// Truncate mid-object-table.
	if _, err := ReadTrace(bytes.NewReader(data[:30])); err == nil {
		t.Error("ReadTrace accepted a truncated object table")
	}
}

func TestReadRejectsWrongVersion(t *testing.T) {
	tr, _ := recordedWorkload(t, 1)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version low byte
	if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
		t.Error("ReadTrace accepted an unsupported version")
	}
}

// TestReadHostileHeaderAllocatesLittle: a header announcing the largest
// plausible counts with no records behind them fails at the first missing
// record without reserving memory for the records it announced (100 M steps
// × 24 B would be 2.4 GB).
func TestReadHostileHeaderAllocatesLittle(t *testing.T) {
	le := binary.LittleEndian
	header := func(counts ...uint32) []byte {
		b := le.AppendUint16([]byte(traceMagic), traceVersion)
		b = le.AppendUint64(b, math.Float64bits(30))
		for _, c := range counts {
			b = le.AppendUint32(b, c)
		}
		return b
	}
	cases := map[string][]byte{
		"0 objects, max steps": header(0, maxTraceSteps),
		"max objects":          header(maxTraceObjects),
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadTrace(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.EOF) {
			t.Errorf("%s (%d bytes): err = %v, want EOF", name, len(data), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s (%d bytes): ReadTrace allocated %d bytes", name, len(data), alloc)
		}
	}
}

// TestReadRejectsTrailingBytes: ReadTrace accepts exactly what Write
// produces, so a well-formed trace followed by anything is an error.
func TestReadRejectsTrailingBytes(t *testing.T) {
	tr, _ := recordedWorkload(t, 2)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0)
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("ReadTrace accepted a trace followed by a trailing byte")
	}
}

// FuzzReadTrace: ReadTrace never panics on hostile bytes, and every input it
// accepts re-Writes to exactly the same bytes — one encoding per trace.
func FuzzReadTrace(f *testing.F) {
	cfg := Default(geo.NewRect(0, 0, 100, 100))
	cfg.NumObjects = 4
	cfg.NumQueries = 1
	cfg.VelocityChangesPerStep = 2
	var buf bytes.Buffer
	if err := New(cfg).Record(3).Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-Write to %d different bytes", len(data), out.Len())
		}
	})
}

func TestRecordCapturesBounces(t *testing.T) {
	// An object heading out of the UoD bounces; the reflected velocity must
	// be in the trace so replay follows the same path.
	cfg := Default(geo.NewRect(0, 0, 50, 50))
	cfg.NumObjects = 1
	cfg.NumQueries = 1
	cfg.VelocityChangesPerStep = 0
	w := New(cfg)
	w.Objects[0].Pos = geo.Pt(0.01, 25)
	w.Objects[0].Vel = geo.Vec(-100, 0) // heading out west
	w.Objects[0].Pos = geo.Pt(0, 25)

	tr := w.Record(5)
	p := replayed(t, tr)
	if p.Objects[0].Pos != w.Objects[0].Pos {
		t.Fatalf("bounce not replayed: %v vs %v", p.Objects[0].Pos, w.Objects[0].Pos)
	}
	if p.Objects[0].Pos.X < 0 {
		t.Fatalf("replayed object escaped west: %v", p.Objects[0].Pos)
	}
}

// TestProtocolOverTraceMatchesLiveRun: driving the MobiEyes protocol from a
// replayed trace yields exactly the results of driving it from the original
// workload — captured scenarios are faithful regression inputs.
func TestProtocolOverTraceMatchesLiveRun(t *testing.T) {
	// Record a scenario.
	cfg := Default(geo.NewRect(0, 0, 100, 100))
	cfg.NumObjects = 80
	cfg.NumQueries = 8
	cfg.VelocityChangesPerStep = 15
	wRecord := New(cfg)
	specs := append([]QuerySpec(nil), wRecord.Queries...)
	tr := wRecord.Record(30)

	// Replay the whole scenario.
	p := replayed(t, tr)
	// End-state results agree between original and replayed populations.
	for qi, spec := range specs {
		live := map[model.ObjectID]bool{}
		replay := map[model.ObjectID]bool{}
		fl := wRecord.Objects[int(spec.Focal)-1]
		fr := p.Objects[int(spec.Focal)-1]
		for i := range wRecord.Objects {
			lo, ro := wRecord.Objects[i], p.Objects[i]
			if spec.Filter.Matches(lo.Props) && lo.Pos.Dist2(fl.Pos) <= spec.Radius*spec.Radius {
				live[lo.ID] = true
			}
			if spec.Filter.Matches(ro.Props) && ro.Pos.Dist2(fr.Pos) <= spec.Radius*spec.Radius {
				replay[ro.ID] = true
			}
		}
		if len(live) != len(replay) {
			t.Fatalf("query %d: result sizes differ (%d vs %d)", qi, len(live), len(replay))
		}
		for oid := range live {
			if !replay[oid] {
				t.Fatalf("query %d: replay missing object %d", qi, oid)
			}
		}
	}
}
