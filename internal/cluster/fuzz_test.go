package cluster

import (
	"bytes"
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// Fuzz input: a sequence of steps, each a tag byte and its operands.
const (
	stepRawOp   = iota // opcode, u32-prefixed payload
	stepShaped         // opcode, then the op's arguments as small values
	stepHandoff        // slice source, target cell, relocate
	numStepKinds
)

// opsFuzz decodes fuzz input into worker steps. Shaped arguments come from
// small ranges, so oids, qids and cells collide often.
type opsFuzz struct {
	r      wire.Reader
	nextQ  model.QueryID // fresh qids, above every shaped one
	slices [][]byte      // slices extracted so far, for handoffs back in
}

func (f *opsFuzz) oid() model.ObjectID { return model.ObjectID(f.r.U8() % 8) }
func (f *opsFuzz) qid() model.QueryID  { return model.QueryID(f.r.U8() % 8) }

// cell spans a few cells past each edge of the 20×20 test grid.
func (f *opsFuzz) cell() grid.CellID {
	return grid.CellID{Col: int(f.r.U8()%26) - 3, Row: int(f.r.U8()%26) - 3}
}

func (f *opsFuzz) motion() model.MotionState {
	return model.MotionState{
		Pos: geo.Pt(float64(f.r.U8())/2, float64(f.r.U8())/2),
		Vel: geo.Vec(float64(int8(f.r.U8())), float64(int8(f.r.U8()))),
		Tm:  model.Time(f.r.U8()),
	}
}

func (f *opsFuzz) region() model.Region {
	switch v := f.r.U8(); v % 3 {
	case 0:
		return model.CircleRegion{R: float64(v)}
	case 1:
		return model.RectRegion{W: float64(v) / 4, H: 3}
	default:
		return model.PolygonRegion{Vertices: []geo.Point{geo.Pt(-2, -1), geo.Pt(3, -1), geo.Pt(0, float64(v)/8)}}
	}
}

func (f *opsFuzz) install(qid model.QueryID, focal model.ObjectID) []byte {
	var w wire.Writer
	w.Time(model.Time(f.r.U8()))
	q := model.Query{ID: qid, Focal: focal, Region: f.region(), Filter: model.Filter{Seed: 1, Permille: 1000}}
	writeQueryStates(&w, []msg.QueryState{queryToState(q, float64(f.r.U8()))})
	return w.Bytes()
}

// shaped builds a well-formed payload for code, exactly as RemoteNode
// would send it.
func (f *opsFuzz) shaped(code uint8) []byte {
	var w wire.Writer
	switch code {
	case opCompleteInstall:
		return f.install(f.qid(), f.oid())
	case opRemoveQuery, opResult, opResultSize, opQuery, opMonRegion:
		w.QID(f.qid())
	case opDueExpiries:
		w.Time(model.Time(f.r.U8()))
	case opUpsertFocal:
		w.OID(f.oid())
		w.MotionState(f.motion())
	case opVelocityReport:
		st := f.motion()
		return wire.Encode(msg.VelocityReport{OID: f.oid(), Pos: st.Pos, Vel: st.Vel, Tm: st.Tm})
	case opContainmentReport:
		return wire.Encode(msg.ContainmentReport{OID: f.oid(), QID: f.qid(), IsTarget: f.r.U8()%2 == 1})
	case opGroupContainmentReport:
		g := msg.GroupContainmentReport{OID: f.oid(), Focal: f.oid(), QIDs: []model.QueryID{f.qid(), f.qid()}}
		g.Bitmap = msg.NewBitmap(2)
		g.Bitmap.Set(int(f.r.U8()%2), true)
		return wire.Encode(g)
	case opFocalCellChange:
		w.OID(f.oid())
		w.MotionState(f.motion())
		w.Cell(f.cell())
	case opFreshQueryStates:
		w.Cell(f.cell())
		w.Cell(f.cell())
	case opClearResults, opDepartSweep, opDepartFocal, opFocalCell:
		w.OID(f.oid())
	case opExtractFocal:
		w.OID(f.oid())
		w.Bool(f.r.U8()%2 == 1)
	case opResultContains:
		w.QID(f.qid())
		w.OID(f.oid())
	case opNearbyQueries:
		w.Cell(f.cell())
	}
	return w.Bytes()
}

// FuzzWorkerOps drives one Worker with a sequence of NodeOps (well-formed
// or raw payloads) and Handoffs — what any peer past the hello can send.
// Nothing may panic, the node must pass CheckInvariants after every step,
// and a refused step must leave SnapshotData byte-identical.
//
// A step that upserts a focal is followed by an install of a fresh query
// on it, as the router always sends the pair (ClusterServer.applyFocalInfo):
// a FOT row without a query exists only between those two ops.
func FuzzWorkerOps(f *testing.F) {
	for _, seed := range workerOpSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := NewWorker(WorkerConfig{UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5.0})
		fz := &opsFuzz{r: wire.NewReader(data), nextQ: 100}
		for step := 0; step < 64 && fz.r.Err() == nil && len(fz.r.Rest()) > 0; step++ {
			before, _ := w.node.SnapshotData()
			var err error
			switch kind := fz.r.U8() % numStepKinds; kind {
			case stepRawOp, stepShaped:
				code := fz.r.U8() % (opClose + 2) // one past opClose: an unknown opcode
				var payload []byte
				if kind == stepRawOp {
					payload = fz.r.Blob()
				} else {
					payload = fz.shaped(code)
				}
				var out []byte
				out, err = w.apply(code, payload, 0)
				switch {
				case err == nil && code == opExtractFocal:
					fz.slices = append(fz.slices, out)
				case err == nil && code == opUpsertFocal:
					pr := wire.NewReader(payload)
					focal := pr.OID()
					fz.nextQ++
					if _, err := w.apply(opCompleteInstall, installPayload(fz.nextQ, focal), 0); err != nil {
						t.Fatalf("step %d: install after upsert of focal %d refused: %v", step, focal, err)
					}
				}
			case stepHandoff:
				var slice []byte
				if i := int(fz.r.U8()); i < len(fz.slices) {
					slice = fz.slices[i]
				} else {
					slice = fz.r.Blob()
				}
				h := msg.Handoff{Seq: 1, State: fz.motion(), Cell: fz.cell(), Relocate: fz.r.U8()%2 == 1, Slice: slice}
				err = w.inject(h, 0)
			}
			if cerr := w.node.CheckInvariants(); cerr != nil {
				t.Fatalf("step %d: %v", step, cerr)
			}
			if after, _ := w.node.SnapshotData(); err != nil && !bytes.Equal(before, after) {
				t.Fatalf("step %d: refused (%v) but changed the node", step, err)
			}
		}
	})
}

// workerOpSeeds writes the shapes of the two refusals the worker used to
// miss: an install on an unheld focal or of an installed qid, and handoff
// slices off the grid or already held.
func workerOpSeeds() [][]byte {
	var seeds [][]byte
	shaped := func(w *wire.Writer, code uint8, args ...uint8) {
		w.U8(stepShaped)
		w.U8(code)
		for _, a := range args {
			w.U8(a)
		}
	}
	// Install of qid 1 on focal 5, which the node does not hold; then hold
	// focal 5 (upsert + install of a fresh qid), install qid 1 on it twice.
	var w wire.Writer
	shaped(&w, opCompleteInstall, 1, 5, 0, 8, 15)
	shaped(&w, opUpsertFocal, 5, 104, 104, 0, 5, 1)
	shaped(&w, opCompleteInstall, 1, 5, 0, 8, 15)
	shaped(&w, opCompleteInstall, 1, 5, 0, 8, 15)
	seeds = append(seeds, w.Bytes())

	// Extract focal 5 and hand it back in: at an off-grid cell, twice at a
	// valid one (the second re-injects a held oid), then a crafted slice
	// whose cell and monitoring region are off the grid.
	w = wire.Writer{}
	shaped(&w, opUpsertFocal, 5, 104, 104, 0, 5, 1)
	shaped(&w, opExtractFocal, 5, 0)
	for _, cell := range [][2]uint8{{25, 25}, {13, 13}, {13, 13}} {
		w.U8(stepHandoff)
		w.U8(0) // the first extracted slice
		w.Raw([]byte{104, 104, 0, 5, 1, cell[0], cell[1], 0})
	}
	w.U8(stepHandoff)
	w.U8(0xFF)
	w.Blob(offGridSlice())
	w.Raw([]byte{104, 104, 0, 5, 1, 13, 13, 1})
	seeds = append(seeds, w.Bytes())
	return seeds
}

// offGridSlice is a focal slice of oid 6 at cell (500,500), its query's
// monitoring region around it: both off the test grid. It is extracted from
// a node on a grid large enough to hold them.
func offGridSlice() []byte {
	big := core.NewNodeServer(grid.New(geo.NewRect(0, 0, 5000, 5000), 5.0), core.Options{}, &captureDown{})
	big.UpsertFocal(6, model.MotionState{Pos: geo.Pt(2502, 2502)}, 0)
	big.CompleteInstall(7, model.Query{ID: 7, Focal: 6, Region: model.CircleRegion{R: 8}}, 1, 0, 0)
	slice, _ := big.ExtractFocal(6, true, 0)
	return slice
}
