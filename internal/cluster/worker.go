package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"

	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/telemetry"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/remote"
	"mobieyes/internal/wire"
)

// WorkerConfig configures a worker node. UoD and Alpha must match the
// router's grid exactly — cell indices in AssignRange and cells in op
// payloads are meaningful only over the same tessellation.
//
// Metrics, Costs and Trace are the worker's local observability surfaces,
// all optional. The worker instruments its hosted node against them and,
// when Metrics or Trace is set, ships telemetry batches (changed metric
// series and trace events) back to the router as NodeTelemetry frames —
// the push half of the cluster telemetry plane (DESIGN.md §14). Costs
// stays local: the router keeps every ledger the cluster views read.
type WorkerConfig struct {
	UoD   geo.Rect
	Alpha float64
	Opts  core.Options

	Metrics *obs.Registry
	Costs   *cost.Accountant
	Trace   *trace.Recorder
}

// Worker hosts an in-process core.NodeServer behind the cluster wire
// protocol: it accepts a router connection, performs the NodeHello
// handshake, then executes NodeOp/Handoff exchanges one at a time, streaming
// the node's downlink sends back as NodeDownlink frames before each
// acknowledgement. A worker serves one router connection at a time; a
// reconnecting router resumes against the same node state.
type Worker struct {
	g    *grid.Grid
	node *core.NodeServer
	capt *captureDown
	coll *telemetry.Collector
	rec  *trace.Recorder

	// id is the node index the router announced in its hello; epoch/lo/hi
	// mirror the latest span assignment, for operator introspection.
	id     uint32
	epoch  uint64
	lo, hi int
}

// NewWorker returns a worker over a fresh node engine, instrumented against
// the config's observability surfaces (when set).
func NewWorker(cfg WorkerConfig) *Worker {
	capt := &captureDown{}
	g := grid.New(cfg.UoD, cfg.Alpha)
	w := &Worker{g: g, node: core.NewNodeServer(g, cfg.Opts, capt), capt: capt, rec: cfg.Trace}
	w.node.Instrument(cfg.Metrics)
	if cfg.Costs != nil {
		w.node.Underlying().SetAccountant(cfg.Costs)
	}
	w.coll = telemetry.NewCollector(cfg.Metrics, cfg.Trace)
	return w
}

// Node exposes the hosted engine for worker-local wiring (instrumentation,
// snapshot persistence) outside the wire protocol.
func (w *Worker) Node() *core.NodeServer { return w.node }

// Span returns the worker's latest cell-range assignment.
func (w *Worker) Span() (epoch uint64, lo, hi int) { return w.epoch, w.lo, w.hi }

// Serve accepts router connections until the listener closes. Connections
// are served one at a time: the cluster has one router, and serial exchanges
// are the protocol's concurrency model.
func (w *Worker) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if err := w.ServeConn(conn); err != nil {
			var ve *VersionError
			if !errors.As(err, &ve) {
				return err
			}
			// A version-mismatched router was refused with a typed hello;
			// keep accepting.
		}
	}
}

// ServeConn runs the handshake and exchange loop over one router
// connection, returning nil on orderly disconnect (EOF or an opClose). A
// *VersionError is returned — after sending this build's hello so the peer
// can diagnose — when the router speaks a different protocol version.
func (w *Worker) ServeConn(conn net.Conn) error {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	payload, err := remote.ReadFrame(br)
	if err != nil {
		return fmt.Errorf("cluster: worker handshake: %w", err)
	}
	m, err := wire.Decode(payload)
	if err != nil {
		return fmt.Errorf("cluster: worker handshake: %w", err)
	}
	hello, ok := m.(msg.NodeHello)
	if !ok {
		return fmt.Errorf("cluster: worker handshake: first frame is %v, want NodeHello", m.Kind())
	}
	reply := msg.NodeHello{Node: hello.Node, Proto: ProtoVersion}
	if err := remote.WriteFrame(bw, wire.Encode(reply)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if hello.Proto != ProtoVersion {
		return &VersionError{Node: hello.Node, Got: hello.Proto}
	}
	w.id = hello.Node
	if w.rec != nil {
		// The worker learns its node index here, so the engine's trace
		// actor ("nodeN", matching the in-process cluster's naming) can
		// only be set now. Stitched cross-node timelines rely on it.
		w.node.SetTracer(w.rec, fmt.Sprintf("node%d", w.id))
	}

	for {
		payload, err := remote.ReadFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		m, tid, err := wire.DecodeTraced(payload)
		if err != nil {
			return fmt.Errorf("cluster: worker: %w", err)
		}
		closing := false
		switch mm := m.(type) {
		case msg.NodeHeartbeat:
			// A probe always flushes pending telemetry (forced collect),
			// then answers with the node's status: span epoch and range so
			// the router's watchdog can check assignment agreement, and
			// the op count for liveness progress.
			if err := w.shipTelemetry(bw, true); err != nil {
				return err
			}
			status := msg.NodeStatus{
				Node: w.id, Seq: mm.Seq,
				Epoch: w.epoch, Lo: uint32(w.lo), Hi: uint32(w.hi),
				Ops: uint64(w.node.Ops()),
			}
			if err := remote.WriteFrame(bw, wire.Encode(status)); err != nil {
				return err
			}
		case msg.AssignRange:
			// Stale assignments (an old epoch arriving after a rebalance
			// raced a reconnect) are discarded.
			if mm.Epoch >= w.epoch {
				w.epoch, w.lo, w.hi = mm.Epoch, int(mm.Lo), int(mm.Hi)
				w.coll.MarkEdge()
			}
		case msg.NodeOp:
			result, opErr := w.apply(mm.Code, mm.Data, trace.ID(tid))
			w.coll.NoteOp()
			if err := w.reply(bw, opReply(mm, result, opErr)); err != nil {
				return err
			}
			closing = opErr == nil && mm.Code == opClose
		case msg.CheckpointRequest:
			// Checkpoint pull: answer with the focal-slice delta since the
			// router's journaled sequence. A desync (Since not matching the
			// node's sequence) is answered as an error op-done — the router
			// treats it as a failed exchange.
			d, ckErr := w.node.CheckpointDelta(mm.Since)
			if ckErr != nil {
				if err := w.reply(bw, msg.NodeOpDone{Seq: 0, Code: opError, Data: []byte(ckErr.Error())}); err != nil {
					return err
				}
				break
			}
			ck := msg.NodeCheckpoint{Node: w.id, Seq: d.Seq, Slices: d.Slices}
			for _, oid := range d.Removed {
				ck.Removed = append(ck.Removed, uint32(oid))
			}
			if err := w.reply(bw, ck); err != nil {
				return err
			}
		case msg.Handoff:
			injErr := w.inject(mm, trace.ID(tid))
			var done msg.Message = msg.HandoffAck{Seq: mm.Seq, OID: mm.OID}
			if injErr != nil {
				done = msg.NodeOpDone{Seq: mm.Seq, Code: opError, Data: []byte(injErr.Error())}
			}
			if err := w.reply(bw, done); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cluster: worker: unexpected %v frame", m.Kind())
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if closing {
			return nil
		}
	}
}

// inject installs a Handoff frame's focal slice; the node refuses a slice
// that would corrupt it (core.NodeServer.InjectFocal).
func (w *Worker) inject(h msg.Handoff, tid trace.ID) error {
	err := w.node.InjectFocal(h.Slice, h.State, h.Cell, h.Relocate, h.Seq&adminSeqBit != 0, tid)
	w.coll.NoteOp()
	// A handoff changes which node owns a focal — the edge the router's
	// watchdog wants telemetry for promptly.
	w.coll.MarkEdge()
	return err
}

// opReply builds the NodeOpDone for an applied op.
func opReply(op msg.NodeOp, result []byte, err error) msg.Message {
	if err != nil {
		return msg.NodeOpDone{Seq: op.Seq, Code: opError, Data: []byte(err.Error())}
	}
	return msg.NodeOpDone{Seq: op.Seq, Code: op.Code, Data: result}
}

// reply drains the downlinks the op produced — in send order, ahead of the
// acknowledgement, so the router replays them before the NodeHandle call
// returns — then any due telemetry batch (likewise ahead of the done frame,
// so the router merges this op's trace events before the call completes and
// merge order tracks causal order), then the done frame.
func (w *Worker) reply(bw *bufio.Writer, done msg.Message) error {
	for _, snd := range w.capt.drain() {
		if err := remote.WriteFrame(bw, wire.EncodeTraced(snd.nd, snd.tid)); err != nil {
			return err
		}
	}
	if err := w.shipTelemetry(bw, false); err != nil {
		return err
	}
	return remote.WriteFrame(bw, wire.Encode(done))
}

// shipTelemetry writes the collector's next batch as a NodeTelemetry frame,
// if one is due (force makes it due). A nil or idle collector writes
// nothing.
func (w *Worker) shipTelemetry(bw *bufio.Writer, force bool) error {
	seq, payload := w.coll.Collect(force)
	if payload == nil {
		return nil
	}
	return remote.WriteFrame(bw, wire.Encode(msg.NodeTelemetry{Node: w.id, Seq: seq, Payload: payload}))
}

// apply decodes and executes one opcode against the hosted node. It
// refuses, with the node untouched, a payload that does not decode to the
// op's arguments and an op that would corrupt the node's tables: the router
// never sends one, but the worker port is open to any peer.
func (w *Worker) apply(code uint8, data []byte, tid trace.ID) ([]byte, error) {
	in := wire.NewReader(data)
	var out wire.Writer
	n := w.node
	// args checks that the payload held exactly the arguments read.
	args := func() error {
		if err := in.Done(); err != nil {
			return fmt.Errorf("cluster: op %d payload: %w", code, err)
		}
		return nil
	}
	switch code {
	case opCompleteInstall:
		expiry, raw := in.Time(), in.Blob()
		if err := args(); err != nil {
			return nil, err
		}
		qss, err := decodeQueryStates(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: CompleteInstall: %w", err)
		}
		if len(qss) != 1 {
			return nil, fmt.Errorf("cluster: CompleteInstall carries %d query states", len(qss))
		}
		q, maxVel := stateToQuery(qss[0])
		if _, ok := n.FocalCell(q.Focal); !ok {
			return nil, fmt.Errorf("cluster: CompleteInstall of query %d: focal %d is not held", q.ID, q.Focal)
		}
		if _, ok := n.Query(q.ID); ok {
			return nil, fmt.Errorf("cluster: CompleteInstall of query %d: already installed", q.ID)
		}
		n.CompleteInstall(q.ID, q, maxVel, expiry, tid)
	case opRemoveQuery:
		qid := in.QID()
		if err := args(); err != nil {
			return nil, err
		}
		removed, focal, stillFocal := n.RemoveQuery(qid, tid)
		out.Bool(removed)
		out.OID(focal)
		out.Bool(stillFocal)
	case opDueExpiries:
		now := in.Time()
		if err := args(); err != nil {
			return nil, err
		}
		writeIDs(&out, n.DueExpiries(now))
	case opUpsertFocal:
		oid, st := in.OID(), in.MotionState()
		if err := args(); err != nil {
			return nil, err
		}
		n.UpsertFocal(oid, st, tid)
	case opVelocityReport, opContainmentReport, opGroupContainmentReport:
		m, err := wire.Decode(data)
		if err != nil {
			return nil, err
		}
		switch mm := m.(type) {
		case msg.VelocityReport:
			n.VelocityReport(mm, tid)
		case msg.ContainmentReport:
			n.ContainmentReport(mm, tid)
		case msg.GroupContainmentReport:
			n.GroupContainmentReport(mm, tid)
		default:
			return nil, fmt.Errorf("cluster: op %d carries %v", code, m.Kind())
		}
	case opFocalCellChange:
		oid, st, cell := in.OID(), in.MotionState(), in.Cell()
		if err := args(); err != nil {
			return nil, err
		}
		if !w.g.Valid(cell) {
			return nil, fmt.Errorf("cluster: FocalCellChange of focal %d to %v: off the grid", oid, cell)
		}
		n.FocalCellChange(oid, st, cell, tid)
	case opFreshQueryStates:
		prev, next := in.Cell(), in.Cell()
		if err := args(); err != nil {
			return nil, err
		}
		writeQueryStates(&out, n.FreshQueryStates(nil, prev, next))
	case opClearResults, opDepartSweep, opDepartFocal, opFocalCell:
		oid := in.OID()
		if err := args(); err != nil {
			return nil, err
		}
		switch code {
		case opClearResults:
			n.ClearResults(oid, tid)
		case opDepartSweep:
			n.DepartSweep(oid, tid)
		case opDepartFocal:
			writeIDs(&out, n.DepartFocal(oid, tid))
		case opFocalCell:
			cell, ok := n.FocalCell(oid)
			out.Bool(ok)
			if ok {
				out.Cell(cell)
			}
		}
	case opExtractFocal:
		oid, admin := in.OID(), in.Bool()
		if err := args(); err != nil {
			return nil, err
		}
		return n.ExtractFocal(oid, admin, tid)
	case opResult, opResultSize, opQuery, opMonRegion:
		qid := in.QID()
		if err := args(); err != nil {
			return nil, err
		}
		switch code {
		case opResult:
			writeIDs(&out, n.Result(qid))
		case opResultSize:
			out.U32(uint32(n.ResultSize(qid)))
		case opQuery:
			q, ok := n.Query(qid)
			out.Bool(ok)
			if ok {
				writeQueryStates(&out, []msg.QueryState{queryToState(q, 0)})
			}
		case opMonRegion:
			mr, ok := n.MonRegion(qid)
			out.Bool(ok)
			if ok {
				out.CellRange(mr)
			}
		}
	case opResultContains:
		qid, oid := in.QID(), in.OID()
		if err := args(); err != nil {
			return nil, err
		}
		out.Bool(n.ResultContains(qid, oid))
	case opNearbyQueries:
		cell := in.Cell()
		if err := args(); err != nil {
			return nil, err
		}
		writeIDs(&out, n.NearbyQueries(cell))
	case opNumQueries, opQueryIDs, opFocalIDs, opOps, opSnapshotData, opCheckInvariants, opClose:
		if err := args(); err != nil {
			return nil, err
		}
		switch code {
		case opNumQueries:
			out.U32(uint32(n.NumQueries()))
		case opQueryIDs:
			writeIDs(&out, n.QueryIDs())
		case opFocalIDs:
			writeIDs(&out, n.FocalIDs())
		case opOps:
			out.U64(uint64(n.Ops()))
		case opSnapshotData:
			return n.SnapshotData()
		case opCheckInvariants:
			return nil, n.CheckInvariants()
		case opClose:
			return nil, n.Close()
		}
	default:
		return nil, fmt.Errorf("cluster: unknown opcode %d", code)
	}
	return out.Bytes(), nil
}

// captureDown buffers the node engine's downlink sends as NodeDownlink
// frames until the worker drains them onto the wire. The node executes one
// op at a time, so no locking is needed.
type captureDown struct {
	q []capturedSend
}

type capturedSend struct {
	nd  msg.NodeDownlink
	tid uint64
}

func (c *captureDown) Broadcast(region grid.CellRange, m msg.Message) {
	c.BroadcastTraced(region, m, 0)
}

func (c *captureDown) Unicast(oid model.ObjectID, m msg.Message) {
	c.UnicastTraced(oid, m, 0)
}

func (c *captureDown) BroadcastTraced(region grid.CellRange, m msg.Message, tid trace.ID) {
	c.q = append(c.q, capturedSend{
		nd:  msg.NodeDownlink{Broadcast: true, Region: region, Inner: wire.Encode(m)},
		tid: uint64(tid),
	})
}

func (c *captureDown) UnicastTraced(oid model.ObjectID, m msg.Message, tid trace.ID) {
	c.q = append(c.q, capturedSend{
		nd:  msg.NodeDownlink{Target: oid, Inner: wire.Encode(m)},
		tid: uint64(tid),
	})
}

func (c *captureDown) drain() []capturedSend {
	q := c.q
	c.q = nil
	return q
}

var _ core.TracedDownlink = (*captureDown)(nil)
