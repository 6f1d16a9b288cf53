package core

import (
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/trace"
)

// TracedDownlink is an optional extension of Downlink. A transport that
// implements it receives the trace ID of the uplink (or API call) that
// caused each downlink message, so it can carry the ID onward — over the
// wire as a TracedVersion frame, or in-process to the receiving client.
// Transports that don't implement it simply get untagged sends; tracing
// degrades, behavior doesn't.
type TracedDownlink interface {
	Downlink
	BroadcastTraced(region grid.CellRange, m msg.Message, tid trace.ID)
	UnicastTraced(oid model.ObjectID, m msg.Message, tid trace.ID)
}

// TraceRef extracts the object and query a message is principally about,
// for tagging trace events. Zero means "none"; for multi-query messages the
// first query is used.
func TraceRef(m msg.Message) (oid, qid int64) {
	switch mm := m.(type) {
	case msg.PositionReport:
		return int64(mm.OID), 0
	case msg.VelocityReport:
		return int64(mm.OID), 0
	case msg.CellChangeReport:
		return int64(mm.OID), 0
	case msg.ContainmentReport:
		return int64(mm.OID), int64(mm.QID)
	case msg.GroupContainmentReport:
		if len(mm.QIDs) > 0 {
			return int64(mm.OID), int64(mm.QIDs[0])
		}
		return int64(mm.OID), 0
	case msg.FocalInfoResponse:
		return int64(mm.OID), 0
	case msg.DepartureReport:
		return int64(mm.OID), 0
	case msg.FocalInfoRequest:
		return int64(mm.OID), 0
	case msg.FocalNotify:
		return int64(mm.OID), int64(mm.QID)
	case msg.QueryInstall:
		if len(mm.Queries) > 0 {
			return int64(mm.Queries[0].Focal), int64(mm.Queries[0].QID)
		}
	case msg.QueryRemove:
		if len(mm.QIDs) > 0 {
			return 0, int64(mm.QIDs[0])
		}
	case msg.VelocityChange:
		if len(mm.Queries) > 0 {
			return int64(mm.Focal), int64(mm.Queries[0].QID)
		}
		return int64(mm.Focal), 0
	}
	return 0, 0
}

// uplinkIngress is the uplink ingress prelude of both servers, run when
// accounting or tracing is on: one TraceRef per op, shared by the
// per-entity uplink charge and the ingress event, which the recorder
// stamps itself. It returns the uplink's trace ID — minted when tid is
// zero and a recorder is attached.
func uplinkIngress(m msg.Message, tid trace.ID, actor string, acct *cost.Accountant, rec *trace.Recorder) trace.ID {
	oid, qid := TraceRef(m)
	if acct != nil {
		// Per-entity uplink attribution (protocol-level model bytes): charge
		// the object the message is about and the query it targets, if any.
		sz := m.Size()
		if oid != 0 {
			acct.ObjectUp(oid, sz)
		}
		if qid != 0 {
			acct.QueryUp(qid, sz)
		}
	}
	if rec != nil {
		if tid == 0 {
			tid = rec.NextID()
		}
		rec.Event(tid, trace.KindIngress, actor, oid, qid, m.Kind().String())
	}
	return tid
}

// SetTracer attaches a flight recorder; every table mutation, broadcast,
// unicast and result change is recorded, tagged with the trace ID of the
// uplink being dispatched. Nil disables tracing (the default). Not safe to
// call concurrently with HandleUplink.
func (s *Server) SetTracer(rec *trace.Recorder) { s.setTracer(rec, "server") }

func (s *Server) setTracer(rec *trace.Recorder, actor string) {
	s.rec = rec
	s.actor = actor
	s.tdown, _ = s.down.(TracedDownlink)
}

// ev records one event tagged with the trace ID of the dispatch in
// progress. Free when no recorder is attached.
func (s *Server) ev(k trace.Kind, oid model.ObjectID, qid model.QueryID, note string) {
	if s.rec == nil {
		return
	}
	s.rec.Event(s.curTrace, k, s.actor, int64(oid), int64(qid), note)
}

// beginRoot starts a fresh trace for an API-level ingress (install, remove,
// expire) unless a trace is already in flight; endRoot closes it. Uplink
// ingress uses HandleUplinkTraced instead.
func (s *Server) beginRoot(oid model.ObjectID, qid model.QueryID, note string) bool {
	if s.rec == nil || s.curTrace != 0 {
		return false
	}
	s.curTrace = s.rec.NextID()
	s.rec.Event(s.curTrace, trace.KindIngress, s.actor, int64(oid), int64(qid), note)
	return true
}

func (s *Server) endRoot(root bool) {
	if root {
		s.curTrace = 0
	}
}

// unicast funnels every server unicast so it can be recorded and, when the
// transport supports it, tagged with the causing trace ID.
func (s *Server) unicast(oid model.ObjectID, m msg.Message) {
	s.unicastAs(s.actor, s.curTrace, oid, m)
}

// sendPath is what both servers send through: the downlink, its traced
// extension (set by SetTracer when the downlink implements it), the flight
// recorder (nil = off) and the cost accountant (nil = off).
type sendPath struct {
	down  Downlink
	tdown TracedDownlink
	rec   *trace.Recorder
	acct  *cost.Accountant
}

// unicastAs is the one unicast funnel: the send is charged to the receiving
// object — and, for query-scoped kinds (FocalNotify, QueryInstall), to the
// query — recorded as actor's under tid, and handed to the transport, traced
// when tracing is on and the transport can carry tid.
func (p *sendPath) unicastAs(actor string, tid trace.ID, oid model.ObjectID, m msg.Message) {
	if p.acct != nil {
		_, qid := TraceRef(m)
		sz := m.Size()
		p.acct.ObjectDown(int64(oid), sz, 1)
		if qid != 0 {
			p.acct.QueryDown(qid, sz, 1)
		}
	}
	if p.rec != nil {
		_, qid := TraceRef(m)
		p.rec.Event(tid, trace.KindUnicast, actor, int64(oid), qid, m.Kind().String())
		if p.tdown != nil {
			p.tdown.UnicastTraced(oid, m, tid)
			return
		}
	}
	p.down.Unicast(oid, m)
}
