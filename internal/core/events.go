package core

import (
	"mobieyes/internal/model"
	"mobieyes/internal/obs/trace"
)

// ResultEvent is a differential change to a query's result set: an object
// entered (Entered=true) or left the result. This is the continuous-query
// output of the system — exactly the stream the paper's MQ semantics
// defines, exposed so applications do not need to poll Result.
type ResultEvent struct {
	QID     model.QueryID
	OID     model.ObjectID
	Entered bool
}

// SetResultListener installs a callback invoked synchronously (on the
// server's goroutine/callsite) for every result change, including the
// implicit leaves when a query is removed. A nil listener disables
// notifications. Only one listener is supported; fan-out belongs to the
// caller (see internal/obs/stream.Tap).
func (s *Server) SetResultListener(fn func(ResultEvent)) {
	s.onResult = fn
}

// notifyResult is the single funnel every result add/remove passes through
// while the query's SQT row is still in place: it marks the query's focal
// dirty for the next checkpoint, emits a result event if a listener is
// installed, and records the flip on the flight recorder when tracing —
// result changes are the tail of every causal chain the oracle cares about.
func (s *Server) notifyResult(qid model.QueryID, oid model.ObjectID, entered bool) {
	if s.dirty != nil {
		s.dirty[s.sqt[qid].query.Focal] = struct{}{}
	}
	if s.rec != nil {
		note := "leave"
		if entered {
			note = "enter"
		}
		s.ev(trace.KindResult, oid, qid, note)
	}
	if s.onResult != nil {
		s.onResult(ResultEvent{QID: qid, OID: oid, Entered: entered})
	}
}
