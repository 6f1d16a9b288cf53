package obs

import (
	"encoding/json"
	"net/http"
	"strconv"

	"mobieyes/internal/obs/trace"
)

// AttachEvents mounts the flight-recorder endpoint on mux:
//
//	/debug/events    the recorder's event journal, newest-biased
//
// Query parameters (all optional, combinable):
//
//	trace=N      only events of causal chain N
//	oid=N        only events about object N
//	qid=N        only events about query N
//	actor=S      only events recorded by actor S (e.g. "router", "node3")
//	n=N          at most the newest N matches (default 100; n=0 means all)
//	causal=1     replace the oid/qid filters with the full causal closure:
//	             every chain that ever touched the object or query
//	format=json  JSON array instead of the human-readable text dump
//
// When rec is nil (tracing disabled) the endpoint answers 404 so probes can
// distinguish "no recorder" from "no events".
func AttachEvents(mux *http.ServeMux, rec *trace.Recorder) {
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, req *http.Request) {
		if rec == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		q := req.URL.Query()
		intParam := func(key string) (int64, bool) {
			v := q.Get(key)
			if v == "" {
				return 0, true
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				http.Error(w, "bad "+key+" parameter", http.StatusBadRequest)
				return 0, false
			}
			return n, true
		}
		tid, ok := intParam("trace")
		if !ok {
			return
		}
		oid, ok := intParam("oid")
		if !ok {
			return
		}
		qid, ok := intParam("qid")
		if !ok {
			return
		}
		limit := int64(100)
		if q.Get("n") != "" {
			if limit, ok = intParam("n"); !ok {
				return
			}
		}

		var evs []trace.Event
		if q.Get("causal") == "1" && (oid != 0 || qid != 0) {
			evs = rec.Causal(oid, qid)
		} else {
			evs = rec.Events(trace.Filter{
				Trace: trace.ID(tid),
				OID:   oid,
				QID:   qid,
				Actor: q.Get("actor"),
				Limit: int(limit),
			})
		}

		if q.Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(evs)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		trace.Format(w, evs)
	})
}
