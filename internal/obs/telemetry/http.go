package telemetry

import (
	"encoding/json"
	"net/http"
)

// Attach mounts the cluster telemetry endpoint on mux:
//
//	/debug/cluster    health, active alerts, and per-node telemetry state
//
// Query parameters:
//
//	format=json    JSON Snapshot instead of the human-readable text report
//
// When p is nil (no telemetry plane — serial or -shards mode) the endpoint
// answers 404, so probes can distinguish "no cluster" from "healthy
// cluster", matching cost.Attach's convention for /debug/costs.
func Attach(mux *http.ServeMux, p *Plane) {
	mux.HandleFunc("/debug/cluster", func(w http.ResponseWriter, req *http.Request) {
		if p == nil {
			http.Error(w, "cluster telemetry disabled", http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(p.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		p.WriteHealth(w)
	})
}
