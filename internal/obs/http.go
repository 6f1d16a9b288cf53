package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// NewMux returns an http.ServeMux exposing the registry, the stdlib
// profiling endpoints and views:
//
//	/metrics       Prometheus text exposition format
//	/debug/vars    flat JSON snapshot (expvar-style), histograms with p50/p90/p99
//	/healthz       "ok" (liveness)
//	/debug/pprof/  the full net/http/pprof suite (profile, heap, trace, …)
//	/debug/        the index of views (WriteIndex)
//	View.Path      each view, served by View.ServeHTTP
//
// Mount it on a dedicated listener (see ListenAndServe) so profiling and
// scraping never contend with the protocol's own ports.
func NewMux(r *Registry, views ...View) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/{$}", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteIndex(w, views, false)
		io.WriteString(w, "Also /metrics, /debug/vars, /healthz, /readyz, /debug/pprof/, and /debug/stream (SSE) where mounted.\n")
	})
	for _, v := range views {
		mux.Handle(v.Path, v)
	}
	return mux
}

// HTTPServer is a metrics/pprof endpoint bound to its own listener.
type HTTPServer struct {
	ln    net.Listener
	mux   *http.ServeMux
	srv   *http.Server
	ready atomic.Pointer[func() (string, bool)]
}

// SetReady installs fn as the readiness probe backing /readyz. fn returns a
// status line and whether the process is fit to serve; false answers 503.
// With no probe installed (or fn nil) /readyz mirrors /healthz: "ok", 200 —
// so callers without a cluster watchdog get a sane readiness endpoint for
// free. Safe to call at any time, including while serving.
func (h *HTTPServer) SetReady(fn func() (string, bool)) {
	if h == nil {
		return
	}
	if fn == nil {
		h.ready.Store(nil)
		return
	}
	h.ready.Store(&fn)
}

// ListenAndServe starts serving the registry (plus runtime gauges and
// pprof) and views (see NewMux) on addr — ":0" picks a free port, see Addr.
// The server runs until Close.
func ListenAndServe(addr string, r *Registry, views ...View) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	RegisterRuntime(r)
	h := &HTTPServer{ln: ln, mux: NewMux(r, views...)}
	h.mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		status, ok := "ok", true
		if fn := h.ready.Load(); fn != nil {
			status, ok = (*fn)()
		}
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		io.WriteString(w, status+"\n")
	})
	h.srv = &http.Server{
		Handler:           h.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go h.srv.Serve(ln)
	return h, nil
}

// Handle mounts one more handler, e.g. the SSE stream gateway, on the
// endpoint. Safe while serving.
func (h *HTTPServer) Handle(pattern string, handler http.Handler) { h.mux.Handle(pattern, handler) }

// Addr returns the bound address.
func (h *HTTPServer) Addr() net.Addr { return h.ln.Addr() }

// Close stops the endpoint.
func (h *HTTPServer) Close() error { return h.srv.Close() }
