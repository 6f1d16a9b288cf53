package stream

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mobieyes/internal/obs"
)

// Gateway serves the tap over HTTP as Server-Sent Events with
// snapshot-then-delta semantics:
//
//	GET /debug/stream            firehose: every query's events
//	GET /debug/stream?qid=N      one query's events
//	GET /debug/stream?buf=N      per-connection buffer (events; clamped)
//
// On connect the client receives one `snapshot` event per query (sequenced
// members, SSE id "qid:seq"), then a `live` marker, then `result` deltas
// whose ids continue each query's sequence with no gap. A client that
// cannot keep up is evicted: it receives a final `evicted` event (best
// effort) and the connection closes; reconnecting re-snapshots.
//
// Writes carry a per-write deadline so a stalled TCP peer cannot pin the
// fan-out goroutine — and the engine is insulated regardless, because the
// engine only ever appends to the bounded subscriber buffer.
type Gateway struct {
	tap *Tap

	// BufCap is the default per-connection event buffer (default 1024).
	BufCap int
	// WriteTimeout is the per-write deadline (default 5s).
	WriteTimeout time.Duration
	// Heartbeat is the idle keep-alive comment interval (default 15s).
	Heartbeat time.Duration

	costHook func(bytes int)

	conns        obs.Counter // connections accepted
	evictedConns obs.Counter // connections closed by eviction
	bytesOut     obs.Counter // SSE bytes written
}

// NewGateway returns a gateway over tap with default limits.
func NewGateway(tap *Tap) *Gateway {
	return &Gateway{tap: tap, BufCap: 1024, WriteTimeout: 5 * time.Second, Heartbeat: 15 * time.Second}
}

// SetCostHook installs the encode-boundary charging hook (e.g.
// cost.Accountant.GatewayEgress): it is called with the exact SSE bytes of
// every write. Call before traffic; nil disables.
func (g *Gateway) SetCostHook(fn func(bytes int)) {
	if g == nil {
		return
	}
	g.costHook = fn
}

// Instrument registers gateway counters on reg (the tap is instrumented
// separately):
//
//	mobieyes_stream_connections_total         SSE connections accepted
//	mobieyes_stream_evicted_connections_total connections closed by eviction
//	mobieyes_stream_egress_bytes_total        SSE bytes written
func (g *Gateway) Instrument(reg *obs.Registry) {
	if g == nil || reg == nil {
		return
	}
	reg.RegisterCounter("mobieyes_stream_connections_total",
		"SSE stream connections accepted.", &g.conns)
	reg.RegisterCounter("mobieyes_stream_evicted_connections_total",
		"SSE stream connections closed by slow-consumer eviction.", &g.evictedConns)
	reg.RegisterCounter("mobieyes_stream_egress_bytes_total",
		"SSE bytes written to stream subscribers.", &g.bytesOut)
}

// ServeHTTP serves one SSE subscription; mount it at /debug/stream. Its
// qid and buf filters follow the debug views' rules (obs.ParseQuery). A nil
// gateway answers 404 (streaming disabled).
func (g *Gateway) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if g == nil || g.tap == nil {
		http.Error(w, "streaming disabled", http.StatusNotFound)
		return
	}
	args, err := obs.ParseQuery(req.URL.Query(), []string{"qid", "buf"})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	qid, _ := args.Int("qid") // absent: 0, the firehose
	bufCap := int64(g.BufCap)
	if bufCap <= 0 {
		bufCap = 1024
	}
	if n, ok := args.Int("buf"); ok && n < bufCap {
		bufCap = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	g.conns.Add(1)

	rc := http.NewResponseController(w)
	writeTimeout := g.WriteTimeout
	if writeTimeout <= 0 {
		writeTimeout = 5 * time.Second
	}
	// write emits one SSE frame and charges its exact byte length at the
	// encode boundary — the same on-the-wire rule the remote transport
	// applies to frames (DESIGN.md §12).
	write := func(event, id string, data any) error {
		payload, err := json.Marshal(data)
		if err != nil {
			return err
		}
		frame := make([]byte, 0, len(payload)+len(event)+len(id)+24)
		frame = append(frame, "event: "...)
		frame = append(frame, event...)
		frame = append(frame, '\n')
		if id != "" {
			frame = append(frame, "id: "...)
			frame = append(frame, id...)
			frame = append(frame, '\n')
		}
		frame = append(frame, "data: "...)
		frame = append(frame, payload...)
		frame = append(frame, '\n', '\n')
		rc.SetWriteDeadline(time.Now().Add(writeTimeout))
		n, err := w.Write(frame)
		if n > 0 {
			g.bytesOut.Add(int64(n))
			if g.costHook != nil {
				g.costHook(n)
			}
		}
		if err != nil {
			return err
		}
		return rc.Flush()
	}

	sub, snap := g.tap.Subscribe(qid, int(bufCap))
	defer sub.Close()

	for _, e := range snap {
		if err := write("snapshot", fmt.Sprintf("%d:%d", e.QID, e.Seq), e); err != nil {
			return
		}
	}
	if err := write("live", "", map[string]int64{"qid": qid}); err != nil {
		return
	}

	heartbeat := g.Heartbeat
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-req.Context().Done():
			return
		case <-ticker.C:
			rc.SetWriteDeadline(time.Now().Add(writeTimeout))
			n, err := w.Write([]byte(": ping\n\n"))
			if n > 0 {
				g.bytesOut.Add(int64(n))
				if g.costHook != nil {
					g.costHook(n)
				}
			}
			if err != nil || rc.Flush() != nil {
				return
			}
		case <-sub.Ready():
			evs, evicted := sub.Drain()
			for _, ev := range evs {
				if err := write("result", fmt.Sprintf("%d:%d", ev.QID, ev.Seq), ev); err != nil {
					return
				}
			}
			if evicted {
				g.evictedConns.Add(1)
				write("evicted", "", map[string]int64{"qid": qid})
				return
			}
		}
	}
}
