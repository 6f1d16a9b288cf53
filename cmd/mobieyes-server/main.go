// Command mobieyes-server runs the MobiEyes server as a network service:
// moving objects (cmd/mobieyes-object, or anything speaking internal/wire)
// connect over TCP, and a line-based admin interface manages queries.
//
// Usage:
//
//	mobieyes-server [-addr :7070] [-admin :7071] [-metrics-addr :7072]
//	                [-area SQMILES] [-alpha MILES] [-lazy] [-grouping]
//	                [-trace-events N] [-costs] [-stream] [-history-bytes N]
//	                [-mutex-profile-fraction N] [-block-profile-rate NS]
//	                [-auto-recover=false]
//	                [-cluster router -workers host:port,… | -cluster worker]
//
// Cluster deployment: `-cluster worker` runs one bare worker node on -addr
// instead of an object server; `-cluster router` makes this process the
// cluster's router tier, owning query lifecycle and routing uplinks to the
// workers named by -workers (matching grid and protocol flags). A worker's
// -metrics-addr, -trace-events and -costs serve its own events and costs
// views, and its telemetry ships to the router either way. The router
// checkpoints worker focal state every telemetry round and, with
// -auto-recover (the default), fences and replays a worker that misses its
// heartbeat deadline (DESIGN.md §15).
//
// The admin port takes one command per line; `help` lists them. The
// metrics address serves /metrics, /debug/vars, /healthz, /readyz, pprof,
// the SSE result stream /debug/stream (with -stream) and the same debug
// views as the admin port, indexed at /debug/ (DESIGN.md §9).
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mobieyes/internal/cluster"
	"mobieyes/internal/core"
	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/history"
	"mobieyes/internal/obs"
	"mobieyes/internal/obs/cost"
	"mobieyes/internal/obs/stream"
	"mobieyes/internal/obs/telemetry"
	"mobieyes/internal/obs/trace"
	"mobieyes/internal/remote"
)

func main() {
	var (
		addr     = flag.String("addr", ":7070", "object listen address")
		admin    = flag.String("admin", ":7071", "admin listen address")
		area     = flag.Float64("area", 10000, "area in square miles")
		alpha    = flag.Float64("alpha", 5, "grid cell side length")
		lazy     = flag.Bool("lazy", false, "lazy query propagation")
		grouping = flag.Bool("grouping", false, "query grouping")
		restore  = flag.String("restore", "", "restore query state from a snapshot file (with -cluster router, into workers that hold no rows)")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /healthz, /readyz, pprof and the /debug/ views on this address (empty = off)")
		traceSz  = flag.Int("trace-events", 0, "causal-tracing flight recorder size in events (0 = off); exposed on /debug/events and the admin TRACE command")
		costs    = flag.Bool("costs", false, "attribute protocol costs per message kind, node, cell, query and object; exposed on /debug/costs and the admin COSTS command")
		streamOn = flag.Bool("stream", false, "publish live result streams: SSE with snapshot-then-delta on /debug/stream (needs -metrics-addr) and the admin SUB command")
		histSz   = flag.Int("history-bytes", 0, "record result transitions and position samples into an append-only in-memory log bounded to N bytes (0 = off); /debug/history and the admin HIST command")
		role     = flag.String("cluster", "", `cluster role: "router" (route over -workers) or "worker" (serve one node on -addr)`)
		workers  = flag.String("workers", "", "comma-separated worker addresses for -cluster router")
		autoRec  = flag.Bool("auto-recover", true, "with -cluster router: fence and replay a worker that misses its heartbeat deadline (checkpointed crash recovery, DESIGN.md §15)")
		mutexPF  = flag.Int("mutex-profile-fraction", 0, "sample 1/N mutex contention events on /debug/pprof/mutex (0 = leave off, -1 = disable)")
		blockPR  = flag.Int("block-profile-rate", 0, "sample blocking events lasting ≥ N ns on /debug/pprof/block (0 = leave off, -1 = disable)")
	)
	flag.Parse()
	if *role == "router" && (*streamOn || *histSz > 0) {
		// Results are published only by in-process nodes; a worker has no
		// result listener, so the stream and the log would stay empty.
		fmt.Fprintln(os.Stderr, "mobieyes-server: -stream and -history-bytes are not supported with -cluster router")
		os.Exit(2)
	}
	obs.SetContentionProfiling(*mutexPF, *blockPR)

	var rec *trace.Recorder
	if *traceSz > 0 {
		rec = trace.NewRecorder(*traceSz)
	}
	var acct *cost.Accountant
	if *costs {
		acct = cost.New()
	}
	// Live result streaming and the history log (DESIGN.md §17). The tap and
	// store go into the server config (which instruments them); only the SSE
	// gateway — unknown to the server tier — is built and metered here.
	var tap *stream.Tap
	var gw *stream.Gateway
	if *streamOn {
		tap = stream.NewTap()
		gw = stream.NewGateway(tap)
		gw.SetCostHook(acct.GatewayEgress)
	}
	var hist *history.Store
	if *histSz > 0 {
		hist = history.NewStore(*histSz)
	}
	var reg *obs.Registry
	if *role != "worker" || *metrics != "" || rec != nil || acct != nil {
		// A worker needs a registry only when some observability is on: even
		// without a local HTTP endpoint, its collector ships series to the
		// router.
		reg = obs.NewRegistry()
	}
	gw.Instrument(reg)
	// The router role runs the cluster telemetry plane: workers push metric
	// and trace deltas over the wire tier; the plane re-exports them under
	// node="N" labels, stitches the trace timeline, and watches the cluster
	// invariants (DESIGN.md §14) — the cluster view and /readyz. It is
	// attached to the router once, by cluster.WireTelemetry below.
	var plane *telemetry.Plane
	if *role == "router" {
		plane = telemetry.New(telemetry.Config{Metrics: reg, Trace: rec, Costs: acct})
	}

	opts := core.Options{DeadReckoningThreshold: 0.01, Grouping: *grouping}
	if *lazy {
		opts.Mode = core.LazyPropagation
	}
	side := math.Sqrt(*area)
	uod := geo.NewRect(0, 0, side, side)

	if *role == "worker" {
		w := cluster.NewWorker(cluster.WorkerConfig{
			UoD: uod, Alpha: *alpha, Opts: opts,
			Metrics: reg, Costs: acct, Trace: rec,
		})
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fatal(err)
		}
		if *metrics != "" {
			ms := startMetrics(*metrics, reg, obs.EventsView(rec), acct.View())
			defer ms.Close()
		}
		fmt.Printf("mobieyes-server: cluster worker on %v, UoD %.0f×%.0f mi, alpha %.1f, %v\n",
			ln.Addr(), side, side, *alpha, opts.Mode)
		if err := w.Serve(ln); err != nil {
			fatal(err)
		}
		return
	}

	cfg := remote.ServerConfig{
		Addr:    *addr,
		UoD:     uod,
		Alpha:   *alpha,
		Options: opts,
		Metrics: reg,
		Trace:   rec,
		Costs:   acct,
		Stream:  tap,
		History: hist,
	}
	switch *role {
	case "":
	case "router":
		addrs := strings.Split(*workers, ",")
		if *workers == "" || len(addrs) == 0 {
			fatal(fmt.Errorf("-cluster router needs -workers host:port,…"))
		}
		cfg.Backend = func(g *grid.Grid, opts core.Options, down core.Downlink) (*core.ClusterServer, error) {
			cs, rns, err := cluster.NewRouter(g, opts, down, addrs)
			if err != nil {
				return nil, err
			}
			cluster.WireTelemetry(cs, rns, plane)
			cs.SetAutoRecover(*autoRec)
			fmt.Printf("mobieyes-server: routing over %d workers: %s\n", len(rns), *workers)
			return cs, nil
		}
	default:
		fatal(fmt.Errorf("unknown -cluster role %q (want router or worker)", *role))
	}
	var srv *remote.Server
	var err error
	if *restore != "" {
		f, ferr := os.Open(*restore)
		if ferr != nil {
			fatal(ferr)
		}
		srv, err = remote.ListenAndRestore(cfg, f)
		f.Close()
	} else {
		srv, err = remote.ListenAndServe(cfg)
	}
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	if *metrics != "" {
		ms := startMetrics(*metrics, reg, srv.Views()...)
		defer ms.Close()
		ms.Handle("/debug/stream", gw)
		if plane != nil {
			ms.SetReady(plane.Ready)
		}
	}

	adminSrv, err := remote.ServeAdmin(*admin, srv)
	if err != nil {
		fatal(err)
	}
	defer adminSrv.Close()
	fmt.Printf("mobieyes-server: objects on %v, admin on %v, UoD %.0f×%.0f mi, alpha %.1f, %v\n",
		srv.Addr(), adminSrv.Addr(), side, side, *alpha, opts.Mode)

	// Serve until interrupted.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}

// startMetrics serves reg and views on addr (see obs.ListenAndServe).
func startMetrics(addr string, reg *obs.Registry, views ...obs.View) *obs.HTTPServer {
	ms, err := obs.ListenAndServe(addr, reg, views...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mobieyes-server: metrics on http://%v/metrics\n", ms.Addr())
	return ms
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mobieyes-server:", err)
	os.Exit(1)
}
