// Command kcserved serves coupling predictions from a measurement cache
// over HTTP. It loads the content-addressed cache a couple (or tables)
// campaign warmed and answers prediction queries without running worlds;
// with -measure it falls back to measuring cache misses on demand
// through a bounded worker pool, persisting the results for every later
// query.
//
//	couple -bench BT -chains 2,5 -cache-dir /var/kc/cache   # warm
//	kcserved -addr :8640 -cache-dir /var/kc/cache           # serve
//	curl 'localhost:8640/predict?bench=BT&chains=2,5'
//
// Endpoints (all GET):
//
//	/predict         prediction comparison: actual, summation, couplings (JSON)
//	/couplings       per-window C_S and composition coefficients (JSON)
//	/study           the full rendered study report (text)
//	/healthz         liveness probe
//	/metrics         obs registry snapshot (JSON; ?format=prom or
//	                 Accept: text/plain for Prometheus text exposition)
//	/version         build identity of the serving binary (JSON)
//	/debug/requests  flight-recorder dump: slowest + errored traces (JSON)
//	/internal/fill   peer-internal fill endpoint (requires X-Peer-Hop)
//
// With -peers and -self, N kcserved processes form a peer-filling
// cluster: consistent hashing over plan keys gives each key one owner
// node, non-owners proxy /predict-family queries to the owner over
// /internal/fill (replicating hot keys locally), and the owner's
// singleflight group collapses the whole fleet's identical in-flight
// queries — a cold key is measured exactly once cluster-wide. Per-peer
// circuit breakers rehash a dead peer's keys to the survivors, and any
// fill failure falls back to resolving locally.
//
// Every request (except /debug/requests itself) carries a trace: a
// deterministic ID echoed in the X-Trace-Id header and a span tree
// covering parse, singleflight wait, cache loads and on-demand
// measurement. The N slowest and all recent errored traces are retained
// in a flight recorder, dumpable via /debug/requests or flushed to
// -flight-out automatically when a request errors or exceeds -slow-ms
// (and always at shutdown). Inspect dumps with kcreport -requests.
//
// Query parameters mirror couple's flags: bench, class, procs, chains,
// trips, blocks, passes, grid — same defaults, so a query answers
// against the cache entries the equivalent couple invocation wrote.
//
// SIGINT/SIGTERM shut the service down gracefully: in-flight requests
// (including on-demand measurements) drain within -shutdown-grace, and
// -metrics-out writes a final manifest.
//
// Overload and failure hardening is opt-in: passing any guard flag
// (-deadline*, -max-inflight, -queue, -breaker-*, -retry-budget,
// -stale) assembles the serving guard — per-endpoint deadline budgets
// that answer 504 and detach in-flight measurements onto the
// -deadline-measure budget, an admission controller that queues then
// sheds 503 + Retry-After, seeded circuit breakers around on-demand
// measurement and cache disk reads, a token-bucket retry budget, and a
// degradation ladder that serves provenance-tagged stale or
// nearby-family answers (X-Degraded header) before shedding. A plain
// kcserved serves exactly the pre-hardening bytes. -fault-spec injects
// serving-layer chaos (disk delays/errors, measurement failures,
// handler latency) deterministically from -fault-seed.
//
// kcserved only serves; cmd/kcload is its client, for load and for the
// CI gates' selfcheck and chaos drills.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/tables"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8640", "listen address")
		cacheDir = flag.String("cache-dir", "", "measurement cache directory to serve from (required)")
		measure  = flag.Bool("measure", false, "measure cache misses on demand instead of returning 404")
		workers  = flag.Int("measure-workers", 1, "bound on concurrent on-demand measurement studies")
		netModel = flag.Bool("net", false, "serve the net-modeled cache namespace (must match the warming run's -net)")
		backends = flag.String("backends", "", "comma-separated default predictor chain, tried in order (measured, cached, interpolated, analytic; empty = cached then measured when -measure)")
		lattice  = flag.String("lattice", "", "interpolation lattice: ';'-separated query items, e.g. \"bench=BT&grid=6;bench=BT&grid=8\"")
		metrics  = flag.String("metrics-out", "", "write a run manifest with the final metric snapshot on shutdown")
		grace    = flag.Duration("shutdown-grace", 30*time.Second, "how long shutdown waits for in-flight requests to drain")

		notrace   = flag.Bool("notrace", false, "disable request tracing and the flight recorder")
		slowMs    = flag.Int("slow-ms", 0, "slow-request threshold in milliseconds (0 disables); slow requests auto-flush the flight recorder")
		flightOut = flag.String("flight-out", "", "flight-recorder dump path, written on errors/slow requests and at shutdown")

		deadline     = flag.Duration("deadline", 0, "default per-request deadline budget for query endpoints (0 = none)")
		deadlinePred = flag.Duration("deadline-predict", 0, "deadline budget override for /predict")
		deadlineCoup = flag.Duration("deadline-couplings", 0, "deadline budget override for /couplings")
		deadlineStud = flag.Duration("deadline-study", 0, "deadline budget override for /study")
		deadlineMeas = flag.Duration("deadline-measure", 0, "detached on-demand measurement budget once a caller abandons (0 = unbounded)")
		maxInflight  = flag.Int("max-inflight", 0, "bound on concurrently served query requests; excess queues then sheds 503 (0 = unbounded)")
		queueDepth   = flag.Int("queue", 0, "admission queue depth (default 2x -max-inflight)")
		brkFailures  = flag.Int("breaker-failures", 0, "consecutive dependency failures that open a circuit breaker (default 5)")
		brkCooldown  = flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (default 5s)")
		brkProbes    = flag.Int("breaker-probes", 0, "concurrent half-open probes a breaker admits (default 1)")
		retryBudget  = flag.Float64("retry-budget", 0, "retry tokens earned per request for the token-bucket retry budget (default 0.1)")
		staleCap     = flag.Int("stale", 64, "stale-answer cache capacity for degraded serving (0 disables the ladder)")
		faultSpec    = flag.String("fault-spec", "", "serving-layer chaos spec: diskslow:/diskerr:/measure:/handler:/peerdelay:/peererr: clauses joined by ';'")
		faultSeed    = flag.Uint64("fault-seed", 1, "seed for fault injection decisions and breaker cooldown jitter")

		peers       = flag.String("peers", "", "comma-separated fleet member addresses (enables clustering; every node must get the same set)")
		self        = flag.String("self", "", "this node's own entry in -peers (required with -peers)")
		peerHot     = flag.Int("peer-hot", 0, "requests per window that make a foreign-owned key hot enough to replicate locally (default 8, negative disables)")
		peerHotWin  = flag.Duration("peer-hot-window", 0, "hot-key tracking window (default 10s)")
		peerReplica = flag.Int("peer-replicas", 0, "local replica cache capacity for hot foreign-owned keys (default 512)")
		peerTimeout = flag.Duration("peer-fill-timeout", 0, "peer-fill round-trip budget, including owner-side on-demand measurement (default 30s)")

		httpReadHeader = flag.Duration("http-read-header-timeout", 0, "listener header-read timeout (0 = 5s default, negative disables)")
		httpRead       = flag.Duration("http-read-timeout", 0, "listener request-read timeout (0 = 30s default, negative disables)")
		httpWrite      = flag.Duration("http-write-timeout", 0, "listener response-write timeout (0 = 2m default, negative disables)")
		httpIdle       = flag.Duration("http-idle-timeout", 0, "listener keep-alive idle timeout (0 = 2m default, negative disables)")
	)
	var oflags obscli.ServeFlags
	oflags.Register(nil)
	flag.Parse()

	// Hardening is assembled only when some guard flag was given, so a
	// plain kcserved serves exactly the pre-hardening bytes and allocs.
	guardFlags := map[string]bool{
		"deadline": true, "deadline-predict": true, "deadline-couplings": true,
		"deadline-study": true, "deadline-measure": true, "max-inflight": true,
		"queue": true, "breaker-failures": true, "breaker-cooldown": true,
		"breaker-probes": true, "retry-budget": true, "stale": true,
	}
	guardOn := false
	flag.Visit(func(f *flag.Flag) {
		if guardFlags[f.Name] {
			guardOn = true
		}
	})

	if *cacheDir == "" {
		fail("-cache-dir is required")
	}
	cache, err := plan.NewDirCache(*cacheDir)
	if err != nil {
		fail("%v", err)
	}
	reg := obs.NewRegistry()
	var tracer *obs.RequestTracer
	if !*notrace {
		tracer = obs.NewRequestTracer(obs.TracerConfig{
			Recorder:  obs.NewFlightRecorder(0, 0),
			Slow:      time.Duration(*slowMs) * time.Millisecond,
			FlushPath: *flightOut,
		})
	}
	accessLog, logCloser, err := oflags.OpenAccessLog()
	if err != nil {
		fail("%v", err)
	}
	if logCloser != nil {
		defer logCloser.Close()
	}
	var g *guard.Guard
	if guardOn {
		g = guard.New(guard.Config{
			Deadline: *deadline,
			DeadlineFor: map[string]time.Duration{
				"predict":   *deadlinePred,
				"couplings": *deadlineCoup,
				"study":     *deadlineStud,
			},
			LeaderBudget:    *deadlineMeas,
			MaxInflight:     *maxInflight,
			QueueDepth:      *queueDepth,
			BreakerFailures: *brkFailures,
			BreakerCooldown: *brkCooldown,
			BreakerProbes:   *brkProbes,
			RetryRatio:      *retryBudget,
			StaleCap:        *staleCap,
			Seed:            *faultSeed,
			Metrics:         reg,
		})
	}
	var inj *fault.ServeInjector
	if *faultSpec != "" {
		spec, err := fault.ParseServe(*faultSpec)
		if err != nil {
			fail("%v", err)
		}
		inj = fault.NewServeInjector(spec, *faultSeed, reg)
		fmt.Fprintf(os.Stderr, "kcserved: CHAOS fault injection active: %s (seed %d)\n", spec, *faultSeed)
	}
	var cl *cluster.Cluster
	if *peers != "" {
		if *self == "" {
			fail("-peers requires -self (this node's own entry in the peer list)")
		}
		cl, err = cluster.New(cluster.Config{
			Self:            *self,
			Peers:           strings.Split(*peers, ","),
			HotThreshold:    *peerHot,
			HotWindow:       *peerHotWin,
			ReplicaCap:      *peerReplica,
			FillTimeout:     *peerTimeout,
			BreakerFailures: *brkFailures,
			BreakerCooldown: *brkCooldown,
			BreakerProbes:   *brkProbes,
			Seed:            *faultSeed,
			Metrics:         reg,
			Inject:          inj,
		})
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "kcserved: cluster node %s of %v\n", *self, cl.Nodes())
	} else if *self != "" {
		fail("-self without -peers (give the full member list, this node included)")
	}
	var chain []string
	if *backends != "" {
		chain = strings.Split(*backends, ",")
	}
	var latticeQs []predict.Query
	if *lattice != "" {
		latticeQs, err = tables.ParseLattice(*lattice)
		if err != nil {
			fail("%v", err)
		}
	}
	srv, err := serve.New(serve.Config{
		Cache:          cache,
		Metrics:        reg,
		Net:            *netModel,
		Measure:        *measure,
		MeasureWorkers: *workers,
		Tracer:         tracer,
		AccessLog:      accessLog,
		Guard:          g,
		Inject:         inj,
		Backends:       chain,
		Lattice:        latticeQs,
		Cluster:        cl,
	})
	if err != nil {
		fail("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	hs := serve.NewHTTPServer("", srv.Handler(), serve.HTTPTimeouts{
		ReadHeader: *httpReadHeader,
		Read:       *httpRead,
		Write:      *httpWrite,
		Idle:       *httpIdle,
	})
	start := time.Now()
	fmt.Fprintf(os.Stderr, "kcserved: serving %s on http://%s (measure=%v)\n", *cacheDir, ln.Addr(), *measure)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "kcserved: %v — draining in-flight requests\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		err = hs.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "kcserved: shutdown: %v\n", err)
		}
	case err := <-errc:
		fail("%v", err)
	}

	// Final flight-recorder dump: whatever the recorder held when the
	// service stopped is exactly what a post-mortem wants to read.
	if err := srv.Tracer().Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "kcserved: flight dump: %v\n", err)
	}

	if *metrics != "" {
		man := obs.NewManifest("kcserved")
		man.UnixSeconds = start.Unix()
		man.WallSeconds = time.Since(start).Seconds()
		man.Extra = map[string]string{"addr": *addr, "cache_dir": *cacheDir}
		snap := reg.Snapshot()
		man.Metrics = &snap
		if err := man.WriteFile(*metrics); err != nil {
			fail("%v", err)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kcserved: "+format+"\n", args...)
	os.Exit(1)
}
