// Command dashserve runs the DASH testbed: an HTTP segment server behind a
// trace-shaped link, optionally driving a client session against it.
//
// Serve only (then point any client at it):
//
//	dashserve -video BBB-youtube-h264 -addr 127.0.0.1:8080 -trace lte:0
//
// Serve and stream one session (the §6.8 experiment in one process):
//
//	dashserve -video BBB-youtube-h264 -trace lte:0 -scheme cava -run -scale 60
//
// Serve through a seeded fault profile and stream resiliently through it:
//
//	dashserve -video BBB-youtube-h264 -trace lte:0 -faults lossy -fault-seed 7 -run
//
// Observability: -debug-addr mounts Prometheus metrics (/metrics) and pprof
// (/debug/pprof/) on a side listener; -trace-out dumps the session's ABR
// decision trace as JSONL (render it with "abrexport trace -in <file>").
// In serve-only mode SIGINT/SIGTERM trigger a graceful drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cava/internal/cliutil"
	"cava/internal/dash"
	"cava/internal/edge"
	"cava/internal/metrics"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/telemetry"
	"cava/internal/video"
)

// drainTimeout bounds the serve-only graceful shutdown: in-flight segment
// downloads past this deadline are cut.
const drainTimeout = 5 * time.Second

func main() {
	var (
		videoID   = flag.String("video", "BBB-youtube-h264", "video id from the dataset")
		addr      = flag.String("addr", "127.0.0.1:0", "listen address")
		traceSpec = flag.String("trace", "lte:0", "shaping trace: lte:<i>, fcc:<i>, const:<mbps>, none")
		scale     = flag.Float64("scale", 60, "time compression factor")
		run       = flag.Bool("run", false, "also run a client session and print its metrics")
		scheme    = flag.String("scheme", "cava", "client scheme (see cava-sim -list-schemes)")
		chunksN   = flag.Int("chunks", 0, "client: stop after N chunks (0 = all)")
		faults    = flag.String("faults", "none", "fault profile: none, transient, lossy, outage")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
		resilient = flag.Bool("resilient", true, "client: retry/abandon/skip through faults instead of aborting")
		debugAddr = flag.String("debug-addr", "", "listen address for /metrics and /debug/pprof (empty = off)")
		traceOut  = flag.String("trace-out", "", "write the session's decision trace as JSONL ('-' = stdout)")
		maxSess   = flag.Int("max-sessions", 0, "admit at most N concurrent client sessions (0 = unbounded)")
		shed      = flag.Bool("shed", false, "shed excess sessions immediately (503 + Retry-After) instead of queueing")
		breaker   = flag.Bool("breaker", false, "wrap the serving path in a circuit breaker")
		edgeMode  = flag.Bool("edge", false, "serve through the edge tier: consistent-hash origins, segment cache, failover")
		originsN  = flag.Int("origins", 3, "edge: number of origin replicas")
		edgeCache = flag.Int64("edge-cache-bytes", 64<<20, "edge: segment cache byte budget")
	)
	flag.Parse()

	v := video.ByID(*videoID)
	if v == nil {
		fmt.Fprintf(os.Stderr, "dashserve: unknown video %q\n", *videoID)
		os.Exit(2)
	}

	reg := telemetry.NewRegistry()
	var ring *telemetry.Ring
	if *traceOut != "" {
		ring = telemetry.NewRing(telemetry.DefaultRingCapacity)
	}
	session := telemetry.SessionID(v.ID(), *traceSpec, *scheme)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dashserve: %v\n", err)
		os.Exit(1)
	}
	var listener net.Listener = ln
	if *traceSpec != "none" {
		tr, err := cliutil.ParseTrace(*traceSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dashserve: %v\n", err)
			os.Exit(2)
		}
		shaper := dash.NewShaper(tr, *scale)
		shaper.SetMetrics(reg)
		listener = dash.NewShapedListener(ln, shaper)
		fmt.Printf("shaping with %s at %gx time scale\n", tr.ID, *scale)
	}
	// The serving path is either one fault-injected origin, or the edge
	// tier fanned out over N such origins (each with its own listener and
	// seeded fault schedule).
	newInjector := func(seed int64, h http.Handler) *dash.FaultInjector {
		inj, err := dash.NewFaultInjector(*faults, seed, *scale, h)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dashserve: %v\n", err)
			os.Exit(2)
		}
		return inj
	}
	var inner http.Handler
	var injector *dash.FaultInjector
	var eg *edge.Edge
	faulty := false
	if *edgeMode {
		originURLs := make([]string, *originsN)
		for i := 0; i < *originsN; i++ {
			osrv := dash.NewServer(v)
			osrv.SetMetrics(reg)
			oinj := newInjector(dash.OriginFaultSeed(*faultSeed, i), osrv.Handler())
			faulty = oinj.Active()
			oln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintf(os.Stderr, "dashserve: origin listener: %v\n", err)
				os.Exit(1)
			}
			ohsrv := dash.NewHTTPServer(oinj)
			go func() { _ = ohsrv.Serve(oln) }()
			defer ohsrv.Close()
			originURLs[i] = "http://" + oln.Addr().String()
		}
		var err error
		eg, err = edge.New(edge.Config{
			Origins:    originURLs,
			VideoID:    v.ID(),
			CacheBytes: *edgeCache,
			JitterSeed: *faultSeed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dashserve: %v\n", err)
			os.Exit(1)
		}
		defer eg.Close()
		eg.SetMetrics(reg)
		inner = eg.Handler()
		fmt.Printf("edge tier: %d origins, %d MiB segment cache\n", *originsN, *edgeCache>>20)
		if faulty {
			fmt.Printf("injecting faults at every origin: profile %s, base seed %d\n", *faults, *faultSeed)
		}
	} else {
		server := dash.NewServer(v)
		server.SetMetrics(reg)
		injector = newInjector(*faultSeed, server.Handler())
		injector.SetMetrics(reg)
		if ring != nil {
			injector.SetRecorder(ring, session)
		}
		faulty = injector.Active()
		if faulty {
			fmt.Printf("injecting faults: profile %s, seed %d\n", *faults, *faultSeed)
		}
		inner = injector
	}
	// Overload protection wraps the whole serving path (health endpoints,
	// session admission, optional breaker) even when unconfigured, so
	// /healthz and /readyz are always available on the main listener.
	pcfg := dash.ProtectionConfig{MaxSessions: *maxSess, ShedImmediately: *shed}
	if *breaker {
		b := dash.DefaultBreakerConfig()
		pcfg.Breaker = &b
	}
	protection := dash.Protect(pcfg, inner)
	protection.SetMetrics(reg)
	// On every exit path, drain any request still queued for admission
	// after the listener stops accepting.
	defer protection.Close()
	if *maxSess > 0 || *breaker {
		fmt.Printf("overload protection: max-sessions %d, shed-immediately %v, breaker %v\n",
			*maxSess, *shed, *breaker)
	}
	srv := dash.NewHTTPServer(protection.Handler())
	fmt.Printf("serving %s on http://%s\n", v.ID(), ln.Addr())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dashserve: debug listener: %v\n", err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg := dash.NewHTTPServer(mux)
		go dbg.Serve(dln)
		defer dbg.Close()
		fmt.Printf("debug endpoints on http://%s/metrics and /debug/pprof/\n", dln.Addr())
	}

	if !*run {
		// Serve until interrupted, then drain in-flight requests.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(listener) }()
		select {
		case err := <-errc:
			if err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "dashserve: %v\n", err)
				os.Exit(1)
			}
		case <-ctx.Done():
			stop()
			fmt.Println("\nshutting down, draining in-flight requests...")
			sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				fmt.Fprintf(os.Stderr, "dashserve: shutdown: %v\n", err)
			}
		}
		dumpTrace(*traceOut, ring)
		return
	}

	go srv.Serve(listener)
	defer srv.Close()

	factory, err := cliutil.SchemeByName(*scheme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dashserve: %v\n", err)
		os.Exit(2)
	}
	client, err := dash.NewClient(dash.ClientConfig{
		BaseURL:      "http://" + ln.Addr().String(),
		NewAlgorithm: factory,
		TimeScale:    *scale,
		MaxChunks:    *chunksN,
		Resilient:    *resilient,
		JitterSeed:   *faultSeed,
		Recorder:     ringOrNil(ring),
		SessionID:    session,
		Metrics:      reg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dashserve: %v\n", err)
		os.Exit(1)
	}
	start := time.Now()
	res, err := client.Run(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "dashserve: session: %v\n", err)
		os.Exit(1)
	}
	qt := quality.NewTable(v, quality.VMAFPhone)
	s := metrics.Summarize(res, qt, scene.ClassifyDefault(v))
	fmt.Printf("session complete: scheme %s, %d chunks, wall %.1fs (virtual %.1fs)\n",
		res.Scheme, len(res.Chunks), time.Since(start).Seconds(), res.SessionSec)
	fmt.Printf("  Q4 quality %.1f | low-quality %.1f%% | rebuffer %.1fs | quality change %.2f | data %.1f MB\n",
		s.Q4Quality, s.LowQualityPct, s.RebufferSec, s.QualityChange, s.DataMB)
	if faulty && injector != nil {
		fs := injector.Stats()
		fmt.Printf("  faults injected: %d errors, %d resets, %d truncations, %d outage rejections (of %d requests)\n",
			fs.Errors, fs.Resets, fs.Truncations, fs.OutageRejections, fs.Requests)
	}
	if faulty {
		fmt.Printf("  client resilience: %d retries, %d truncations detected, %d abandonments, %d skipped chunks, %.2f MB wasted\n",
			res.TotalRetries, res.TotalTruncations, res.TotalAbandonments, res.SkippedChunks, res.WastedBits/8/1e6)
	}
	if eg != nil {
		es := eg.Stats()
		fmt.Printf("  edge: %.0f%% cache hit ratio (%d hits, %d misses, %d coalesced), %d failovers, %d stale served, %d shed\n",
			100*es.HitRatio(), es.Hits, es.Misses, es.Coalesced, es.Failovers, es.StaleServed, es.Shed)
	}
	dumpTrace(*traceOut, ring)
}

// ringOrNil converts a possibly-nil *Ring to the Recorder interface without
// producing a non-nil interface around a nil pointer.
func ringOrNil(r *telemetry.Ring) telemetry.Recorder {
	if r == nil {
		return nil
	}
	return r
}

// dumpTrace writes the collected decision trace to path as JSONL.
func dumpTrace(path string, ring *telemetry.Ring) {
	if path == "" || ring == nil {
		return
	}
	var w *os.File
	if path == "-" {
		w = os.Stdout
	} else {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dashserve: trace-out: %v\n", err)
			return
		}
		defer f.Close()
		w = f
	}
	if err := ring.WriteJSONL(w); err != nil {
		fmt.Fprintf(os.Stderr, "dashserve: trace-out: %v\n", err)
		return
	}
	if path != "-" {
		fmt.Printf("wrote %d trace events to %s (%d evicted)\n", ring.Len(), path, ring.Dropped())
	}
}
