// Command locusd serves route-request traffic over HTTP against
// preloaded circuits: a long-running daemon wrapping the pkg/locusroute
// backends behind internal/locusd's sharded batch-serving layer.
//
// Usage:
//
//	locusd [-addr :8347] [-listen-bin addr] [-bench bnrE|MDC|both]
//	       [-seed 1] [-circuit file]
//	       [-backend sequential|sm-live|sm-traced|mp-des|mp-live]
//	       [-procs 16] [-shards 4] [-batch-window 2ms] [-max-batch 64]
//	       [-max-in-flight 256] [-deadline 5s] [-par N]
//	       [-admit-floor 0] [-rate-limit 0] [-rate-burst 0]
//	       [-breaker-failures 0] [-breaker-cooldown 1s] [-cache-size 0]
//	       [-edf]
//	       [-trace] [-trace-sample 1] [-trace-capacity 4096]
//	       [-slow-log-threshold 0] [-log-format text|json] [-pprof]
//	       [-store] [-store-dir dir] [-store-mem MiB]
//
// The policy flags assemble the request-path chain (internal/policy):
// deadline admission, per-client token-bucket rate limiting, a circuit
// breaker, a result cache keyed by (circuit, wire set, cost epoch), and
// the criticality scheduler (-edf: least-critical-first shedding at a
// full gate; batches are earliest-deadline-first either way). Each
// element is off by default and costs nothing while disabled.
//
// The tracing flags enable request-scoped observability
// (internal/reqtrace): -trace assigns every request a process-unique id
// (or adopts the caller's, via the X-Locus-Request-Id header or the
// binary protocol's traced frames) and returns a per-stage latency
// breakdown with each response; -trace-sample retains every Nth
// finished request in the capture ring (-trace-capacity records);
// -slow-log-threshold logs any request at or over the threshold with
// its full stage breakdown, and implies -trace. All daemon logging goes
// through one log/slog logger on stderr; -log-format selects the text
// (default) or JSON handler.
//
// The store flags enable the dynamic circuit lifecycle (internal/store):
// -store serves runtime uploads, incremental mutations and evictions
// from an in-memory circuit store; -store-dir adds snapshot+WAL
// persistence, so a restart replays the log and reconstructs
// byte-identical cost arrays; -store-mem bounds resident circuit bytes
// (uploads beyond the budget fail with 507). Startup circuits stay
// immutable; only the sequential backend adopts them into the store.
//
// On startup each circuit is routed once through the selected backend;
// the resulting cost array seeds the serving replicas. Endpoints
// (canonical under /v1/; the unversioned aliases answer identically
// with a Deprecation header):
//
//	POST   /v1/route            {"circuit","pins":[[x,y],...],"commit","deadline_ms"}
//	GET    /v1/circuits         served circuits and their baseline quality
//	POST   /v1/circuits/{name}  upload a circuit (requires -store)
//	DELETE /v1/circuits/{name}  evict a circuit (requires -store)
//	POST   /v1/mutate           {"circuit","ops":[{"op","wire","pins"},...]}
//	GET    /v1/healthz          200 ok / 503 draining
//	GET    /v1/metrics          Prometheus text exposition
//	GET    /debug/vars          counters and histograms as JSON
//	GET    /debug/trace         Chrome-trace capture of the next ?sec=N seconds
//	                            (requires -trace or -slow-log-threshold)
//	GET    /debug/pprof         net/http/pprof profiles (requires -pprof)
//
// -listen-bin additionally serves the length-prefixed binary route
// protocol (internal/wire) on a raw TCP listener, funneling into the
// same request core; cmd/locusload drives either transport.
//
// SIGINT/SIGTERM begins a graceful drain: /healthz flips to 503 (so load
// balancers stop sending), new routes are refused, in-flight requests
// complete, and the process exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/cli"
	"locusroute/internal/locusd"
	"locusroute/internal/reqtrace"
	"locusroute/internal/store"
	"locusroute/pkg/locusroute"
)

func main() {
	common := cli.New("locusd")
	common.AddPar(flag.CommandLine, "bounds concurrent batch evaluations")
	common.AddCircuitFile(flag.CommandLine)
	common.AddPolicy(flag.CommandLine)
	var (
		addr        = flag.String("addr", ":8347", "listen address")
		listenBin   = flag.String("listen-bin", "", "also serve the binary route protocol on this TCP address")
		bench       = flag.String("bench", "both", "builtin circuits to serve: bnrE, MDC or both")
		seed        = flag.Int64("seed", 1, "benchmark generator seed")
		backendKind = flag.String("backend", string(locusroute.Sequential),
			fmt.Sprintf("baseline routing backend: one of %v", locusroute.Kinds()))
		procs       = flag.Int("procs", 16, "processors for the baseline backend")
		partitions  = flag.Int("partitions", 0, "leaf regions for the partitioned baseline backend (0 = backend default)")
		shards      = flag.Int("shards", 4, "serving replicas per circuit")
		batchWindow = flag.Duration("batch-window", 2*time.Millisecond, "how long a shard waits to grow a batch")
		maxBatch    = flag.Int("max-batch", 64, "max wires per batch")
		maxInFlight = flag.Int("max-in-flight", 256, "admitted requests before shedding 429s")
		deadline    = flag.Duration("deadline", 5*time.Second, "default per-request deadline")
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "shutdown bound for completing in-flight requests")
		trace       = flag.Bool("trace", false, "enable request tracing: ids, stage breakdowns, /debug/trace")
		traceSample = flag.Int("trace-sample", 1, "retain every Nth finished request in the capture ring (0 = only live-capture windows)")
		traceCap    = flag.Int("trace-capacity", reqtrace.DefaultCapacity, "capture ring size in records")
		slowLog     = flag.Duration("slow-log-threshold", 0, "log requests at or over this wall latency with their stage breakdown (0 = off; implies -trace)")
		logFormat   = flag.String("log-format", "text", "log handler: text or json")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		storeFlag   = flag.Bool("store", false, "enable the dynamic circuit lifecycle (upload/mutate/evict) on an in-memory store")
		storeDir    = flag.String("store-dir", "", "circuit store persistence directory (snapshot+WAL; implies -store)")
		storeMem    = flag.Int64("store-mem", 0, "circuit store memory budget in MiB (0 = unlimited)")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintln(os.Stderr, "locusd: -log-format must be text or json")
		os.Exit(1)
	}
	logger := slog.New(handler)
	fatal := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}

	if err := common.Validate(); err != nil {
		fatal(err)
	}

	circuits, err := loadCircuits(common, *bench, *seed)
	if err != nil {
		fatal(err)
	}

	cfg := locusd.Config{
		Backend:         locusroute.Kind(*backendKind),
		Procs:           *procs,
		Partitions:      *partitions,
		Shards:          *shards,
		BatchWindow:     *batchWindow,
		MaxBatch:        *maxBatch,
		MaxInFlight:     *maxInFlight,
		DefaultDeadline: *deadline,
		Pool:            common.Pool(),
		Policy:          common.Policy(),
		EnablePProf:     *pprofFlag,
	}
	if *trace || *slowLog > 0 {
		cfg.Tracer = reqtrace.New(reqtrace.Options{
			Capacity: *traceCap,
			Sample:   *traceSample,
			SlowLog:  *slowLog,
			Logger:   logger,
		})
	}
	var st *store.Store
	if *storeFlag || *storeDir != "" {
		st, err = store.Open(store.Config{Dir: *storeDir, MemBudget: *storeMem << 20})
		if err != nil {
			fatal(err)
		}
		cfg.Store = st
		if rs := st.Recovery(); rs.SnapshotCircuits > 0 || rs.ReplayedRecords > 0 || rs.Truncated {
			logger.Info("store recovered",
				"snapshot_circuits", rs.SnapshotCircuits,
				"replayed_records", rs.ReplayedRecords,
				"truncated_tail", rs.Truncated)
		}
	}
	logger.Info(fmt.Sprintf("routing %d circuit(s) through the %s backend...", len(circuits), *backendKind))
	srv, err := locusd.New(cfg, circuits...)
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	var binSrv *locusd.TCPServer
	if *listenBin != "" {
		l, err := net.Listen("tcp", *listenBin)
		if err != nil {
			fatal(err)
		}
		binSrv = locusd.NewTCPServer(srv)
		go func() {
			if err := binSrv.Serve(l); !errors.Is(err, locusd.ErrTCPServerClosed) {
				errc <- err
			}
		}()
		logger.Info(fmt.Sprintf("binary protocol on %s", l.Addr()))
	}
	elems := "none"
	if els := srv.Chain().Elements(); len(els) > 0 {
		names := make([]string, len(els))
		for i, el := range els {
			names[i] = el.Name()
		}
		elems = strings.Join(names, ",")
	}
	logger.Info(fmt.Sprintf("serving on %s (%d shards/circuit, window %v, gate %d, policy %s)",
		*addr, *shards, *batchWindow, *maxInFlight, elems),
		"trace", cfg.Tracer.Enabled(), "pprof", *pprofFlag)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info(fmt.Sprintf("%v: draining...", sig))
	case err := <-errc:
		fatal(err)
	}

	// Drain: refuse new work, let in-flight requests finish (bounded by
	// the grace period), then stop the shard loops and exit.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	if binSrv != nil {
		if err := binSrv.Shutdown(ctx); err != nil {
			logger.Warn("bin shutdown", "err", err)
		}
	}
	srv.Close()
	// The server never closes the store it was handed; the owner does,
	// after the serving loops stop, so the final WAL records are synced.
	if st != nil {
		if err := st.Close(); err != nil {
			logger.Warn("store close", "err", err)
		}
	}
	logger.Info("drained cleanly")
}

// loadCircuits builds the serving set: the -circuit file when given,
// else the selected builtin benchmark(s).
func loadCircuits(common *cli.Common, bench string, seed int64) ([]*circuit.Circuit, error) {
	if common.CircuitFile != "" {
		c, err := common.LoadCircuit()
		if err != nil {
			return nil, err
		}
		return []*circuit.Circuit{c}, nil
	}
	var gens []func(int64) circuit.GenParams
	switch bench {
	case "bnrE":
		gens = []func(int64) circuit.GenParams{circuit.BnrELike}
	case "MDC":
		gens = []func(int64) circuit.GenParams{circuit.MDCLike}
	case "both":
		gens = []func(int64) circuit.GenParams{circuit.BnrELike, circuit.MDCLike}
	default:
		return nil, errors.New(`-bench must be bnrE, MDC or both`)
	}
	var out []*circuit.Circuit
	for _, gen := range gens {
		c, err := circuit.Generate(gen(seed))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
