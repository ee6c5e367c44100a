package locusroute

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"locusroute/internal/locusd"
	"locusroute/internal/par"
	"locusroute/internal/policy"
	"locusroute/internal/reqtrace"
	"locusroute/internal/route"
	"locusroute/internal/store"
)

// Service is the embeddable form of the locusd routing daemon: the
// sharded batch-serving layer plus the composable policy chain, behind
// the same functional-option style as the Backend constructors. An
// embedder gets exactly the request path cmd/locusd serves — deadline
// admission, per-client rate limiting, circuit breaking, result
// caching, and criticality-aware (EDF) scheduling — without shelling
// out to the daemon.
//
//	svc, err := locusroute.NewService([]*locusroute.Circuit{c},
//		locusroute.WithShards(4),
//		locusroute.WithRateLimit(100, 20),
//		locusroute.WithResultCache(4096),
//		locusroute.WithEDFScheduling(),
//	)
//	resp, err := svc.Route(ctx, locusroute.ServiceRequest{Circuit: c.Name, Wire: w})
//
// Close the service to drain it; its Handler serves the same HTTP API
// as cmd/locusd (/route, /circuits, /healthz, /metrics, /debug/vars).
type Service struct {
	srv *locusd.Server
	// owned is the circuit store NewService opened on the embedder's
	// behalf (WithCircuitStore / WithStoreMemoryBudget); Close closes it
	// after the server drains, which snapshots persistent state.
	owned *store.Store
}

// ServiceRequest and ServiceResponse alias the service request/response
// documents so embedders never import internal packages.
type (
	ServiceRequest  = locusd.RouteRequest
	ServiceResponse = locusd.RouteResponse
)

// Service error sentinels, re-exported for errors.Is on Route failures.
var (
	// ErrServiceDeadline reports a request whose deadline expired while
	// queued or mid-batch.
	ErrServiceDeadline = locusd.ErrDeadline
	// ErrServiceShed reports a request shed at the admission gate.
	ErrServiceShed = locusd.ErrShed
	// ErrServiceEvicted reports a queued request preempted by a more
	// critical arrival under EDF scheduling.
	ErrServiceEvicted = policy.ErrEvicted
	// ErrServiceRateLimited reports a request over its client's rate.
	ErrServiceRateLimited = policy.ErrRateLimited
	// ErrServiceBreakerOpen reports a request rejected by the open
	// circuit breaker.
	ErrServiceBreakerOpen = policy.ErrBreakerOpen
	// ErrServiceInfeasible reports a request whose deadline slack was
	// below the admission floor.
	ErrServiceInfeasible = policy.ErrDeadlineInfeasible
	// ErrServiceUnknownCircuit reports a request, mutation or eviction
	// naming a circuit the service does not serve.
	ErrServiceUnknownCircuit = locusd.ErrUnknownCircuit
	// ErrServiceCircuitExists reports an upload reusing a served name.
	ErrServiceCircuitExists = locusd.ErrCircuitExists
	// ErrServiceImmutable reports a mutation or eviction of a circuit
	// that is not store-backed (non-sequential startup baselines).
	ErrServiceImmutable = locusd.ErrImmutable
	// ErrServiceStoreFull reports an upload over the store memory budget.
	ErrServiceStoreFull = store.ErrStoreFull
	// ErrServiceBadMutation reports a rejected mutation batch; the
	// circuit is unchanged.
	ErrServiceBadMutation = store.ErrBadOp
)

// Dynamic circuit lifecycle types, aliased so embedders never import
// internal packages.
type (
	// StoreInfo describes one store-held circuit (grid, wire count,
	// mutation epoch, resident bytes, baseline, canonical array hash).
	StoreInfo = store.Info
	// StoreOp is one mutation operation (OpAdd / OpRemove / OpReroute).
	StoreOp = store.Op
	// StoreOpKind is a mutation operation's kind.
	StoreOpKind = store.OpKind
	// RecoveryStats reports what a persistent store reconstructed at
	// startup: snapshot circuits, replayed WAL records, torn-tail
	// truncation.
	RecoveryStats = store.RecoveryStats
	// MutateRequest is one atomic mutation batch against a served
	// circuit.
	MutateRequest = locusd.MutateRequest
	// MutateResponse reports an applied mutation batch.
	MutateResponse = locusd.MutateResponse
	// MutateOpResult reports one applied mutation op.
	MutateOpResult = locusd.MutateOpResult
)

// Mutation op kinds.
const (
	// OpAdd routes and commits a new wire (pins required).
	OpAdd = store.OpAdd
	// OpRemove rips up and deletes a wire.
	OpRemove = store.OpRemove
	// OpReroute rips up a wire and re-routes it against current
	// congestion (empty pins keep the wire's pins).
	OpReroute = store.OpReroute
)

// ServiceOption configures a Service at construction time.
type ServiceOption func(*serviceConfig)

// serviceConfig accumulates the options over locusd's config.
type serviceConfig struct {
	cfg locusd.Config
	// trace accumulates WithRequestTracing/WithSlowLog; the tracer is
	// built once in NewService when either option enabled it.
	trace   reqtrace.Options
	traceOn bool
	// storeDir/storeMem accumulate WithCircuitStore and
	// WithStoreMemoryBudget; the store is opened once in NewService when
	// either option asked for one.
	storeDir string
	storeMem int64
	storeOn  bool
}

// WithServiceBackend selects the backend that routes each circuit once
// at startup to produce the baseline congestion state (default
// Sequential), and its processor count where applicable.
func WithServiceBackend(kind Kind, procs int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.Backend = kind; c.cfg.Procs = procs }
}

// WithShards sets the serving replicas per circuit (default 4).
func WithShards(n int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.Shards = n }
}

// WithBatchWindow sets how long a shard waits to grow a batch after its
// first request arrives (default 2ms).
func WithBatchWindow(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.cfg.BatchWindow = d }
}

// WithMaxBatch caps the wires evaluated in one batch (default 64).
func WithMaxBatch(n int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.MaxBatch = n }
}

// WithMaxInFlight bounds admitted requests before shedding (default 256).
func WithMaxInFlight(n int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.MaxInFlight = n }
}

// WithDefaultDeadline applies to requests carrying no deadline
// (default 5s).
func WithDefaultDeadline(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.cfg.DefaultDeadline = d }
}

// WithEvaluationPool bounds concurrent batch evaluations to n workers
// (unset = unbounded).
func WithEvaluationPool(n int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.Pool = par.New(n) }
}

// WithServiceRouter tunes the route kernel parameters.
func WithServiceRouter(p route.Params) ServiceOption {
	return func(c *serviceConfig) { c.cfg.Router = p }
}

// WithDeadlineAdmission enables the deadline-admission element:
// requests whose deadline slack is below floor are rejected up front
// with ErrServiceInfeasible instead of queueing toward a guaranteed
// timeout.
func WithDeadlineAdmission(floor time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.cfg.Policy.AdmitFloor = floor }
}

// WithRateLimit enables per-client token-bucket rate limiting at rate
// requests/second with the given burst (burst < 1 = ceil(rate)).
func WithRateLimit(rate float64, burst int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.Policy.RatePerSec = rate; c.cfg.Policy.Burst = burst }
}

// WithCircuitBreaker enables the circuit breaker: failures consecutive
// deadline expiries trip it open for cooldown.
func WithCircuitBreaker(failures int, cooldown time.Duration) ServiceOption {
	return func(c *serviceConfig) {
		c.cfg.Policy.BreakerFailures = failures
		c.cfg.Policy.BreakerCooldown = cooldown
	}
}

// WithResultCache enables the result cache with the given capacity,
// keyed by (circuit, wire set, cost epoch) — commits invalidate by
// advancing the epoch.
func WithResultCache(entries int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.Policy.CacheEntries = entries }
}

// WithEDFScheduling enables the criticality scheduler:
// least-critical-first shedding at a full admission gate, where a
// tighter-deadline arrival preempts the slackest queued request instead
// of being shed itself. Batches are evaluated earliest-deadline-first
// with or without it.
func WithEDFScheduling() ServiceOption {
	return func(c *serviceConfig) { c.cfg.Policy.EDF = true }
}

// WithRequestTracing enables request-lifecycle tracing: every request
// gets a process-unique id (or adopts the caller's, via the
// X-Locus-Request-Id header or the binary protocol's traced frames),
// its response carries the per-stage latency breakdown, per-stage
// histograms appear in /metrics, and /debug/trace serves live
// Chrome/Perfetto captures. sampleEveryN retains every Nth finished
// request in the capture ring (1 = all, 0 = only live-capture windows).
func WithRequestTracing(sampleEveryN int) ServiceOption {
	return func(c *serviceConfig) {
		c.traceOn = true
		c.trace.Sample = sampleEveryN
	}
}

// WithSlowLog enables the structured slow-request log: any request whose
// wall latency meets threshold is logged with its full stage breakdown.
// A nil logger uses slog.Default. Implies request tracing.
func WithSlowLog(threshold time.Duration, logger *slog.Logger) ServiceOption {
	return func(c *serviceConfig) {
		c.traceOn = true
		c.trace.SlowLog = threshold
		c.trace.Logger = logger
	}
}

// WithPProf mounts net/http/pprof on the service's Handler under
// /debug/pprof/ (off by default).
func WithPProf() ServiceOption {
	return func(c *serviceConfig) { c.cfg.EnablePProf = true }
}

// WithCircuitStore enables snapshot+WAL persistence for the dynamic
// circuit lifecycle, rooted at dir: committed uploads, mutations and
// evictions are durable, and a restarted service reconstructs the exact
// canonical cost arrays (StoreRecovery reports what was rebuilt). The
// lifecycle API works without this option too — circuits just live in
// memory only.
func WithCircuitStore(dir string) ServiceOption {
	return func(c *serviceConfig) { c.storeDir = dir; c.storeOn = true }
}

// WithStoreMemoryBudget bounds the resident bytes of store-held
// circuits; uploads beyond it fail with ErrServiceStoreFull until
// evictions free room (0 = unbounded).
func WithStoreMemoryBudget(bytes int64) ServiceOption {
	return func(c *serviceConfig) { c.storeMem = bytes; c.storeOn = true }
}

// NewService routes every circuit once through the configured baseline
// backend and stands up the serving service with its policy chain.
func NewService(circuits []*Circuit, opts ...ServiceOption) (*Service, error) {
	var c serviceConfig
	for _, o := range opts {
		o(&c)
	}
	if c.traceOn {
		c.cfg.Tracer = reqtrace.New(c.trace)
	}
	var owned *store.Store
	if c.storeOn {
		// The store's router parameters must match the serving layer's,
		// or replicas would diverge from the canonical arrays; locusd
		// applies the same default when cfg.Router is zero.
		params := c.cfg.Router
		if params.Iterations == 0 {
			params = route.DefaultParams()
		}
		st, err := store.Open(store.Config{Dir: c.storeDir, Router: params, MemBudget: c.storeMem})
		if err != nil {
			return nil, err
		}
		owned = st
		c.cfg.Store = st
	}
	srv, err := locusd.New(c.cfg, circuits...)
	if err != nil {
		if owned != nil {
			_ = owned.Close()
		}
		return nil, err
	}
	return &Service{srv: srv, owned: owned}, nil
}

// Route admits, dispatches and awaits one request through the policy
// chain. The context deadline is the request's criticality under EDF.
func (s *Service) Route(ctx context.Context, req ServiceRequest) (ServiceResponse, error) {
	return s.srv.Route(ctx, req)
}

// Handler returns the service's HTTP API, identical to cmd/locusd's.
func (s *Service) Handler() http.Handler { return s.srv.Handler() }

// InFlight reports currently admitted requests.
func (s *Service) InFlight() int { return s.srv.InFlight() }

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool { return s.srv.Draining() }

// Epoch reports a served circuit's cost epoch (its commit count).
func (s *Service) Epoch(circuitName string) uint64 { return s.srv.Epoch(circuitName) }

// BeginDrain stops admitting new requests; in-flight work completes.
func (s *Service) BeginDrain() { s.srv.BeginDrain() }

// UploadCircuit routes and serves a new circuit at runtime. The upload
// is durable when the service has a persistent circuit store.
func (s *Service) UploadCircuit(c *Circuit) (StoreInfo, error) { return s.srv.UploadCircuit(c) }

// EvictCircuit stops serving a circuit and removes it from the store;
// in-flight requests against it complete first, and the name is free
// for re-upload once EvictCircuit returns.
func (s *Service) EvictCircuit(name string) error { return s.srv.EvictCircuit(name) }

// Mutate applies one atomic mutation batch to a served circuit,
// incrementally — each op rips up and re-routes only its own wire —
// and invalidates cached results for the circuit.
func (s *Service) Mutate(req MutateRequest) (*MutateResponse, error) { return s.srv.Mutate(req) }

// StoreRecovery reports what the service's circuit store reconstructed
// at startup (zero value without persistence).
func (s *Service) StoreRecovery() RecoveryStats { return s.srv.Store().Recovery() }

// StoreInfo reports a store-held circuit's current state — mutation
// epoch, resident bytes, and the canonical cost array's hash, which is
// what restart-identity checks compare.
func (s *Service) StoreInfo(name string) (StoreInfo, bool) { return s.srv.Store().Get(name) }

// Close drains and stops the service, returning once every shard loop
// has exited; a store opened by WithCircuitStore is then closed, which
// snapshots its state.
func (s *Service) Close() {
	s.srv.Close()
	if s.owned != nil {
		_ = s.owned.Close()
	}
}
