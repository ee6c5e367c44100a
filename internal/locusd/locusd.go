// Package locusd is the routing service behind cmd/locusd: a sharded
// batch-serving layer that answers route-request traffic against
// preloaded circuits.
//
// At startup each circuit is routed once through a pkg/locusroute
// backend; the resulting cost array is the baseline congestion state.
// Each circuit is then served by a set of shards, each owning a private
// clone of that array — the service-layer echo of the paper's
// replicated views: requests never contend on a shared array, and a
// committed wire lands only on the replica that served it.
//
// Every admitted request enters its circuit's deadline-ordered queue
// (policy.EDFQueue), and the circuit's shards pull batches from it —
// the shared memory "distributed loop" of the paper, where processes
// take the next wire from one shared work pool rather than a static
// round-robin assignment. Route gives every request a deadline, so over
// equal deadline offsets the queue is arrival order; tighter deadlines
// are evaluated first.
//
// Around that core sits a policy chain (internal/policy). Admission
// runs deadline feasibility, per-client rate limiting and a circuit
// breaker; a result cache keyed by (circuit, wire set, cost epoch) can
// answer repeats without routing; and the criticality scheduler turns
// shedding at a full admission gate into least-critical-first
// preemption. Every element is nil when disabled, at zero measurable
// cost (BENCH_policy.json).
//
// Requests a shard pulls at once — whatever queued while the circuit's
// shards were busy, or, with a batching window, everything that arrived
// within it — are grouped and evaluated back to back through a
// route.Scratch borrowed from a grid-keyed backend.ScratchPool for the
// batch (reused scratch space is what makes the steady state
// allocation-free). A par.Gate bounds admitted requests — a full gate
// sheds load with HTTP 429 rather than queueing without bound — and a
// par.Pool bounds how many shards evaluate batches at once.
package locusd

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locusroute/internal/backend"
	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/obs"
	"locusroute/internal/par"
	"locusroute/internal/policy"
	"locusroute/internal/reqtrace"
	"locusroute/internal/route"
	"locusroute/internal/store"
)

// Config sizes the service. The zero value of every field has a sensible
// default applied by New.
type Config struct {
	// Backend selects the pkg/locusroute implementation that routes each
	// circuit at startup to produce the baseline congestion state
	// (default Sequential, the reference router).
	Backend backend.Kind
	// Procs is the processor count for the baseline backend (ignored for
	// Sequential; default 16, the paper's machine size).
	Procs int
	// Partitions is the leaf-region count for the partitioned baseline
	// backend: big circuits route their baseline with intra-request
	// parallelism. Only meaningful when Backend is Partitioned (0 keeps
	// the backend's default of 4).
	Partitions int
	// Shards is the number of serving replicas per circuit (default 4).
	Shards int
	// BatchWindow is how long a shard holds a batch open for more
	// requests after the first arrives. Zero (the default; negative
	// values count as zero) means no window: a shard routes as soon as
	// work is queued, and batches form only from requests that queued
	// while the circuit's shards were busy. A window trades latency for
	// larger batches and keeps queued requests visible to preemption
	// for longer.
	BatchWindow time.Duration
	// MaxBatch caps the wires evaluated in one batch (default 64).
	MaxBatch int
	// MaxInFlight bounds admitted requests across all circuits; arrivals
	// beyond it are shed with 429 (default 256).
	MaxInFlight int
	// DefaultDeadline applies when a request carries no deadline_ms
	// (default 5s).
	DefaultDeadline time.Duration
	// Pool bounds concurrent batch evaluations (nil = one worker per
	// GOMAXPROCS via par.New(0) semantics is NOT applied here; nil means
	// unbounded, matching par.Pool).
	Pool *par.Pool
	// Router tunes the route kernel (zero value = route.DefaultParams).
	Router route.Params
	// Policy configures the request-path chain; the zero value disables
	// every element. Dispatch is deadline-ordered either way: Policy.EDF
	// only adds least-critical-first preemption at a full gate and the
	// edf counters.
	Policy policy.Config
	// Tracer enables request-lifecycle tracing (internal/reqtrace):
	// request ids, per-stage spans, stage histograms, the slow-request
	// log, and /debug/trace live capture. Nil disables all of it — the
	// request path pays one pointer test and zero allocations.
	Tracer *reqtrace.Tracer
	// EnablePProf mounts net/http/pprof on the server's mux under
	// /debug/pprof/ (off by default: the profile endpoints can block and
	// expose symbol tables, so exposing them is an explicit decision).
	EnablePProf bool
	// Store owns the dynamic circuit lifecycle: runtime uploads,
	// mutations, evictions, and (when it has a persistence directory)
	// snapshot+WAL recovery. Circuits the store already holds at startup
	// are served automatically. Nil gets a private in-memory store, so
	// the lifecycle API always works; pass one explicitly for
	// persistence or a memory budget. The store's router parameters must
	// match Router — New enforces nothing, the arrays just diverge.
	Store *store.Store
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = backend.Sequential
	}
	if c.Procs < 1 {
		c.Procs = 16
	}
	if c.Shards < 1 {
		c.Shards = 4
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 64
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.Router.Iterations == 0 {
		c.Router = route.DefaultParams()
	}
	return c
}

// ErrDeadline is the service-level deadline failure: the request's
// deadline expired while it was queued or mid-batch.
var ErrDeadline = errors.New("locusd: request deadline expired before routing")

// ErrDraining rejects new work during graceful shutdown.
var ErrDraining = errors.New("locusd: server is draining")

// ErrShed rejects work when the admission gate is full.
var ErrShed = errors.New("locusd: at capacity, retry later")

// ErrUnknownCircuit reports a request naming a circuit the server does
// not serve.
var ErrUnknownCircuit = errors.New("locusd: unknown circuit")

// ErrCircuitExists rejects an upload naming a circuit already served
// (store.ErrExists, re-surfaced at the service layer).
var ErrCircuitExists = store.ErrExists

// ErrImmutable rejects a mutation or eviction of a circuit served
// outside the store — a startup circuit whose baseline came from a
// non-sequential backend has no canonical per-wire paths to rip up.
var ErrImmutable = errors.New("locusd: circuit is immutable (not store-backed)")

// RouteRequest is one wire evaluation against a served circuit.
type RouteRequest struct {
	// Circuit names a preloaded circuit.
	Circuit string
	// Wire is the wire to evaluate (>= 2 pins, all inside the circuit's
	// grid — out-of-grid pins are rejected, never clamped).
	Wire circuit.Wire
	// Commit places the evaluated path on the serving shard's replica,
	// making it visible to later requests on the same shard.
	Commit bool
	// Client identifies the caller for per-client rate limiting (the
	// HTTP layer fills it from the X-Client header or the remote host).
	Client string
	// TraceID is a caller-supplied request id to adopt (HTTP carries it
	// as X-Locus-Request-Id, the binary protocol on traced frames).
	// Empty mints a server id; longer than reqtrace.MaxTraceID is
	// rejected, never clamped. Ignored when tracing is disabled.
	TraceID string
}

// RouteResponse reports one evaluation.
type RouteResponse struct {
	Circuit       string `json:"circuit"`
	Shard         int    `json:"shard"`
	WireID        int    `json:"wire"`
	Cost          int64  `json:"cost"`
	PathCells     int    `json:"path_cells"`
	CellsExamined int    `json:"cells_examined"`
	BatchSize     int    `json:"batch_size"`
	BatchIndex    int    `json:"batch_index"`
	Committed     bool   `json:"committed"`
	Cached        bool   `json:"cached"`
	WaitMicros    int64  `json:"wait_us"`

	// RequestID and Stages are present only when tracing is enabled: the
	// echoed request id and the per-stage breakdown whose durations sum
	// to the request's wall latency exactly.
	RequestID string        `json:"request_id,omitempty"`
	Stages    []StageSample `json:"stages,omitempty"`
}

// StageSample is one stage's share of a traced request's latency.
type StageSample struct {
	// Code is the reqtrace.Stage index, carried for the binary protocol;
	// the JSON layer names the stage instead.
	Code  uint8  `json:"-"`
	Stage string `json:"stage"`
	Ns    int64  `json:"ns"`
}

// ErrTraceID rejects an oversized caller-supplied trace id.
var ErrTraceID = fmt.Errorf("locusd: trace id exceeds %d bytes", reqtrace.MaxTraceID)

// pending is one admitted request waiting for a shard.
type pending struct {
	// item is the request's entry in its circuit's queue: the ctx
	// deadline (its criticality) with Value pointing back at the
	// pending. Embedding it makes the push allocation-free.
	item     policy.Item
	req      RouteRequest
	ctx      context.Context
	enqueued time.Time
	done     chan outcome
	// gateHeld arbitrates the request's admission slot between its own
	// goroutine and a preempting one: whoever flips true->false releases
	// the gate, exactly once.
	gateHeld atomic.Bool
	// expired arbitrates the met.expired count the same way: the waiter
	// (ctx.Done) and the shard loop (stale entry in process) can both
	// notice the expiry, but only the first to flip it counts.
	expired atomic.Bool
	// span is the request's trace span; inert when tracing is disabled.
	// Only the waiter goroutine touches it — the shard loop reports its
	// stage stamps through the done channel (outcome.t) instead, so a
	// waiter that abandoned on ctx.Done never races a late stamp.
	span reqtrace.Span
	// traced mirrors span.Traced() for the shard loop, which must not
	// read the span itself: the waiter finishes it on ctx.Done while the
	// shard may still be processing this entry. Immutable once enqueued.
	traced bool
}

type outcome struct {
	resp RouteResponse
	err  error
	// t are the shard-side stage boundaries on the tracer clock — batch
	// start, eval start, eval end, commit end — valid when traced. The
	// channel handoff gives the waiter a happens-before copy.
	t      [4]int64
	traced bool
}

// shard is one serving replica: a private cost array and the loop that
// pulls batches for it from the circuit's queue. Routing scratch space
// is not owned by the shard — batches borrow it from the server's
// grid-keyed pool (backend.ScratchPool), so idle replicas hold no
// scratch memory and every circuit with the same grid shares one warm
// set.
type shard struct {
	id  int
	arr *costarray.CostArray
	// updates carries mutation deltas (ripped/committed canonical paths)
	// from Server.Mutate to this shard's loop, which applies them to its
	// replica between batches — the only goroutine that touches arr.
	updates chan shardUpdate
}

// shardUpdate is one mutation batch's effect on the canonical array:
// rip these paths, commit those. The slices are shared read-only across
// every shard of the circuit.
type shardUpdate struct {
	rip    []route.Path
	commit []route.Path
}

// servedCircuit is one served circuit and its replicas.
type servedCircuit struct {
	name     string
	grid     geom.Grid
	baseline backend.Result
	shards   []*shard
	// queue is the circuit's deadline-ordered request queue; every
	// shard pulls its batches from it.
	queue *policy.EDFQueue
	// epoch counts committed paths across all of the circuit's shards
	// plus applied store mutations: the result cache's invalidation
	// clock. Any commit or mutation advances it, so cache hits are only
	// served against unchanged congestion state.
	epoch atomic.Uint64
	// wireCount tracks the circuit's wire count (mutations move it).
	wireCount atomic.Int64
	// mutable marks a store-backed circuit: uploads at runtime, startup
	// circuits routed through the sequential baseline, and recovered
	// circuits. Only mutable circuits accept Mutate and EvictCircuit.
	mutable bool
	// cacheName is the policy-chain identity: the circuit name suffixed
	// with a server-unique generation, so cached results from an evicted
	// circuit can never answer for a later upload of the same name.
	cacheName string
	// stop ends the circuit's shard loops on eviction; inflight tracks
	// requests targeting this circuit, which EvictCircuit waits out
	// before stopping the loops.
	stop     chan struct{}
	inflight sync.WaitGroup
}

// metrics aggregates service counters and latency/batch histograms.
// obs.Histogram is single-writer; the mutex makes it safe under
// concurrent handlers.
type metrics struct {
	mu        sync.Mutex
	served    int64
	shed      int64
	evicted   int64 // shed by criticality preemption (subset of shed)
	expired   int64
	rejected  int64 // validation failures
	denied    int64 // policy-chain rejections (deadline/rate/breaker)
	cacheHits int64
	committed int64
	uploads   int64 // circuits uploaded at runtime
	evictions int64 // circuits evicted at runtime
	mutations int64 // mutation ops applied (not batches)
	batchSize obs.Histogram
	waitUs    obs.Histogram
	routeCost obs.Histogram
	// stageUs are the per-stage latency histograms (microseconds), fed
	// only for traced requests; a stage that did not run observes
	// nothing.
	stageUs [reqtrace.NumStages]obs.Histogram
}

// Server is the routing service. Create with New, serve its Handler,
// then BeginDrain + Close on shutdown.
type Server struct {
	cfg   Config
	chain *policy.Chain
	gate  par.Gate
	store *store.Store

	// mu guards the serving registry (circuits, names): runtime uploads
	// and evictions write it, every request path reads it.
	mu       sync.RWMutex
	circuits map[string]*servedCircuit
	names    []string // stable iteration order for /circuits and /debug/vars

	totalShards atomic.Int64
	// gen feeds servedCircuit.cacheName: each (re)registration of a name
	// gets a fresh generation, fencing the result cache across evict +
	// re-upload of the same name.
	gen atomic.Uint64

	// scratch pools routing scratch space per grid shape; batches borrow
	// a Scratch for their whole run and return it, keeping the serving
	// path at the reused-scratch allocation floor.
	scratch backend.ScratchPool

	met      metrics
	draining atomic.Bool
	closing  sync.Once
	stop     chan struct{}
	loops    sync.WaitGroup
	inflight sync.WaitGroup
	started  time.Time
}

// New stands up the serving layer. Startup circuits are routed once for
// their baseline congestion state: under the default Sequential backend
// they are uploaded into the store (making them mutable and, with a
// persistent store, durable); under any other backend they are routed
// through that backend and served immutably, since only the store's
// sequential baseline retains the per-wire paths incremental mutation
// needs. Circuits the store already holds — recovered from disk, or
// preloaded by the caller — are served automatically; a startup circuit
// whose name the store already holds defers to the store's copy.
func New(cfg Config, circuits ...*circuit.Circuit) (*Server, error) {
	cfg = cfg.withDefaults()
	st := cfg.Store
	if st == nil {
		if len(circuits) == 0 {
			return nil, errors.New("locusd: no circuits to serve")
		}
		var err error
		st, err = store.Open(store.Config{Router: cfg.Router})
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:      cfg,
		chain:    policy.New(cfg.Policy),
		gate:     par.NewGate(cfg.MaxInFlight),
		store:    st,
		circuits: make(map[string]*servedCircuit, len(circuits)),
		stop:     make(chan struct{}),
		started:  time.Now(),
	}
	seen := make(map[string]bool, len(circuits))
	for _, c := range circuits {
		if seen[c.Name] {
			return nil, fmt.Errorf("locusd: duplicate circuit name %q", c.Name)
		}
		seen[c.Name] = true
	}
	if cfg.Backend == backend.Sequential {
		for _, c := range circuits {
			if _, err := st.Upload(c); err != nil && !errors.Is(err, store.ErrExists) {
				return nil, fmt.Errorf("locusd: baseline routing of %q: %w", c.Name, err)
			}
			// ErrExists: the store recovered this name from disk; its
			// durable copy wins over the startup argument.
		}
	} else {
		opts := []backend.Option{backend.WithRouter(cfg.Router), backend.WithProcs(cfg.Procs)}
		if cfg.Partitions > 0 && cfg.Backend == backend.Partitioned {
			opts = append(opts, backend.WithPartitions(cfg.Partitions))
		}
		be, err := backend.New(cfg.Backend, opts...)
		if err != nil {
			return nil, err
		}
		for _, c := range circuits {
			if _, held := st.Get(c.Name); held {
				continue // the store's recovered copy wins
			}
			base, err := be.Route(context.Background(), backend.Request{Circuit: c})
			if err != nil {
				return nil, fmt.Errorf("locusd: baseline routing of %q: %w", c.Name, err)
			}
			sc := s.newServedCircuit(c.Name, c.Grid, len(c.Wires), base, false)
			for i := 0; i < cfg.Shards; i++ {
				sc.shards = append(sc.shards, s.newShard(i, base.Final.Clone()))
			}
			s.register(sc)
		}
	}
	for _, name := range st.Names() {
		if _, dup := s.circuits[name]; dup {
			continue
		}
		sc, err := s.serveStored(name)
		if err != nil {
			return nil, err
		}
		s.register(sc)
	}
	return s, nil
}

// newServedCircuit assembles a circuit's serving state (no shards yet).
func (s *Server) newServedCircuit(name string, g geom.Grid, wires int, base backend.Result, mutable bool) *servedCircuit {
	sc := &servedCircuit{
		name:      name,
		grid:      g,
		baseline:  base,
		mutable:   mutable,
		cacheName: fmt.Sprintf("%s#%d", name, s.gen.Add(1)),
		queue:     policy.NewEDFQueue(),
		stop:      make(chan struct{}),
	}
	sc.wireCount.Store(int64(wires))
	return sc
}

// newShard builds one replica around its private array clone.
func (s *Server) newShard(id int, arr *costarray.CostArray) *shard {
	return &shard{id: id, arr: arr, updates: make(chan shardUpdate, 64)}
}

// serveStored builds serving state for a store-held circuit: shard
// replicas clone the canonical array, and the baseline is the store's
// upload-time sequential routing.
func (s *Server) serveStored(name string) (*servedCircuit, error) {
	info, ok := s.store.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w %q (store no longer holds it)", ErrUnknownCircuit, name)
	}
	base := backend.Result{
		Backend:       backend.Sequential,
		Circuit:       name,
		Procs:         1,
		CircuitHeight: info.Baseline.CircuitHeight,
		Occupancy:     info.Baseline.Occupancy,
		WiresRouted:   info.Baseline.WiresRouted,
		CellsExamined: info.Baseline.CellsExamined,
	}
	sc := s.newServedCircuit(name, info.Grid, info.Wires, base, true)
	for i := 0; i < s.cfg.Shards; i++ {
		arr, ok := s.store.CloneArray(name)
		if !ok {
			return nil, fmt.Errorf("%w %q (evicted during registration)", ErrUnknownCircuit, name)
		}
		sc.shards = append(sc.shards, s.newShard(i, arr))
	}
	return sc, nil
}

// register installs a circuit and starts its shard loops.
func (s *Server) register(sc *servedCircuit) {
	s.mu.Lock()
	s.circuits[sc.name] = sc
	s.names = append(s.names, sc.name)
	sort.Strings(s.names)
	s.mu.Unlock()
	s.totalShards.Add(int64(len(sc.shards)))
	for _, sh := range sc.shards {
		s.loops.Add(1)
		go s.loop(sc, sh)
	}
}

// lookupServed fetches a circuit's serving state and registers the
// caller with its in-flight group, which EvictCircuit waits out. The
// caller must call sc.inflight.Done() when finished with the circuit.
func (s *Server) lookupServed(name string) *servedCircuit {
	s.mu.RLock()
	sc := s.circuits[name]
	if sc != nil {
		sc.inflight.Add(1)
	}
	s.mu.RUnlock()
	return sc
}

// servedNames copies the registry's name list.
func (s *Server) servedNames() []string {
	s.mu.RLock()
	names := make([]string, len(s.names))
	copy(names, s.names)
	s.mu.RUnlock()
	return names
}

// Route admits, dispatches and awaits one request. It is the
// transport-independent core the HTTP handler wraps.
func (s *Server) Route(ctx context.Context, req RouteRequest) (RouteResponse, error) {
	// Register with the drain group before checking the flag: a request
	// that sees draining=false here is guaranteed to be covered by
	// Close's inflight.Wait, so its shard loop is still running.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if len(req.TraceID) > reqtrace.MaxTraceID {
		s.count(&s.met.rejected)
		return RouteResponse{}, ErrTraceID
	}
	span := s.cfg.Tracer.Begin(req.TraceID, req.Circuit, req.Client, req.Wire.ID)
	if s.draining.Load() {
		return s.fail(&span, reqtrace.OutcomeDenied, ErrDraining)
	}
	sc := s.lookupServed(req.Circuit)
	if sc == nil {
		return s.fail(&span, reqtrace.OutcomeRejected,
			fmt.Errorf("%w %q (serving %v)", ErrUnknownCircuit, req.Circuit, s.servedNames()))
	}
	// The circuit's in-flight registration (made under the registry lock)
	// holds off EvictCircuit until this request's shard loop answers it.
	defer sc.inflight.Done()
	if err := backend.ValidateWires(sc.grid, []circuit.Wire{req.Wire}); err != nil {
		s.count(&s.met.rejected)
		return s.fail(&span, reqtrace.OutcomeRejected, err)
	}
	now := time.Now()
	// The default deadline is a service property, not a transport one:
	// an embedder calling Route with a plain context gets the same
	// criticality floor as an HTTP caller omitting deadline_ms. Without
	// it, the deadline queue would sort plain-context requests behind
	// every deadline-carrying one, and preemption would evict them first
	// at every full gate.
	if _, has := ctx.Deadline(); !has && s.cfg.DefaultDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultDeadline)
		defer cancel()
	}
	deadline, _ := ctx.Deadline()

	// Policy chain: gatekeepers, then the result cache. The whole block
	// is skipped on the nil chain — the zero-cost disabled path.
	var preq policy.Request
	var epoch uint64
	if s.chain != nil {
		preq = policy.Request{
			Client: req.Client,
			// The cache and breaker key on the generation-suffixed name:
			// results cached for an evicted circuit can never answer for
			// a later upload reusing the name.
			Circuit:  sc.cacheName,
			Key:      policy.KeyPins(req.Wire.Pins),
			Deadline: deadline,
			Commit:   req.Commit,
		}
		var err error
		if span.Traced() {
			err = s.chain.AdmitTimed(now, &preq, span.Element)
		} else {
			err = s.chain.Admit(now, &preq)
		}
		if err != nil {
			s.count(&s.met.denied)
			return s.fail(&span, reqtrace.OutcomeDenied, err)
		}
		// The epoch is captured before dispatch: a result evaluated
		// while a commit lands is stored under the pre-commit epoch and
		// can never be served against the new congestion state.
		epoch = sc.epoch.Load()
		var lookT time.Time
		if span.Traced() {
			lookT = time.Now()
		}
		v, hit := s.chain.Lookup(&preq, epoch)
		if span.Traced() {
			span.Element("cache", time.Since(lookT))
		}
		if hit {
			resp := v.(RouteResponse)
			resp.WireID = req.Wire.ID
			resp.Cached = true
			resp.BatchSize = 0
			resp.BatchIndex = 0
			resp.WaitMicros = 0
			s.count(&s.met.cacheHits)
			// A cached answer exercised no evaluation path: it is
			// evidence of nothing. Observing it as success would let a
			// half-open breaker's single probe "confirm" recovery off a
			// stale stored result, so the admission is released
			// neutrally instead — the probe slot goes back unspent.
			s.chain.Release()
			span.Mark(reqtrace.StageAdmit)
			s.finishSpan(&span, reqtrace.OutcomeCached, &resp)
			return resp, nil
		}
	}

	p := &pending{req: req, ctx: ctx, enqueued: now, done: make(chan outcome, 1)}
	p.item = policy.Item{Deadline: deadline, Value: p}
	if !s.gate.TryEnter() {
		// Full gate: under the criticality scheduler, try to take the
		// slot of a strictly less critical queued request instead of
		// shedding the arrival.
		if !s.preempt(deadline) {
			s.count(&s.met.shed)
			// The chain already admitted this request; a shed is not an
			// outcome, so release the admission neutrally — a half-open
			// breaker gets its probe slot back instead of wedging open.
			s.chain.Release()
			return s.fail(&span, reqtrace.OutcomeShed, ErrShed)
		}
	}
	p.gateHeld.Store(true)
	defer s.releaseGate(p)

	// Everything up to dispatch — validation, policy, cache, the gate —
	// is the admit stage; the span moves into the pending entry so the
	// waiter arm below can merge the shard's stamps into it.
	span.Mark(reqtrace.StageAdmit)
	p.span = span
	p.traced = span.Traced()

	s.chain.Sched().NoteScheduled()
	sc.queue.Push(&p.item)
	select {
	case out := <-p.done:
		if errors.Is(out.err, policy.ErrEvicted) {
			// Eviction happens before any evaluation: no outcome exists
			// for the breaker, so an aborted half-open probe must
			// neither close it nor leak the probe slot.
			s.chain.Release()
		} else {
			s.chain.Observe(time.Now(), errors.Is(out.err, ErrDeadline))
		}
		if out.err != nil {
			oc := reqtrace.OutcomeExpired
			if errors.Is(out.err, policy.ErrEvicted) {
				oc = reqtrace.OutcomeEvicted
			}
			// The request died waiting: attribute the dead time to the
			// queue stage, not the respond tail.
			p.span.Mark(reqtrace.StageQueue)
			return s.fail(&p.span, oc, out.err)
		}
		if out.traced {
			p.span.MarkAt(reqtrace.StageQueue, out.t[0])
			p.span.MarkAt(reqtrace.StageBatch, out.t[1])
			p.span.MarkAt(reqtrace.StageRoute, out.t[2])
			p.span.MarkAt(reqtrace.StageCommit, out.t[3])
			p.span.SetShard(out.resp.Shard)
		}
		if s.chain != nil {
			// The cache stores the evaluation, not the trace: a hit is a
			// different request with its own id and breakdown.
			stored := out.resp
			stored.RequestID, stored.Stages = "", nil
			s.chain.Store(&preq, epoch, stored)
		}
		resp := out.resp
		s.finishSpan(&p.span, reqtrace.OutcomeOK, &resp)
		return resp, nil
	case <-ctx.Done():
		// The shard will still evaluate (or expire) the entry; its
		// buffered done send is discarded.
		s.countExpired(p)
		s.chain.Observe(time.Now(), true)
		p.span.Mark(reqtrace.StageQueue)
		return s.fail(&p.span, reqtrace.OutcomeExpired, ErrDeadline)
	}
}

// fail finishes sp for an error outcome. The returned response is empty
// except for the echoed request id, which transports still surface so a
// rejected or expired request remains attributable in client logs.
func (s *Server) fail(sp *reqtrace.Span, oc reqtrace.Outcome, err error) (RouteResponse, error) {
	var resp RouteResponse
	s.finishSpan(sp, oc, &resp)
	return resp, err
}

// finishSpan closes sp, feeds the per-stage histograms, and stamps resp
// with the request id and breakdown. No-op for untraced spans.
func (s *Server) finishSpan(sp *reqtrace.Span, oc reqtrace.Outcome, resp *RouteResponse) {
	var rec reqtrace.Rec
	if !sp.Finish(oc, &rec) {
		return
	}
	s.met.mu.Lock()
	for st := reqtrace.Stage(0); st < reqtrace.NumStages; st++ {
		if ns := rec.Stages[st]; ns > 0 {
			s.met.stageUs[st].Observe(ns / 1e3)
		}
	}
	s.met.mu.Unlock()
	resp.RequestID = rec.IDString()
	resp.Stages = stageSamples(&rec)
}

// stageSamples renders a record's non-zero stages in stage order; the
// nanosecond values sum to the record's wall latency exactly.
func stageSamples(rec *reqtrace.Rec) []StageSample {
	out := make([]StageSample, 0, 4)
	for st := reqtrace.Stage(0); st < reqtrace.NumStages; st++ {
		if ns := rec.Stages[st]; ns > 0 {
			out = append(out, StageSample{Code: uint8(st), Stage: st.String(), Ns: ns})
		}
	}
	return out
}

// countExpired counts p in met.expired exactly once, whichever of its
// waiter goroutine or its shard loop notices the expiry first.
func (s *Server) countExpired(p *pending) {
	if p.expired.CompareAndSwap(false, true) {
		s.count(&s.met.expired)
	}
}

// releaseGate frees p's admission slot exactly once, whether its own
// goroutine or a preempting arrival gets there first.
func (s *Server) releaseGate(p *pending) {
	if p.gateHeld.CompareAndSwap(true, false) {
		s.gate.Leave()
	}
}

// count bumps one plain counter under the metrics lock.
func (s *Server) count(field *int64) {
	s.met.mu.Lock()
	*field++
	s.met.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight reports currently admitted requests.
func (s *Server) InFlight() int { return s.gate.InFlight() }

// Chain exposes the policy chain (nil when fully disabled) for metrics
// surfaces and embedders.
func (s *Server) Chain() *policy.Chain { return s.chain }

// Epoch reports a served circuit's current cost epoch (its commit
// count), the result cache's invalidation clock. Unknown circuits
// report 0.
func (s *Server) Epoch(circuitName string) uint64 {
	s.mu.RLock()
	sc := s.circuits[circuitName]
	s.mu.RUnlock()
	if sc == nil {
		return 0
	}
	return sc.epoch.Load()
}

// BeginDrain stops admitting new requests; in-flight requests keep
// running. Safe to call more than once.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close completes a drain: it waits for admitted requests to finish,
// stops the shard loops (which first evaluate anything still queued),
// and returns once every loop has exited. Call BeginDrain first;
// Close does it if the caller did not.
func (s *Server) Close() {
	s.BeginDrain()
	s.inflight.Wait()
	s.closing.Do(func() { close(s.stop) })
	s.loops.Wait()
}
