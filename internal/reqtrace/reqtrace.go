// Package reqtrace is the request-lifecycle tracing layer for the
// serving path: every locusd request carries a process-unique id
// (minted at ingress or adopted from the client) and a span whose stage
// durations tile the request's lifetime, so the per-stage breakdown
// sums to observed wall latency by construction — the serving-path form
// of the paper's §5.1.3 accounting, where categories are exhaustive and
// telescoping rather than sampled.
//
// The package follows tracev's discipline: a nil *Tracer ignores every
// call after one pointer test, so the disabled path costs zero
// allocations and single-digit nanoseconds (pinned by benchmark), and
// finished records land in a fixed-capacity ring that overwrites oldest
// — tracing can stay on in production without unbounded growth. Unlike
// tracev (confined to one DES goroutine) the ring here takes a mutex,
// because requests finish concurrently; the lock is touched only for
// retained records, never on the unsampled fast path.
package reqtrace

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes one interval of a request's lifetime. The intervals
// tile ingress→finish with no gaps: each Mark charges the time since
// the previous boundary, so the sum over stages telescopes to wall
// latency exactly (in integer nanoseconds — no rounding slack).
//
// Append new stages before NumStages; never renumber, the binary
// protocol carries these bytes.
type Stage uint8

const (
	// StageAdmit covers ingress to dispatch: validation, the policy
	// admission chain (per-element detail lands in Rec.Policy), cache
	// lookup, and the concurrency-gate wait.
	StageAdmit Stage = iota
	// StageQueue covers dispatch to batch pickup: the wait in the
	// circuit's deadline queue until a shard loop collected the request.
	StageQueue
	// StageBatch covers batch pickup to this wire's evaluation: the
	// in-batch wait while earlier members of the same batch route.
	StageBatch
	// StageRoute covers the kernel evaluation of the request's wire.
	StageRoute
	// StageCommit covers committing the routed path onto the replica.
	StageCommit
	// StageRespond covers the handoff back to the waiting caller: the
	// done-channel send, waiter wakeup, and span finalisation. Early
	// failures (rejected, denied, shed) charge their tail here too.
	StageRespond

	// NumStages bounds the stage enum.
	NumStages
)

var stageNames = [NumStages]string{"admit", "queue", "batch", "route", "commit", "respond"}

func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage%d", uint8(s))
}

// StageByName inverts Stage.String; ok is false for unknown names.
func StageByName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Outcome classifies how a request's span ended.
type Outcome uint8

const (
	// OutcomeOK is a routed (and possibly committed) request.
	OutcomeOK Outcome = iota
	// OutcomeCached is a policy-cache hit: no dispatch happened.
	OutcomeCached
	// OutcomeRejected is a validation failure (unknown circuit, bad
	// wire, oversized trace id).
	OutcomeRejected
	// OutcomeDenied is a policy-chain or draining refusal.
	OutcomeDenied
	// OutcomeShed is a concurrency-gate refusal (no slot, no victim).
	OutcomeShed
	// OutcomeEvicted is a queued request shed by the EDF scheduler in
	// favour of a more critical one.
	OutcomeEvicted
	// OutcomeExpired is a deadline that passed before routing finished.
	OutcomeExpired

	// NumOutcomes bounds the outcome enum.
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{"ok", "cached", "rejected", "denied", "shed", "evicted", "expired"}

func (o Outcome) String() string {
	if o < NumOutcomes {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome%d", uint8(o))
}

// ElementNs is one policy element's share of the admission decision.
type ElementNs struct {
	Element string
	Ns      int64
}

// MaxTraceID bounds a client-supplied trace id; the binary protocol's
// str8 fields impose the same limit, so both transports agree.
const MaxTraceID = 255

// Rec is one finished request's flat record. Times are nanoseconds on
// the owning tracer's clock (monotonic since the tracer's epoch).
type Rec struct {
	// ID is the process-unique minted id (monotonic from 1).
	ID uint64
	// TraceID is the client-supplied id when one was adopted; empty
	// means the request is known only by its minted id.
	TraceID string
	// Circuit, Client, Wire, Shard locate the request.
	Circuit string
	Client  string
	Wire    int
	Shard   int
	// Start is the ingress timestamp; Wall is end−Start, and equals the
	// sum over Stages exactly.
	Start int64
	Wall  int64
	// Stages is the exhaustive per-stage breakdown (ns).
	Stages [NumStages]int64
	// Policy is the per-element admission timing, when captured.
	Policy []ElementNs
	// Outcome classifies the ending.
	Outcome Outcome
}

// IDString is the id echoed to callers: the adopted client id when one
// exists, else the minted id rendered as "r%08x".
func (r *Rec) IDString() string {
	if r.TraceID != "" {
		return r.TraceID
	}
	return fmt.Sprintf("r%08x", r.ID)
}

// End is the finish timestamp on the tracer clock.
func (r *Rec) End() int64 { return r.Start + r.Wall }

// Options configures a Tracer. The zero value samples nothing and logs
// nothing but still mints ids and serves live captures.
type Options struct {
	// Capacity bounds the ring of retained records; <=0 selects
	// DefaultCapacity. Overwrites oldest when full.
	Capacity int
	// Sample retains every Nth finished request in the ring (1 = all,
	// 0 = none outside live-capture windows).
	Sample int
	// SlowLog emits a structured log line for any request whose wall
	// latency meets the threshold; 0 disables.
	SlowLog time.Duration
	// Logger receives slow-request lines; nil uses slog.Default.
	Logger *slog.Logger
	// Process names the Chrome-trace process; empty means "locusd".
	Process string
}

// DefaultCapacity is the ring size when Options.Capacity is unset.
const DefaultCapacity = 4096

// Tracer owns the id counter, the clock, and the ring of finished
// records. All methods are safe on a nil receiver (no-ops) and for
// concurrent use.
type Tracer struct {
	opts  Options
	epoch time.Time

	lastID       atomic.Uint64 // minted request ids
	finished     atomic.Uint64 // spans finished (sampling counter)
	slow         atomic.Uint64 // slow-log lines emitted
	captureUntil atomic.Int64  // live-capture window end, tracer clock

	mu      sync.Mutex
	recs    []Rec
	next    int    // overwrite cursor once len(recs) == cap
	dropped uint64 // records overwritten
}

// New builds a Tracer. Begin/Finish on the result are allocation-free
// for unsampled requests with no client id.
func New(o Options) *Tracer {
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	if o.Sample < 0 {
		o.Sample = 0
	}
	if o.Process == "" {
		o.Process = "locusd"
	}
	return &Tracer{opts: o, epoch: time.Now()}
}

// Enabled reports whether tracing is on (receiver non-nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Options returns the tracer's resolved configuration.
func (t *Tracer) Options() Options {
	if t == nil {
		return Options{}
	}
	return t.opts
}

// Now is the tracer clock: monotonic nanoseconds since the tracer was
// built. 0 on a nil tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Begin opens a span for one request, minting its id and stamping
// ingress. traceID is the client-supplied id to adopt ("" mints only);
// the caller bounds it by MaxTraceID. On a nil tracer the returned span
// is inert: every method on it is a no-op after one test. The wrapper
// stays within the inlining budget so the disabled path pays only the
// pointer test and the zero-value store.
func (t *Tracer) Begin(traceID, circuit, client string, wire int) Span {
	if t == nil {
		return Span{}
	}
	return t.begin(traceID, circuit, client, wire)
}

func (t *Tracer) begin(traceID, circuit, client string, wire int) Span {
	now := t.Now()
	r := recPool.Get().(*Rec)
	pol := r.Policy[:0] // keep the pooled slice's capacity across reuse
	*r = Rec{
		ID:      t.lastID.Add(1),
		TraceID: traceID,
		Circuit: circuit,
		Client:  client,
		Wire:    wire,
		Shard:   -1,
		Start:   now,
		Policy:  pol,
	}
	return Span{tr: t, last: now, rec: r}
}

// recPool recycles the per-request records. Keeping Rec behind a
// pointer makes Span three words, so the disabled path's zero-value
// span costs a store instead of a Rec-sized memclr (the pinned
// BenchmarkDisabledSpan budget), and the pooled Policy slice makes
// per-element timing allocation-free at steady state. Any copy of a
// record that outlives the span (ring retention, Finish's out
// parameter) must deep-copy Policy — the pooled backing array is
// reused by a later request.
var recPool = sync.Pool{New: func() any { return new(Rec) }}

// clonePolicy detaches a record's Policy from the pooled backing array.
func clonePolicy(r *Rec) {
	if len(r.Policy) > 0 {
		r.Policy = append([]ElementNs(nil), r.Policy...)
	} else {
		r.Policy = nil
	}
}

// CaptureFor opens (or extends) a live-capture window: every request
// finishing before it closes is retained in the ring regardless of the
// sampling rate. Returns the window bounds [from, to] on the tracer
// clock.
func (t *Tracer) CaptureFor(d time.Duration) (from, to int64) {
	if t == nil {
		return 0, 0
	}
	from = t.Now()
	to = from + int64(d)
	for {
		cur := t.captureUntil.Load()
		if cur >= to || t.captureUntil.CompareAndSwap(cur, to) {
			return from, to
		}
	}
}

// Records returns a snapshot of the retained records, oldest first.
func (t *Tracer) Records() []Rec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Rec, 0, len(t.recs))
	out = append(out, t.recs[t.next:]...)
	out = append(out, t.recs[:t.next]...)
	return out
}

// Stats is the tracer's lifetime accounting for /debug/vars.
type Stats struct {
	Finished uint64 `json:"finished"`
	Retained int    `json:"retained"`
	Dropped  uint64 `json:"dropped"`
	Slow     uint64 `json:"slow"`
	Sample   int    `json:"sample"`
}

// Stats snapshots the tracer counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	retained, dropped := len(t.recs), t.dropped
	t.mu.Unlock()
	return Stats{
		Finished: t.finished.Load(),
		Retained: retained,
		Dropped:  dropped,
		Slow:     t.slow.Load(),
		Sample:   t.opts.Sample,
	}
}

// finish runs retention and the slow log for one closed span's record.
func (t *Tracer) finish(r *Rec) {
	if t.opts.SlowLog > 0 && r.Wall >= int64(t.opts.SlowLog) {
		t.slow.Add(1)
		t.logSlow(r)
	}
	n := t.finished.Add(1)
	sampled := t.opts.Sample > 0 && n%uint64(t.opts.Sample) == 0
	captured := t.captureUntil.Load() >= r.End()
	if !sampled && !captured {
		return
	}
	cp := *r
	clonePolicy(&cp) // the retained copy outlives the pooled record
	t.mu.Lock()
	if len(t.recs) < t.opts.Capacity {
		t.recs = append(t.recs, cp)
	} else {
		t.recs[t.next] = cp
		t.next++
		if t.next == t.opts.Capacity {
			t.next = 0
		}
		t.dropped++
	}
	t.mu.Unlock()
}

// logSlow emits one structured line with the full stage breakdown, so a
// single outlier is attributable without a capture running.
func (t *Tracer) logSlow(r *Rec) {
	lg := t.opts.Logger
	if lg == nil {
		lg = slog.Default()
	}
	attrs := make([]slog.Attr, 0, 8+int(NumStages))
	attrs = append(attrs,
		slog.String("request_id", r.IDString()),
		slog.String("circuit", r.Circuit),
		slog.Int("wire", r.Wire),
		slog.String("outcome", r.Outcome.String()),
		slog.Int64("wall_us", r.Wall/1e3),
	)
	if r.Client != "" {
		attrs = append(attrs, slog.String("client", r.Client))
	}
	if r.Shard >= 0 {
		attrs = append(attrs, slog.Int("shard", r.Shard))
	}
	for st := Stage(0); st < NumStages; st++ {
		if ns := r.Stages[st]; ns > 0 {
			attrs = append(attrs, slog.Int64(st.String()+"_us", ns/1e3))
		}
	}
	if len(r.Policy) > 0 {
		pol := make([]slog.Attr, 0, len(r.Policy))
		for _, e := range r.Policy {
			pol = append(pol, slog.Int64(e.Element+"_us", e.Ns/1e3))
		}
		attrs = append(attrs, slog.Attr{Key: "policy", Value: slog.GroupValue(pol...)})
	}
	lg.LogAttrs(context.Background(), slog.LevelWarn, "slow request", attrs...)
}

// Span accumulates one request's stage boundaries. It is a three-word
// value holding a pooled record; the owner calls pointer methods on the
// copy it holds, and exactly one copy may Finish. A span with a nil
// tracer ignores everything.
type Span struct {
	tr   *Tracer
	last int64 // previous stage boundary on the tracer clock
	rec  *Rec  // pooled; non-nil exactly while tr is non-nil
}

// Traced reports whether the span is live (tracer enabled, not yet
// finished).
func (s *Span) Traced() bool { return s.tr != nil }

// ID is the id echoed to the caller; empty on an untraced span.
func (s *Span) ID() string {
	if s.tr == nil {
		return ""
	}
	return s.rec.IDString()
}

// Mark charges the time since the previous boundary to st and advances
// the boundary to now. The wrapper keeps the nil test within the
// inlining budget (the clock read pushes the combined body over it), so
// untraced spans pay nothing here.
func (s *Span) Mark(st Stage) {
	if s.tr == nil {
		return
	}
	s.markNow(st)
}

func (s *Span) markNow(st Stage) { s.markAt(st, s.tr.Now()) }

// MarkAt charges up to an externally captured stamp (from the same
// tracer's clock) to st. The shard loop stamps stage boundaries and
// hands them back through the done channel, so it never touches the
// span of a waiter that may already have abandoned it; the waiter
// merges the stamps here.
func (s *Span) MarkAt(st Stage, at int64) {
	if s.tr == nil {
		return
	}
	s.markAt(st, at)
}

func (s *Span) markAt(st Stage, at int64) {
	if at < s.last {
		// Stamps arrive ordered (channel handoff happens-before), so
		// this only defends against a caller bug; clamping keeps the
		// sum-to-wall invariant intact by charging zero.
		at = s.last
	}
	s.rec.Stages[st] += at - s.last
	s.last = at
}

// Element records one policy element's admission-decision time.
func (s *Span) Element(element string, d time.Duration) {
	if s.tr == nil {
		return
	}
	s.rec.Policy = append(s.rec.Policy, ElementNs{Element: element, Ns: int64(d)})
}

// SetShard records which shard executed the request.
func (s *Span) SetShard(shard int) {
	if s.tr == nil {
		return
	}
	s.rec.Shard = shard
}

// Finish closes the span: the tail since the last boundary is charged
// to StageRespond, wall latency is fixed as the telescoped sum, the
// slow log fires if due, and the record enters the ring when sampled or
// inside a capture window. When rec is non-nil the finished record is
// copied into it. Reports whether the span was live; a span finishes at
// most once. Taking the record through an out-parameter (rather than a
// return value) keeps the disabled path free of a Rec-sized zeroing,
// which the pinned BenchmarkDisabledSpan budget does not fit.
func (s *Span) Finish(out Outcome, rec *Rec) bool {
	if s.tr == nil {
		return false
	}
	s.finish(out, rec)
	return true
}

func (s *Span) finish(out Outcome, rec *Rec) {
	s.markNow(StageRespond)
	r := s.rec
	r.Outcome = out
	r.Wall = s.last - r.Start
	s.tr.finish(r)
	if rec != nil {
		*rec = *r
		clonePolicy(rec) // the caller's copy outlives the pooled record
	}
	s.tr, s.rec = nil, nil
	recPool.Put(r)
}
