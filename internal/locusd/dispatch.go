package locusd

import (
	"fmt"
	"time"

	"locusroute/internal/policy"
	"locusroute/internal/route"
)

// This file is the dispatch stage of the request path: how admitted
// requests become batches on a serving shard. Route pushes every
// request onto its circuit's deadline-ordered queue; each of the
// circuit's shards runs loop, which pulls the next batch from that one
// shared queue — the paper's shared memory distributed loop, where a
// free process takes the next wire from one counter at once instead of
// owning a static share or waiting for a batch to fill. Dispatch is
// work-conserving by default: a shard that wakes to a non-empty queue
// pops it straight away, and batches form from whatever queued while
// the circuit's shards were busy. A positive BatchWindow instead holds
// the first arrival until the window closes or MaxBatch requests are
// queued. Batches are popped earliest-deadline-first, and with the
// criticality scheduler enabled a full admission gate preempts the
// slackest queued request instead of shedding the arrival (preempt).

// loop pulls deadline-ordered batches from the circuit's shared queue.
// With no window it pops up to MaxBatch requests as soon as it wakes,
// and creates no timer. With a window, requests stay in the queue until
// the window closes — that is what keeps them visible to preempt.
// Either way PopBatch hands them over already in earliest-deadline-first
// order, so the shard commits the most critical work first. The batch
// buffer is owned by the loop and reused for every batch: Pool.Run
// returns only once process is done with it.
func (s *Server) loop(sc *servedCircuit, sh *shard) {
	defer s.loops.Done()
	q := sc.queue
	batch := make([]*policy.Item, 0, s.cfg.MaxBatch)
	for {
		if q.Len() == 0 {
			select {
			case <-q.C():
			case u := <-sh.updates:
				// Idle shard: fold the mutation delta into the replica now.
				// Only this loop touches sh.arr, so no lock is needed.
				sh.apply(u)
				continue
			case <-sc.stop:
				// Evicted after the circuit's in-flight requests drained;
				// nothing is queued.
				return
			case <-s.stop:
				s.drain(sc, sh, batch)
				return
			}
		}
		if s.cfg.BatchWindow > 0 {
			s.window(q, sh)
		}
		sh.drainUpdates()
		batch = q.PopBatch(batch[:0], s.cfg.MaxBatch)
		if q.Len() > 0 {
			// Partial drain: re-arm the wake channel so a sibling shard
			// (or the next lap) picks up the remainder.
			q.Signal()
		}
		if len(batch) == 0 {
			// The wave was consumed by a sibling or evicted by preempt.
			continue
		}
		s.chain.Sched().NoteBatch()
		s.cfg.Pool.Run(func() { s.process(sh, sc, batch) })
	}
}

// window holds a batch open after its first arrival until BatchWindow
// passes, MaxBatch requests are queued, or the server stops. More
// arrivals only bump the wake channel; the queue orders them. The loop
// condition re-checks the queue depth before every wait: a burst of >=
// MaxBatch pushes coalesces into the single buffered wake (often
// consumed by loop's empty-queue wait), so waiting for another signal
// would sleep the whole window with a full batch already queued.
func (s *Server) window(q *policy.EDFQueue, sh *shard) {
	timer := time.NewTimer(s.cfg.BatchWindow)
	defer timer.Stop()
	for q.Len() < s.cfg.MaxBatch {
		select {
		case <-timer.C:
			return
		case u := <-sh.updates:
			sh.apply(u)
		case <-s.stop:
			return
		case <-q.C():
		}
	}
}

// drain evaluates everything still queued at shutdown. Close waits for
// in-flight requests before closing stop, so the queue cannot grow
// underneath the drain.
func (s *Server) drain(sc *servedCircuit, sh *shard, batch []*policy.Item) {
	for {
		batch = sc.queue.PopBatch(batch[:0], s.cfg.MaxBatch)
		if len(batch) == 0 {
			return
		}
		s.cfg.Pool.Run(func() { s.process(sh, sc, batch) })
	}
}

// apply folds one mutation delta into the shard's replica. Must only be
// called from the shard's own loop goroutine.
func (sh *shard) apply(u shardUpdate) {
	view := route.ArrayView{A: sh.arr}
	for _, p := range u.rip {
		route.RipUp(view, p)
	}
	for _, p := range u.commit {
		route.Commit(view, p)
	}
}

// drainUpdates applies every queued mutation delta without blocking, so
// a batch evaluates against the freshest replica the loop has seen.
func (sh *shard) drainUpdates() {
	for {
		select {
		case u := <-sh.updates:
			sh.apply(u)
		default:
			return
		}
	}
}

// preempt implements least-critical-first shedding: with the gate full,
// find the queued request with the slackest deadline across all served
// circuits and, if it is strictly less critical than the arrival,
// shed it (429 to its caller) and take its admission slot. Returns
// whether a slot was obtained; false falls back to shedding the
// arrival, which is then itself the least critical request present.
func (s *Server) preempt(deadline time.Time) bool {
	sched := s.chain.Sched()
	if sched == nil {
		return false
	}
	// Two laps: when the victim's slot cannot be transferred directly
	// (its own goroutine released it already), the fallback TryEnter
	// races concurrent arrivals; one retry keeps the preemption useful
	// under that race without spinning.
	for lap := 0; lap < 2; lap++ {
		var victimQ *policy.EDFQueue
		var slackest time.Time
		s.mu.RLock()
		queues := make([]*policy.EDFQueue, 0, len(s.names))
		for _, name := range s.names {
			queues = append(queues, s.circuits[name].queue)
		}
		s.mu.RUnlock()
		for _, q := range queues {
			if d, ok := q.SlackestDeadline(); ok {
				if victimQ == nil || policy.DeadlineLess(slackest, d) {
					victimQ, slackest = q, d
				}
			}
		}
		if victimQ == nil {
			return false
		}
		it := victimQ.EvictSlackest(deadline)
		if it == nil {
			// The arrival is the least critical request present.
			return false
		}
		victim := it.Value.(*pending)
		// Winning the gateHeld CAS transfers the victim's admission slot
		// straight to the arrival: it never returns to the gate, so a
		// concurrent arrival cannot steal it in between and force a
		// second eviction for one capacity conflict.
		transferred := victim.gateHeld.CompareAndSwap(true, false)
		if victim.ctx.Err() == nil {
			sched.NoteEviction()
			s.met.mu.Lock()
			s.met.shed++
			s.met.evicted++
			s.met.mu.Unlock()
			victim.done <- outcome{err: fmt.Errorf("%w (slack %v lost to a tighter deadline)",
				policy.ErrEvicted, time.Until(it.Deadline).Round(time.Millisecond))}
		}
		// else: the victim's caller already gave up; its own goroutine
		// counts the request as expired, and bumping shed/evicted here
		// would double-count it.
		if transferred || s.gate.TryEnter() {
			return true
		}
	}
	return false
}

// process evaluates one batch against the shard's replica. Only one
// loop calls process for a given shard, so the array needs no lock;
// the routing scratch is borrowed from the server's grid-keyed pool
// for the batch and returned afterwards, so the per-request cost stays
// at the reused-scratch allocation floor (see backend.ScratchPool).
// Batches arrive deadline-ordered, and BatchIndex records the commit
// order.
func (s *Server) process(sh *shard, sc *servedCircuit, batch []*policy.Item) {
	view := route.ArrayView{A: sh.arr}
	scratch := s.scratch.Get(sc.grid)
	defer s.scratch.Put(sc.grid, scratch)
	tr := s.cfg.Tracer
	batchStart := tr.Now() // 0 when tracing is disabled
	for i, it := range batch {
		p := it.Value.(*pending)
		if p.ctx.Err() != nil {
			// The waiter usually counted this expiry already (ctx.Done
			// fires for it too); countExpired keeps the tally at one.
			s.countExpired(p)
			p.done <- outcome{err: ErrDeadline}
			continue
		}
		wait := time.Since(p.enqueued)
		// Stage stamps ride the done channel back to the waiter; the
		// shard never touches p.span (the waiter may have abandoned or
		// finished it already — p.traced is the immutable mirror).
		// batchStart is shared by the whole batch — request i's batch
		// stage is the time earlier members spent routing.
		traced := p.traced
		var t [4]int64
		if traced {
			t[0] = batchStart
			t[1] = tr.Now()
		}
		ev := scratch.RouteWire(view, &p.req.Wire, s.cfg.Router)
		if traced {
			t[2] = tr.Now()
			t[3] = t[2] // no commit: the commit stage charges zero
		}
		committed := false
		if p.req.Commit {
			route.Commit(view, ev.Path)
			sc.epoch.Add(1)
			committed = true
			if traced {
				t[3] = tr.Now()
			}
		}
		s.met.mu.Lock()
		s.met.served++
		if committed {
			s.met.committed++
		}
		s.met.batchSize.Observe(int64(len(batch)))
		s.met.waitUs.Observe(wait.Microseconds())
		s.met.routeCost.Observe(ev.Cost)
		s.met.mu.Unlock()
		p.done <- outcome{resp: RouteResponse{
			Circuit:       p.req.Circuit,
			Shard:         sh.id,
			WireID:        p.req.Wire.ID,
			Cost:          ev.Cost,
			PathCells:     ev.Path.Len(),
			CellsExamined: ev.CellsExamined,
			BatchSize:     len(batch),
			BatchIndex:    i,
			Committed:     committed,
			WaitMicros:    wait.Microseconds(),
		}, t: t, traced: traced}
	}
}

// RetryAfterSeconds estimates the drain time of the current backlog —
// the Retry-After a 429 carries. The gate's in-flight count is the
// backlog; every batch window the shards can retire up to
// totalShards*MaxBatch of it. The estimate is rounded up to whole
// seconds (the header's unit), minimum 1. With no window (the default)
// it is always that 1-second floor, on purpose: the backlog then drains
// at routing speed, and even a full default gate (256 requests at tens
// of microseconds each) clears in far less than a second.
func (s *Server) RetryAfterSeconds() int {
	perWindow := int(s.totalShards.Load()) * s.cfg.MaxBatch
	if perWindow < 1 {
		// An empty (store-only) server with nothing registered yet still
		// owes 429s a sane Retry-After.
		perWindow = s.cfg.MaxBatch
	}
	windows := (s.gate.InFlight() + perWindow - 1) / perWindow
	if windows < 1 {
		windows = 1
	}
	d := time.Duration(windows) * s.cfg.BatchWindow
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
