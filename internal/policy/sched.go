package policy

import (
	"sync"
	"sync/atomic"
	"time"
)

// Sched is the criticality scheduler element: it switches the host from
// indiscriminate shedding to least-critical-first shedding at a full
// admission gate, where an arrival preempts the slackest queued request
// (EDFQueue.EvictSlackest) instead of being shed itself. Deadline-ordered
// dispatch is not switched by it: hosts queue every request in an
// EDFQueue either way. Sched itself carries the element identity and the
// scheduling counters the host bumps.
//
// A nil *Sched means preemption is off. Every method is nil-safe, so
// hosts bump the counters unconditionally and test for nil only before
// preempting.
type Sched struct {
	scheduled atomic.Int64
	batches   atomic.Int64
	evictions atomic.Int64
}

// NewSched returns the scheduler element.
func NewSched() *Sched { return &Sched{} }

// NoteScheduled counts one request entering an EDF queue.
func (s *Sched) NoteScheduled() {
	if s != nil {
		s.scheduled.Add(1)
	}
}

// NoteBatch counts one EDF-ordered batch closing.
func (s *Sched) NoteBatch() {
	if s != nil {
		s.batches.Add(1)
	}
}

// NoteEviction counts one queued request shed for a more critical
// arrival.
func (s *Sched) NoteEviction() {
	if s != nil {
		s.evictions.Add(1)
	}
}

// Name implements Element.
func (s *Sched) Name() string { return "edf" }

// Counters implements Element.
func (s *Sched) Counters() []Counter {
	return []Counter{
		{Name: "scheduled_total", Help: "requests entered into EDF queues", Value: s.scheduled.Load()},
		{Name: "batches_total", Help: "EDF-ordered batches dispatched", Value: s.batches.Load()},
		{Name: "evictions_total", Help: "queued requests shed for more critical arrivals", Value: s.evictions.Load()},
	}
}

// Item is one queued request: its deadline (criticality) and an opaque
// host value. An Item belongs to at most one EDFQueue at a time.
type Item struct {
	Deadline time.Time
	Value    any
	pos      int // heap index; -1 once removed
}

// EDFQueue is a deadline-ordered request queue: Push admits in O(log n),
// PopBatch drains up to a batch in earliest-deadline-first order, and
// EvictSlackest removes the least-critical entry — the preemption the
// criticality-aware shed uses. All methods are safe for concurrent use;
// an item removed by one path (pop, evict) is invisible to every other,
// which is what makes the host's one-completion-per-request invariant
// easy to keep.
//
// C is a one-slot wake channel: Push signals it, consumers wait on it.
// Because the slot is buffered, a signal sent between a consumer's
// empty-check and its wait is never lost; consumers that drain only part
// of the queue must Signal again so a sibling picks up the rest.
type EDFQueue struct {
	mu     sync.Mutex
	heap   []*Item // min-heap on Deadline; zero deadline sorts last
	notify chan struct{}
}

// NewEDFQueue returns an empty queue.
func NewEDFQueue() *EDFQueue {
	return &EDFQueue{notify: make(chan struct{}, 1)}
}

// DeadlineLess is the criticality order: a is more critical than b when
// its deadline is earlier. The zero time (no deadline) is least
// critical and sorts after every real deadline. Exported so hosts
// comparing candidate shed victims rank them exactly as the queue does.
func DeadlineLess(a, b time.Time) bool {
	if a.IsZero() {
		return false
	}
	if b.IsZero() {
		return true
	}
	return a.Before(b)
}

// Push enqueues it and signals a waiting consumer.
func (q *EDFQueue) Push(it *Item) {
	q.mu.Lock()
	it.pos = len(q.heap)
	q.heap = append(q.heap, it)
	q.up(it.pos)
	q.mu.Unlock()
	q.Signal()
}

// PopBatch removes up to max items in deadline order (earliest first)
// and appends them to dst, returning the extended slice — dst itself
// when the queue is empty. Hosts pass a buffer they reuse across
// batches, so a pop allocates nothing.
func (q *EDFQueue) PopBatch(dst []*Item, max int) []*Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	for n := 0; n < max && len(q.heap) > 0; n++ {
		dst = append(dst, q.popMin())
	}
	return dst
}

// Len reports the queued item count.
func (q *EDFQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// SlackestDeadline peeks the least-critical queued deadline (the
// latest, with "no deadline" counting as infinitely late). ok is false
// on an empty queue.
func (q *EDFQueue) SlackestDeadline() (deadline time.Time, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := q.slackestLocked()
	if i < 0 {
		return time.Time{}, false
	}
	return q.heap[i].Deadline, true
}

// EvictSlackest removes and returns the least-critical queued item,
// provided it is strictly less critical than tighterThan (a zero
// tighterThan preempts only no-deadline entries). It returns nil when
// no entry qualifies — the caller's request is then the least critical
// and must be shed itself.
func (q *EDFQueue) EvictSlackest(tighterThan time.Time) *Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := q.slackestLocked()
	if i < 0 {
		return nil
	}
	if !DeadlineLess(tighterThan, q.heap[i].Deadline) {
		return nil
	}
	return q.remove(i)
}

// slackestLocked finds the max-deadline index, -1 when empty. The max
// of a min-heap lives in the leaves; scanning the whole slice is simple
// and the queue is bounded by the host's admission gate.
func (q *EDFQueue) slackestLocked() int {
	if len(q.heap) == 0 {
		return -1
	}
	max := 0
	for i := 1; i < len(q.heap); i++ {
		if DeadlineLess(q.heap[max].Deadline, q.heap[i].Deadline) {
			max = i
		}
	}
	return max
}

// C is the wake channel: one buffered signal per Push.
func (q *EDFQueue) C() <-chan struct{} { return q.notify }

// Signal re-arms the wake channel without enqueueing; consumers call it
// after a partial drain so siblings see the remainder.
func (q *EDFQueue) Signal() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// popMin removes the heap root. Caller holds the lock.
func (q *EDFQueue) popMin() *Item { return q.remove(0) }

// remove deletes index i from the heap. Caller holds the lock.
func (q *EDFQueue) remove(i int) *Item {
	it := q.heap[i]
	last := len(q.heap) - 1
	q.swap(i, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
	it.pos = -1
	return it
}

func (q *EDFQueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].pos = i
	q.heap[j].pos = j
}

func (q *EDFQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !DeadlineLess(q.heap[i].Deadline, q.heap[parent].Deadline) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *EDFQueue) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(q.heap) && DeadlineLess(q.heap[l].Deadline, q.heap[min].Deadline) {
			min = l
		}
		if r < len(q.heap) && DeadlineLess(q.heap[r].Deadline, q.heap[min].Deadline) {
			min = r
		}
		if min == i {
			return
		}
		q.swap(i, min)
		i = min
	}
}
