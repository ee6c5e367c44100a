package policy

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"locusroute/internal/geom"
)

// t0 is a fixed base instant: the elements take explicit clocks, so the
// tests never sleep.
var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero Config reports enabled")
	}
	cases := []Config{
		{AdmitFloor: time.Millisecond},
		{RatePerSec: 1},
		{BreakerFailures: 1},
		{CacheEntries: 1},
		{EDF: true},
	}
	for _, c := range cases {
		if !c.Enabled() {
			t.Errorf("%+v reports disabled", c)
		}
	}
}

// TestNilChainZeroCost pins the nil-receiver contract: a disabled chain
// is a nil pointer and every call on it is a no-op.
func TestNilChainZeroCost(t *testing.T) {
	c := New(Config{})
	if c != nil {
		t.Fatal("New(zero Config) != nil")
	}
	req := Request{Client: "x", Circuit: "c", Key: 1}
	if err := c.Admit(t0, &req); err != nil {
		t.Errorf("nil chain Admit = %v", err)
	}
	if _, ok := c.Lookup(&req, 0); ok {
		t.Error("nil chain Lookup hit")
	}
	c.Store(&req, 0, "v")
	c.Observe(t0, true)
	c.Release()
	if c.Sched() != nil {
		t.Error("nil chain Sched != nil")
	}
	if c.Elements() != nil {
		t.Error("nil chain Elements != nil")
	}
}

func TestChainElementsOrder(t *testing.T) {
	c := New(Config{
		AdmitFloor: time.Millisecond, RatePerSec: 1, BreakerFailures: 1,
		CacheEntries: 1, EDF: true,
	})
	var names []string
	for _, el := range c.Elements() {
		names = append(names, el.Name())
	}
	want := []string{"deadline", "ratelimit", "breaker", "cache", "edf"}
	if len(names) != len(want) {
		t.Fatalf("Elements = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Elements = %v, want %v", names, want)
		}
	}
}

func TestDeadlineAdmit(t *testing.T) {
	d := NewDeadline(100 * time.Millisecond)
	tight := &Request{Deadline: t0.Add(50 * time.Millisecond)}
	if err := d.Admit(t0, tight); !errors.Is(err, ErrDeadlineInfeasible) {
		t.Errorf("50ms slack under 100ms floor: err = %v, want ErrDeadlineInfeasible", err)
	}
	loose := &Request{Deadline: t0.Add(time.Second)}
	if err := d.Admit(t0, loose); err != nil {
		t.Errorf("1s slack: err = %v", err)
	}
	none := &Request{}
	if err := d.Admit(t0, none); err != nil {
		t.Errorf("no deadline: err = %v", err)
	}
	counters := map[string]int64{}
	for _, c := range d.Counters() {
		counters[c.Name] = c.Value
	}
	if counters["admitted_total"] != 2 || counters["refused_total"] != 1 {
		t.Errorf("counters = %v, want admitted 2, refused 1", counters)
	}
	var nilD *Deadline
	if err := nilD.Admit(t0, tight); err != nil {
		t.Errorf("nil Deadline rejects: %v", err)
	}
}

// TestRateLimitRefill drives the token bucket with a synthetic clock:
// burst admits, the next request is limited with a refill hint, and
// advancing the clock by the refill interval admits again.
func TestRateLimitRefill(t *testing.T) {
	l := NewRateLimit(2, 2) // 2 rps, burst 2
	req := &Request{Client: "a"}
	for i := 0; i < 2; i++ {
		if err := l.Admit(t0, req); err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	err := l.Admit(t0, req)
	var rle *RateLimitedError
	if !errors.As(err, &rle) || !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-burst err = %v, want *RateLimitedError wrapping ErrRateLimited", err)
	}
	if rle.RetryAfter <= 0 || rle.RetryAfter > time.Second {
		t.Errorf("RetryAfter = %v, want (0, 1s] at 2 rps", rle.RetryAfter)
	}
	// Half a second refills one token at 2 rps.
	if err := l.Admit(t0.Add(500*time.Millisecond), req); err != nil {
		t.Errorf("after refill: %v", err)
	}
	// A different client has its own bucket.
	if err := l.Admit(t0, &Request{Client: "b"}); err != nil {
		t.Errorf("fresh client: %v", err)
	}
	if got := l.Clients(); got != 2 {
		t.Errorf("Clients = %d, want 2", got)
	}
}

func TestRateLimitBurstDefault(t *testing.T) {
	l := NewRateLimit(2.5, 0)
	if l.burst != 3 {
		t.Errorf("burst default = %v, want ceil(2.5) = 3", l.burst)
	}
	l = NewRateLimit(0.2, 0)
	if l.burst != 1 {
		t.Errorf("burst default = %v, want minimum 1", l.burst)
	}
}

// TestRateLimitEviction pins the identity-churn bound: past maxClients
// the longest-idle bucket is recycled instead of growing the map.
func TestRateLimitEviction(t *testing.T) {
	l := NewRateLimit(1, 1)
	for i := 0; i < maxClients+10; i++ {
		// Later clients touch later instants, so the earliest clients
		// are the idlest and get recycled.
		now := t0.Add(time.Duration(i) * time.Millisecond)
		l.Admit(now, &Request{Client: fmt.Sprintf("client-%d", i)})
	}
	if got := l.Clients(); got > maxClients {
		t.Errorf("Clients = %d, want <= %d", got, maxClients)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(3, time.Second)
	req := &Request{}
	// Three consecutive failures trip it open.
	for i := 0; i < 3; i++ {
		if err := b.Admit(t0, req); err != nil {
			t.Fatalf("closed admit %d: %v", i, err)
		}
		b.Observe(t0, true)
	}
	if got := b.State(); got != "open" {
		t.Fatalf("state after 3 failures = %q, want open", got)
	}
	err := b.Admit(t0.Add(100*time.Millisecond), req)
	var boe *BreakerOpenError
	if !errors.As(err, &boe) || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open admit err = %v, want *BreakerOpenError wrapping ErrBreakerOpen", err)
	}
	if boe.RetryAfter <= 0 || boe.RetryAfter > time.Second {
		t.Errorf("RetryAfter = %v, want remaining cooldown", boe.RetryAfter)
	}
	// Past the cooldown a single probe is admitted; a second concurrent
	// request is still rejected.
	probe := t0.Add(1100 * time.Millisecond)
	if err := b.Admit(probe, req); err != nil {
		t.Fatalf("probe admit: %v", err)
	}
	if err := b.Admit(probe, req); !errors.Is(err, ErrBreakerOpen) {
		t.Errorf("second half-open admit err = %v, want ErrBreakerOpen", err)
	}
	// A successful probe closes the breaker.
	b.Observe(probe, false)
	if got := b.State(); got != "closed" {
		t.Fatalf("state after good probe = %q, want closed", got)
	}
	// A failed probe re-opens it.
	for i := 0; i < 3; i++ {
		b.Admit(probe, req)
		b.Observe(probe, true)
	}
	reprobe := probe.Add(1100 * time.Millisecond)
	if err := b.Admit(reprobe, req); err != nil {
		t.Fatalf("re-probe admit: %v", err)
	}
	b.Observe(reprobe, true)
	if got := b.State(); got != "open" {
		t.Errorf("state after failed probe = %q, want open", got)
	}
	counters := map[string]int64{}
	for _, c := range b.Counters() {
		counters[c.Name] = c.Value
	}
	if counters["trips_total"] != 3 {
		t.Errorf("trips_total = %d, want 3 (initial, re-trip, failed probe)", counters["trips_total"])
	}
}

// TestBreakerReleaseFreesProbe pins the abort path: a half-open probe
// that is shed or evicted before evaluation must free the probe slot
// without closing the breaker — and without it, every later Admit is
// rejected forever.
func TestBreakerReleaseFreesProbe(t *testing.T) {
	b := NewBreaker(1, time.Second)
	req := &Request{}
	if err := b.Admit(t0, req); err != nil {
		t.Fatalf("closed admit: %v", err)
	}
	b.Observe(t0, true) // threshold 1: trip
	if got := b.State(); got != "open" {
		t.Fatalf("state after failure = %q, want open", got)
	}
	probe := t0.Add(1100 * time.Millisecond)
	if err := b.Admit(probe, req); err != nil {
		t.Fatalf("probe admit after cooldown: %v", err)
	}
	if err := b.Admit(probe, req); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second half-open admit err = %v, want ErrBreakerOpen (probe slot taken)", err)
	}
	// The probe aborts before evaluation (shed at the gate): Release
	// frees the slot but yields no outcome.
	b.Release()
	if got := b.State(); got != "half-open" {
		t.Fatalf("state after Release = %q, want half-open (no outcome observed)", got)
	}
	if err := b.Admit(probe, req); err != nil {
		t.Fatalf("re-probe after Release: %v (leaked probe slot wedges the breaker)", err)
	}
	b.Observe(probe, false)
	if got := b.State(); got != "closed" {
		t.Errorf("state after good probe = %q, want closed", got)
	}
}

// TestBreakerReleaseKeepsClosedStreak pins the closed-state side: an
// aborted request is not a success, so Release must not reset the
// consecutive-failure count the way Observe(false) does.
func TestBreakerReleaseKeepsClosedStreak(t *testing.T) {
	b := NewBreaker(2, time.Second)
	req := &Request{}
	b.Admit(t0, req)
	b.Observe(t0, true)
	b.Release() // a shed request mid-streak: neither success nor failure
	b.Admit(t0, req)
	b.Observe(t0, true)
	if got := b.State(); got != "open" {
		t.Errorf("state = %q, want open (Release reset the failure streak)", got)
	}
	var nilB *Breaker
	nilB.Release()
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(2, time.Second)
	b.Observe(t0, true)
	b.Observe(t0, false)
	b.Observe(t0, true)
	if got := b.State(); got != "closed" {
		t.Errorf("state after interleaved outcomes = %q, want closed (streak reset)", got)
	}
}

func TestCacheHitMissEpoch(t *testing.T) {
	c := NewCache(2)
	c.Put("bnrE", 42, 0, "v0")
	if v, ok := c.Get("bnrE", 42, 0); !ok || v != "v0" {
		t.Errorf("Get same epoch = %v, %v; want v0, true", v, ok)
	}
	if _, ok := c.Get("bnrE", 42, 1); ok {
		t.Error("Get after epoch bump hit stale entry")
	}
	if _, ok := c.Get("MDC", 42, 0); ok {
		t.Error("Get different circuit hit")
	}
	// Overwrite in place.
	c.Put("bnrE", 42, 0, "v1")
	if v, _ := c.Get("bnrE", 42, 0); v != "v1" {
		t.Errorf("overwritten value = %v, want v1", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len after overwrite = %d, want 1", c.Len())
	}
}

func TestCacheFIFOEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("x", 1, 0, 1)
	c.Put("x", 2, 0, 2)
	c.Put("x", 3, 0, 3) // evicts key 1
	if _, ok := c.Get("x", 1, 0); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.Get("x", 2, 0); !ok {
		t.Error("second entry evicted early")
	}
	if _, ok := c.Get("x", 3, 0); !ok {
		t.Error("newest entry missing")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	counters := map[string]int64{}
	for _, cc := range c.Counters() {
		counters[cc.Name] = cc.Value
	}
	if counters["evictions_total"] != 1 {
		t.Errorf("evictions_total = %d, want 1", counters["evictions_total"])
	}
}

func TestKeyPins(t *testing.T) {
	a := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	b := []geom.Point{{X: 3, Y: 4}, {X: 1, Y: 2}}
	if KeyPins(a) == KeyPins(b) {
		t.Error("pin order does not affect the key")
	}
	if KeyPins(a) != KeyPins([]geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}) {
		t.Error("identical pin sets hash differently")
	}
	if KeyPins(nil) != KeyPins([]geom.Point{}) {
		t.Error("empty pin sets hash differently")
	}
}

func TestDeadlineLess(t *testing.T) {
	early, late := t0, t0.Add(time.Second)
	var zero time.Time
	cases := []struct {
		a, b time.Time
		want bool
	}{
		{early, late, true},
		{late, early, false},
		{early, early, false},
		{zero, early, false}, // no deadline is least critical
		{early, zero, true},
		{zero, zero, false},
	}
	for _, c := range cases {
		if got := DeadlineLess(c.a, c.b); got != c.want {
			t.Errorf("DeadlineLess(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestEDFQueueOrder pins the tentpole ordering property: PopBatch
// returns items earliest-deadline-first regardless of arrival order,
// with no-deadline items last.
func TestEDFQueueOrder(t *testing.T) {
	q := NewEDFQueue()
	deadlines := []int{300, 100, 0, 200, 50} // ms; 0 = none
	for i, ms := range deadlines {
		var d time.Time
		if ms > 0 {
			d = t0.Add(time.Duration(ms) * time.Millisecond)
		}
		q.Push(&Item{Deadline: d, Value: i})
	}
	batch := q.PopBatch(nil, 10)
	var got []int
	for _, it := range batch {
		got = append(got, it.Value.(int))
	}
	want := []int{4, 1, 3, 0, 2} // 50ms, 100ms, 200ms, 300ms, none
	if len(got) != len(want) {
		t.Fatalf("PopBatch = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PopBatch order = %v, want %v", got, want)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len after full drain = %d, want 0", q.Len())
	}
	if q.PopBatch(nil, 1) != nil {
		t.Error("PopBatch on empty queue != nil")
	}
}

func TestEDFQueuePartialBatch(t *testing.T) {
	q := NewEDFQueue()
	for i := 0; i < 5; i++ {
		q.Push(&Item{Deadline: t0.Add(time.Duration(i) * time.Millisecond), Value: i})
	}
	batch := q.PopBatch(nil, 3)
	if len(batch) != 3 || batch[0].Value != 0 || batch[2].Value != 2 {
		t.Fatalf("PopBatch(3) = %v", batch)
	}
	if q.Len() != 2 {
		t.Errorf("Len after partial drain = %d, want 2", q.Len())
	}
}

// TestEvictSlackest pins the shedding rule: the evicted item is the
// least-critical one, and only when strictly less critical than the
// preemptor.
func TestEvictSlackest(t *testing.T) {
	q := NewEDFQueue()
	q.Push(&Item{Deadline: t0.Add(100 * time.Millisecond), Value: "tight"})
	q.Push(&Item{Deadline: t0.Add(900 * time.Millisecond), Value: "slack"})
	q.Push(&Item{Value: "none"}) // no deadline: slackest of all

	d, ok := q.SlackestDeadline()
	if !ok || !d.IsZero() {
		t.Fatalf("SlackestDeadline = %v, %v; want zero time, true", d, ok)
	}
	// A preemptor with any real deadline beats the no-deadline entry.
	it := q.EvictSlackest(t0.Add(time.Second))
	if it == nil || it.Value != "none" {
		t.Fatalf("EvictSlackest evicted %v, want the no-deadline item", it)
	}
	// Now the 900ms item is slackest; a 500ms preemptor beats it.
	it = q.EvictSlackest(t0.Add(500 * time.Millisecond))
	if it == nil || it.Value != "slack" {
		t.Fatalf("EvictSlackest evicted %v, want the 900ms item", it)
	}
	// A 500ms preemptor does NOT beat the remaining 100ms item.
	if it := q.EvictSlackest(t0.Add(500 * time.Millisecond)); it != nil {
		t.Fatalf("EvictSlackest evicted %v against a more critical queue", it.Value)
	}
	// A no-deadline preemptor never evicts anything with a deadline.
	if it := q.EvictSlackest(time.Time{}); it != nil {
		t.Fatalf("zero-deadline preemptor evicted %v", it.Value)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
	// The evicted items must be gone from later pops.
	batch := q.PopBatch(nil, 10)
	if len(batch) != 1 || batch[0].Value != "tight" {
		t.Fatalf("final PopBatch = %v, want only the tight item", batch)
	}
}

func TestEDFQueueSignal(t *testing.T) {
	q := NewEDFQueue()
	q.Push(&Item{Deadline: t0})
	select {
	case <-q.C():
	default:
		t.Fatal("Push did not signal the wake channel")
	}
	// The channel is one-buffered: many pushes, one pending signal.
	q.Push(&Item{Deadline: t0})
	q.Push(&Item{Deadline: t0})
	select {
	case <-q.C():
	default:
		t.Fatal("second signal missing")
	}
	select {
	case <-q.C():
		t.Fatal("wake channel buffered more than one signal")
	default:
	}
	// Signal re-arms without a push.
	q.Signal()
	select {
	case <-q.C():
	default:
		t.Fatal("Signal did not re-arm the channel")
	}
}

// TestEDFQueueConcurrent hammers the queue from pushers, poppers and
// evictors at once; run under -race this pins the locking discipline.
// Every pushed item must be consumed exactly once across the two
// removal paths.
func TestEDFQueueConcurrent(t *testing.T) {
	q := NewEDFQueue()
	const pushers, perPusher = 4, 200
	total := pushers * perPusher

	var consumed sync.Map
	count := func(it *Item) {
		if _, dup := consumed.LoadOrStore(it, true); dup {
			t.Error("item consumed twice")
		}
	}

	var push sync.WaitGroup
	for p := 0; p < pushers; p++ {
		push.Add(1)
		go func(p int) {
			defer push.Done()
			for i := 0; i < perPusher; i++ {
				// Every deadline is after t0, so the evictor's t0
				// preemptor can always evict whatever is slackest.
				q.Push(&Item{Deadline: t0.Add(time.Duration(p*perPusher+i+1) * time.Microsecond), Value: p})
			}
		}(p)
	}

	done := make(chan struct{})
	var drain sync.WaitGroup
	drain.Add(2)
	go func() {
		defer drain.Done()
		for {
			for _, it := range q.PopBatch(nil, 16) {
				count(it)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	go func() {
		defer drain.Done()
		for {
			if it := q.EvictSlackest(t0); it != nil {
				count(it)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	push.Wait()
	// Let the consumers drain the remainder, then check exactly-once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := 0
		consumed.Range(func(_, _ any) bool { n++; return true })
		if n == total && q.Len() == 0 {
			break
		}
		if time.Now().After(deadline) {
			close(done)
			drain.Wait()
			t.Fatalf("consumed %d of %d items before timeout (queue len %d)", n, total, q.Len())
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	drain.Wait()
}
