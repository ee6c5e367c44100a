package locusd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/policy"
)

// postRouteAs fires one /route request under an X-Client identity.
func postRouteAs(t testing.TB, ts *httptest.Server, client, body string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/route", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Client", client)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("status %d: undecodable body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, resp.Header, doc
}

// TestEDFOrdering pins the dispatch order end to end: with one shard
// and a batch window wide enough to collect every request, the batch is
// evaluated earliest-deadline-first — batch_index follows deadline
// tightness, not arrival order. The order does not depend on the
// criticality scheduler: Policy.EDF only adds preemption at a full gate.
func TestEDFOrdering(t *testing.T) {
	for _, edf := range []bool{false, true} {
		t.Run(fmt.Sprintf("edf=%v", edf), func(t *testing.T) {
			testDeadlineOrder(t, policy.Config{EDF: edf})
		})
	}
}

func testDeadlineOrder(t *testing.T, pol policy.Config) {
	const n = 4
	s := newServer(t, Config{
		Shards:      1,
		BatchWindow: 400 * time.Millisecond,
		MaxBatch:    n, // the full wave closes the window early
		Policy:      pol,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Deadlines seconds apart, so millisecond-scale arrival jitter can
	// never reorder them. Request i carries the (n-i)-th tightest
	// deadline: arrival order is the reverse of criticality order.
	var wg sync.WaitGroup
	indexByDeadline := make([]int, n) // tightness rank -> batch_index
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rank := n - 1 - i // request 0 has the slackest deadline
			deadlineMS := 10000 + 5000*rank
			code, doc := postRoute(t, ts, fmt.Sprintf(
				`{"circuit":"svc","wire":%d,"pins":[[2,1],[40,4]],"deadline_ms":%d}`, i, deadlineMS))
			if code != http.StatusOK {
				t.Errorf("request %d: status %d (%v)", i, code, doc)
				return
			}
			indexByDeadline[rank] = int(doc["batch_index"].(float64))
			sizes[rank] = int(doc["batch_size"].(float64))
		}(i)
		// Stagger arrivals so the slackest-deadline request opens the
		// window and the tightest arrives last.
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()

	for rank := 0; rank < n; rank++ {
		if sizes[rank] != n {
			t.Fatalf("batch_size[rank %d] = %d, want %d (requests split across batches; widen the window)",
				rank, sizes[rank], n)
		}
	}
	for rank := 0; rank < n; rank++ {
		if indexByDeadline[rank] != rank {
			t.Errorf("deadline rank %d evaluated at batch_index %d, want %d (EDF order): %v",
				rank, indexByDeadline[rank], rank, indexByDeadline)
		}
	}
}

// TestEDFShedsLeastCritical pins the criticality-aware shed: with the
// gate full, a tighter-deadline arrival preempts the slackest queued
// request, which gets 429 + Retry-After while the arrival gets 200.
func TestEDFShedsLeastCritical(t *testing.T) {
	s := newServer(t, Config{
		Shards:      1,
		BatchWindow: 500 * time.Millisecond,
		MaxInFlight: 1,
		Policy:      policy.Config{EDF: true},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		hdr  http.Header
		doc  map[string]any
	}
	slack := make(chan result, 1)
	go func() {
		code, hdr, doc := postRouteAs(t, ts, "slack-client",
			`{"circuit":"svc","pins":[[2,1],[40,4]],"deadline_ms":60000}`)
		slack <- result{code, hdr, doc}
	}()
	// Wait until the slack request holds the only gate slot.
	for i := 0; s.InFlight() == 0 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}

	code, _, doc := postRouteAs(t, ts, "tight-client",
		`{"circuit":"svc","wire":9,"pins":[[3,2],[30,5]],"deadline_ms":5000}`)
	if code != http.StatusOK {
		t.Fatalf("tight-deadline arrival: status %d, want 200 (%v)", code, doc)
	}

	r := <-slack
	if r.code != http.StatusTooManyRequests {
		t.Fatalf("preempted request: status %d, want 429 (%v)", r.code, r.doc)
	}
	if r.hdr.Get("Retry-After") == "" {
		t.Error("preempted 429 carries no Retry-After")
	}
	if msg, _ := r.doc["error"].(string); !strings.Contains(msg, "more critical") {
		t.Errorf("preempted error %q, want the eviction sentinel text", msg)
	}
	v := s.vars()
	if v.Evicted != 1 || v.Shed != 1 {
		t.Errorf("evicted %d shed %d, want 1 and 1", v.Evicted, v.Shed)
	}
}

// testWire builds a wire inside the test circuit's grid for direct
// (non-HTTP) Route calls.
func testWire(id int) circuit.Wire {
	return circuit.Wire{ID: id, Pins: []circuit.Pin{{X: 2, Y: 1}, {X: 40, Y: 4}}}
}

// TestShedReleasesBreakerProbe pins the probe-leak regression: a
// request admitted through a half-open breaker and then shed at a full
// gate produces no outcome, so the probe slot must be handed back.
// Without the release, the breaker stays half-open with its one probe
// slot occupied forever, rejecting every request until restart.
func TestShedReleasesBreakerProbe(t *testing.T) {
	s := newServer(t, Config{
		Shards:      1,
		BatchWindow: 50 * time.Millisecond,
		MaxInFlight: 1,
		Policy:      policy.Config{BreakerFailures: 1, BreakerCooldown: 300 * time.Millisecond},
	})

	// One guaranteed deadline expiry (1ms deadline inside a 50ms batch
	// window) trips the threshold-1 breaker.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	if _, err := s.Route(ctx, RouteRequest{Circuit: "svc", Wire: testWire(1)}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expiry request err = %v, want ErrDeadline", err)
	}
	cancel()
	if _, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(2)}); !errors.Is(err, policy.ErrBreakerOpen) {
		t.Fatalf("request on tripped breaker err = %v, want ErrBreakerOpen", err)
	}

	// Fill the gate, wait out the cooldown, and send the probe: the
	// breaker admits it half-open, the full gate sheds it.
	if !s.gate.TryEnter() {
		t.Fatal("gate refused below capacity")
	}
	time.Sleep(400 * time.Millisecond)
	if _, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(3)}); !errors.Is(err, ErrShed) {
		t.Fatalf("probe at full gate err = %v, want ErrShed", err)
	}
	s.gate.Leave()

	// The shed probe never produced an outcome; the slot must be free
	// for the next arrival, whose success closes the breaker.
	if _, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(4)}); err != nil {
		t.Fatalf("re-probe after shed err = %v, want nil (probe slot leaked: breaker wedged)", err)
	}
	if _, err := s.Route(context.Background(), RouteRequest{Circuit: "svc", Wire: testWire(5)}); err != nil {
		t.Errorf("request after closing probe err = %v, want nil", err)
	}
}

// TestPreemptExpiredVictimNotDoubleCounted pins the metrics split: a
// queued request whose caller already gave up is counted expired by its
// own goroutine; preemption finding its stale queue entry must not also
// count it shed/evicted.
func TestPreemptExpiredVictimNotDoubleCounted(t *testing.T) {
	s := newServer(t, Config{
		Shards:      1,
		BatchWindow: 10 * time.Second, // long window keeps entries queued
		MaxInFlight: 1,
		Policy:      policy.Config{EDF: true},
	})

	// Park a request in the EDF queue (a plain context picks up the 5s
	// default deadline), then cancel its caller: the request is counted
	// expired and releases its gate slot, but its entry stays queued
	// until a window closes.
	ctx, cancel := context.WithCancel(context.Background())
	routed := make(chan error, 1)
	go func() {
		_, err := s.Route(ctx, RouteRequest{Circuit: "svc", Wire: testWire(1)})
		routed <- err
	}()
	q := s.circuits["svc"].queue
	for i := 0; q.Len() == 0 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if q.Len() != 1 {
		t.Fatal("parked request never reached the EDF queue")
	}
	cancel()
	if err := <-routed; !errors.Is(err, ErrDeadline) {
		t.Fatalf("cancelled request err = %v, want ErrDeadline", err)
	}

	// Refill the gate so the next arrival must preempt; the only
	// candidate victim is the stale entry. The arrival's 2s deadline is
	// strictly tighter than the victim's defaulted 5s, so EvictSlackest
	// really hands back the stale entry.
	if !s.gate.TryEnter() {
		t.Fatal("gate refused after the cancelled request released it")
	}
	defer s.gate.Leave()
	tight, tcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer tcancel()
	if _, err := s.Route(tight, RouteRequest{Circuit: "svc", Wire: testWire(2)}); !errors.Is(err, ErrShed) {
		t.Fatalf("arrival err = %v, want ErrShed (stale victim yields no usable slot)", err)
	}

	v := s.vars()
	if v.Expired != 1 || v.Evicted != 0 || v.Shed != 1 {
		t.Errorf("expired %d evicted %d shed %d, want 1/0/1 (stale victim double-counted)",
			v.Expired, v.Evicted, v.Shed)
	}
}

// TestRetryAfterFromQueueState pins the Retry-After derivation: the
// estimate is ceil(in-flight / (shards*max-batch)) batch windows,
// rounded up to whole seconds — queue state, not a constant. The
// white-box part drives the gate directly so the multi-window division
// is exercised without parking real requests over many windows.
func TestRetryAfterFromQueueState(t *testing.T) {
	s := newServer(t, Config{
		Shards:      1,
		BatchWindow: 3 * time.Second,
		MaxBatch:    1,
		MaxInFlight: 8,
	})
	for i := 0; i < 4; i++ {
		if !s.gate.TryEnter() {
			t.Fatal("gate refused below capacity")
		}
	}
	// 4 in flight, 1 retired per 3s window: 4 windows = 12s.
	if got := s.RetryAfterSeconds(); got != 12 {
		t.Errorf("RetryAfterSeconds with backlog 4 = %d, want 12", got)
	}
	for i := 0; i < 4; i++ {
		s.gate.Leave()
	}
	// Empty backlog still advises one full window (3s), never below 1s.
	if got := s.RetryAfterSeconds(); got != 3 {
		t.Errorf("RetryAfterSeconds idle = %d, want 3 (one window)", got)
	}
}

// TestRetryAfterHeaderOnShed pins the header end to end: a 429 from a
// full gate carries Retry-After equal to the server's drain estimate —
// here one 3s window.
func TestRetryAfterHeaderOnShed(t *testing.T) {
	s := newServer(t, Config{
		Shards:      1,
		BatchWindow: 3 * time.Second,
		MaxInFlight: 1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park one request inside the window; its short deadline lets it
	// expire right after the assertion instead of holding the drain.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]],"deadline_ms":700}`)
	}()
	for i := 0; s.InFlight() == 0 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := ts.Client().Post(ts.URL+"/route", "application/json",
		strings.NewReader(`{"circuit":"svc","pins":[[3,2],[30,5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\" (one 3s window to drain)", got)
	}
	wg.Wait()
}

// TestCacheHitAndEpochInvalidation pins the result cache over HTTP: a
// repeat request is served cached, and a commit advances the cost epoch
// so the next repeat re-evaluates.
func TestCacheHitAndEpochInvalidation(t *testing.T) {
	s := newServer(t, Config{
		Shards:      1,
		BatchWindow: time.Millisecond,
		Policy:      policy.Config{CacheEntries: 64},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"circuit":"svc","wire":5,"pins":[[2,1],[40,4]]}`
	code, doc1 := postRoute(t, ts, body)
	if code != http.StatusOK || doc1["cached"] == true {
		t.Fatalf("first request: status %d cached %v", code, doc1["cached"])
	}
	code, doc2 := postRoute(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("second request: status %d", code)
	}
	if doc2["cached"] != true {
		t.Error("repeat request not served from the cache")
	}
	if doc2["cost"] != doc1["cost"] || doc2["wire"] != doc1["wire"] {
		t.Errorf("cached response diverges: %v vs %v", doc2, doc1)
	}
	if s.vars().CacheHits != 1 {
		t.Errorf("cache_hits = %d, want 1", s.vars().CacheHits)
	}

	// A commit bumps the epoch; the same wire set must re-evaluate.
	commitBody := `{"circuit":"svc","wire":5,"pins":[[2,1],[40,4]],"commit":true}`
	if code, doc := postRoute(t, ts, commitBody); code != http.StatusOK || doc["cached"] == true {
		t.Fatalf("commit request: status %d cached %v (commits must never hit the cache)", code, doc["cached"])
	}
	if got := s.Epoch("svc"); got != 1 {
		t.Fatalf("cost epoch after commit = %d, want 1", got)
	}
	if _, doc := postRoute(t, ts, body); doc["cached"] == true {
		t.Error("request after a commit served from the stale epoch")
	}
}

// TestBreakerOverHTTP drives the breaker through its lifecycle: expired
// deadlines trip it, open rejects with 503 + Retry-After, and a
// successful probe after the cooldown closes it.
func TestBreakerOverHTTP(t *testing.T) {
	s := newServer(t, Config{
		Shards:      1,
		BatchWindow: 100 * time.Millisecond,
		Policy:      policy.Config{BreakerFailures: 2, BreakerCooldown: 300 * time.Millisecond},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two guaranteed deadline expiries (1ms deadline inside a 100ms
	// window) trip the breaker.
	for i := 0; i < 2; i++ {
		code, doc := postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]],"deadline_ms":1}`)
		if code != http.StatusGatewayTimeout {
			t.Fatalf("expiry %d: status %d, want 504 (%v)", i, code, doc)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/route", "application/json",
		strings.NewReader(`{"circuit":"svc","pins":[[2,1],[40,4]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped breaker: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker 503 carries no Retry-After")
	}
	if s.vars().Denied == 0 {
		t.Error("breaker rejection not counted as denied")
	}

	// After the cooldown a healthy probe closes the breaker again.
	time.Sleep(350 * time.Millisecond)
	if code, doc := postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]]}`); code != http.StatusOK {
		t.Fatalf("probe after cooldown: status %d, want 200 (%v)", code, doc)
	}
	if code, _ := postRoute(t, ts, `{"circuit":"svc","pins":[[3,2],[30,5]]}`); code != http.StatusOK {
		t.Errorf("request after closing probe: status %d, want 200", code)
	}
}

// TestRateLimitOverHTTP pins per-client limiting: the second request
// under one X-Client identity breaks the burst-1 bucket and gets 429 +
// Retry-After, while another client is unaffected.
func TestRateLimitOverHTTP(t *testing.T) {
	s := newServer(t, Config{
		Shards:      1,
		BatchWindow: time.Millisecond,
		Policy:      policy.Config{RatePerSec: 0.01, Burst: 1},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"circuit":"svc","pins":[[2,1],[40,4]]}`
	if code, _, doc := postRouteAs(t, ts, "alice", body); code != http.StatusOK {
		t.Fatalf("first request: status %d (%v)", code, doc)
	}
	code, hdr, doc := postRouteAs(t, ts, "alice", body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429 (%v)", code, doc)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("rate-limit 429 carries no Retry-After")
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "over rate limit") {
		t.Errorf("rate-limit error %q", msg)
	}
	if code, _, _ := postRouteAs(t, ts, "bob", body); code != http.StatusOK {
		t.Errorf("other client: status %d, want 200 (per-client buckets)", code)
	}
	if s.vars().Denied != 1 {
		t.Errorf("denied = %d, want 1", s.vars().Denied)
	}
}

// TestDeadlineAdmissionOverHTTP pins up-front infeasibility rejection:
// a deadline below the admission floor is refused with 504 before
// queueing.
func TestDeadlineAdmissionOverHTTP(t *testing.T) {
	s := newServer(t, Config{
		Shards:      1,
		BatchWindow: time.Millisecond,
		Policy:      policy.Config{AdmitFloor: 2 * time.Second},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, doc := postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]],"deadline_ms":100}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("infeasible deadline: status %d, want 504 (%v)", code, doc)
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "infeasible") {
		t.Errorf("error %q, want the infeasibility sentinel text", msg)
	}
	if code, _ := postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]],"deadline_ms":30000}`); code != http.StatusOK {
		t.Errorf("feasible deadline: status %d, want 200", code)
	}
	if s.vars().Denied != 1 {
		t.Errorf("denied = %d, want 1", s.vars().Denied)
	}
}

// TestPolicyMetricsExposed pins the observability satellite: enabled
// elements surface per-element counters on /debug/vars and labelled
// locusd_policy_* series on /metrics.
func TestPolicyMetricsExposed(t *testing.T) {
	s := newServer(t, Config{
		Shards:      1,
		BatchWindow: time.Millisecond,
		Policy: policy.Config{
			AdmitFloor: time.Millisecond, RatePerSec: 100, Burst: 10,
			BreakerFailures: 5, CacheEntries: 8, EDF: true,
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]]}`)

	var vars varsDoc
	getJSON(t, ts, "/debug/vars", &vars)
	if len(vars.Policy) != 5 {
		t.Fatalf("vars policy elements = %d, want 5 (%+v)", len(vars.Policy), vars.Policy)
	}
	byName := map[string][]counterDoc{}
	for _, el := range vars.Policy {
		byName[el.Element] = el.Counters
	}
	for _, want := range []string{"deadline", "ratelimit", "breaker", "cache", "edf"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("vars missing element %q", want)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`locusd_policy_admitted_total{element="deadline"}`,
		`locusd_policy_admitted_total{element="ratelimit"}`,
		`locusd_policy_scheduled_total{element="edf"}`,
		`locusd_policy_misses_total{element="cache"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// One HELP/TYPE pair per metric name even with several elements
	// sharing the admitted_total suffix.
	if got := strings.Count(text, "# TYPE locusd_policy_admitted_total counter"); got != 1 {
		t.Errorf("locusd_policy_admitted_total TYPE lines = %d, want exactly 1", got)
	}
}
