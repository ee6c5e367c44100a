package locusd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locusroute/internal/backend"
	"locusroute/internal/circuit"
	"locusroute/internal/par"
)

// testCircuit generates the small circuit the service tests route
// against.
func testCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Generate(circuit.GenParams{
		Name: "svc", Channels: 6, Grids: 80, Wires: 40, MeanSpan: 10, LongFrac: 0.1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newServer stands up a Server over the test circuit and registers
// cleanup.
func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg, testCircuit(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// postRoute fires one /route request and decodes the response.
func postRoute(t testing.TB, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/route", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("status %d: undecodable body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, doc
}

// TestRouteBasic covers the happy path: route one wire, get its cost and
// serving shard back.
func TestRouteBasic(t *testing.T) {
	s := newServer(t, Config{Shards: 2, BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, doc := postRoute(t, ts, `{"circuit":"svc","wire":7,"pins":[[2,1],[40,4]]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %v", code, doc)
	}
	if doc["wire"] != float64(7) || doc["circuit"] != "svc" {
		t.Errorf("response echoes wrong identity: %v", doc)
	}
	if doc["cost"] == nil || doc["path_cells"].(float64) <= 0 {
		t.Errorf("degenerate evaluation: %v", doc)
	}
}

// TestRouteAllocs pins the in-process request path's allocation count:
// default config, one shard, a plain context. The queue entry is
// embedded in the pending request and batches are popped into a
// loop-owned buffer, so deadline-ordered dispatch costs no allocation
// per request beyond the pending request itself.
func TestRouteAllocs(t *testing.T) {
	s := newServer(t, Config{Shards: 1})
	req := RouteRequest{Circuit: "svc", Wire: testWire(1)}
	route := func() {
		if _, err := s.Route(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	route() // warm the scratch pool and the wire's pin cache
	avg := testing.AllocsPerRun(100, route)
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector; the pin runs in the non-race suite")
	}
	const maxAllocs = 12
	if avg > maxAllocs {
		t.Errorf("Server.Route costs %.1f allocs/op, want <= %d", avg, maxAllocs)
	}
}

// TestValidationErrors pins the HTTP codes of the failure modes: unknown
// circuit 404, out-of-grid pin 400 (rejected, not clamped), single pin
// 400, bad JSON 400.
func TestValidationErrors(t *testing.T) {
	s := newServer(t, Config{Shards: 1, BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		code       int
		errPart    string
	}{
		{"unknown circuit", `{"circuit":"nope","pins":[[0,0],[1,1]]}`, http.StatusNotFound, "unknown circuit"},
		{"outside grid", `{"circuit":"svc","wire":3,"pins":[[2,1],[999,42]]}`, http.StatusBadRequest, "not clamped"},
		{"single pin", `{"circuit":"svc","pins":[[2,1]]}`, http.StatusBadRequest, "need at least 2"},
		{"bad json", `{"circuit":`, http.StatusBadRequest, "bad request body"},
	}
	for _, cse := range cases {
		code, doc := postRoute(t, ts, cse.body)
		if code != cse.code {
			t.Errorf("%s: status %d, want %d (%v)", cse.name, code, cse.code, doc)
		}
		if msg, _ := doc["error"].(string); !strings.Contains(msg, cse.errPart) {
			t.Errorf("%s: error %q, want substring %q", cse.name, msg, cse.errPart)
		}
	}
	if s.vars().Rejected == 0 {
		t.Error("validation failures not counted")
	}
}

// TestBatchingWindow checks that requests arriving within one window are
// evaluated as one batch: with a single shard and a wide window, the
// reported batch_size must exceed one.
func TestBatchingWindow(t *testing.T) {
	s := newServer(t, Config{Shards: 1, BatchWindow: 150 * time.Millisecond, MaxBatch: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	var maxBatch int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, doc := postRoute(t, ts, fmt.Sprintf(`{"circuit":"svc","wire":%d,"pins":[[2,1],[40,4]]}`, i))
			if code != http.StatusOK {
				t.Errorf("wire %d: status %d", i, code)
				return
			}
			bs := int64(doc["batch_size"].(float64))
			for {
				cur := atomic.LoadInt64(&maxBatch)
				if bs <= cur || atomic.CompareAndSwapInt64(&maxBatch, cur, bs) {
					break
				}
			}
		}(i)
	}
	wg.Wait()
	if maxBatch < 2 {
		t.Errorf("max batch size %d; a 150ms window over one shard should have grouped the %d requests", maxBatch, n)
	}
	if got := s.vars().BatchSize.Max; got != maxBatch {
		t.Errorf("histogram max batch %d != observed %d", got, maxBatch)
	}
}

// TestDeadlineExpiry checks a request whose deadline lands inside the
// batching window fails with 504 and is counted as expired.
func TestDeadlineExpiry(t *testing.T) {
	s := newServer(t, Config{Shards: 1, BatchWindow: 400 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, doc := postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]],"deadline_ms":30}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%v)", code, doc)
	}
	if s.vars().Expired == 0 {
		t.Error("expired request not counted")
	}
}

// TestBackpressure sheds load with 429 + Retry-After when the admission
// gate is full: one slot, occupied by a request parked in a wide batch
// window.
func TestBackpressure(t *testing.T) {
	s := newServer(t, Config{Shards: 1, BatchWindow: 500 * time.Millisecond, MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan int)
	go func() {
		code, _ := postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]]}`)
		first <- code
	}()
	// Wait until the first request holds the gate slot.
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
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	if code := <-first; code != http.StatusOK {
		t.Errorf("occupying request finished %d, want 200", code)
	}
	if s.vars().Shed == 0 {
		t.Error("shed request not counted")
	}
}

// TestGracefulDrain checks the drain contract: a request in flight when
// the drain begins completes with 200, a request after it is refused
// with 503, /healthz flips to 503, and Close returns.
func TestGracefulDrain(t *testing.T) {
	s := newServer(t, Config{Shards: 1, BatchWindow: 300 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inFlight := make(chan int)
	go func() {
		code, _ := postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]]}`)
		inFlight <- code
	}()
	for i := 0; s.InFlight() == 0 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}

	s.BeginDrain()
	if code, doc := postRoute(t, ts, `{"circuit":"svc","pins":[[3,2],[30,5]]}`); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503 (%v)", code, doc)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz: status %d, want 503", resp.StatusCode)
	}

	if code := <-inFlight; code != http.StatusOK {
		t.Errorf("in-flight request during drain finished %d, want 200", code)
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after drain")
	}
}

// TestCommitVisibleOnShard checks a committed path raises congestion for
// the next evaluation on the same (single) shard: same wire, higher or
// equal cost, strictly higher once the path cells carry the commit.
func TestCommitVisibleOnShard(t *testing.T) {
	s := newServer(t, Config{Shards: 1, BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"circuit":"svc","pins":[[2,1],[40,4]],"commit":true}`
	_, doc1 := postRoute(t, ts, body)
	_, doc2 := postRoute(t, ts, body)
	c1, c2 := int64(doc1["cost"].(float64)), int64(doc2["cost"].(float64))
	if c2 <= c1 {
		t.Errorf("second routing of a committed wire cost %d, want > %d (commit must be visible)", c2, c1)
	}
	if s.vars().Committed != 2 {
		t.Errorf("committed count %d, want 2", s.vars().Committed)
	}
}

// TestEndpoints covers /circuits, /metrics and /debug/vars shape.
func TestEndpoints(t *testing.T) {
	s := newServer(t, Config{Shards: 2, BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postRoute(t, ts, `{"circuit":"svc","pins":[[2,1],[40,4]]}`)

	var cs circuitsDoc
	getJSON(t, ts, "/circuits", &cs)
	if len(cs.Circuits) != 1 || cs.Circuits[0].Name != "svc" || cs.Circuits[0].Shards != 2 {
		t.Errorf("circuits doc %+v", cs)
	}
	if cs.Circuits[0].CircuitHeight <= 0 {
		t.Errorf("baseline quality missing: %+v", cs.Circuits[0])
	}

	var vars varsDoc
	getJSON(t, ts, "/debug/vars", &vars)
	if vars.Served != 1 || vars.Capacity == 0 || vars.BatchSize == nil {
		t.Errorf("vars doc %+v", vars)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"locusd_requests_served_total 1",
		"# TYPE locusd_batch_size histogram",
		`locusd_batch_size_bucket{le="+Inf"} 1`,
		"locusd_in_flight 0",
	} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// getJSON decodes one GET endpoint.
func getJSON(t *testing.T, ts *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLoad is the -race smoke: at least 64 concurrent
// in-flight requests, every one completing 200, none dropped, then a
// clean drain. The gate is sized above the offered load so nothing
// sheds.
func TestConcurrentLoad(t *testing.T) {
	// A wide batching window parks the first wave of requests in the
	// circuit's queue, so all 64 are provably in flight at once before
	// any completes; later waves run at a normal window cadence. MaxBatch
	// sits above the wave: a full batch closes the window at once, which
	// would retire the wave before the in-flight peak can be observed.
	s := newServer(t, Config{
		Shards:      4,
		BatchWindow: 250 * time.Millisecond,
		MaxBatch:    128,
		MaxInFlight: 1024,
		Pool:        par.New(4),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 128

	const workers = 64
	const perWorker = 4
	var ok, bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				code, doc := postRoute(t, ts, fmt.Sprintf(
					`{"circuit":"svc","wire":%d,"pins":[[2,1],[40,4]],"commit":%v}`,
					w*perWorker+i, i%2 == 0))
				if code == http.StatusOK {
					ok.Add(1)
				} else {
					bad.Add(1)
					t.Errorf("worker %d: status %d (%v)", w, code, doc)
				}
			}
		}(w)
	}
	// The first request per worker cannot complete before the 250ms
	// window closes, so in-flight must climb to all 64 workers.
	peak := 0
	deadline := time.Now().Add(10 * time.Second)
	for peak < workers && time.Now().Before(deadline) {
		if fl := s.InFlight(); fl > peak {
			peak = fl
		}
		time.Sleep(time.Millisecond)
	}
	if peak < workers {
		t.Errorf("peak in-flight %d, want %d simultaneous requests", peak, workers)
	}
	wg.Wait()
	if got := ok.Load(); got != workers*perWorker {
		t.Errorf("completed responses %d, want %d (dropped %d)", got, workers*perWorker, bad.Load())
	}
	if v := s.vars(); v.Served != workers*perWorker {
		t.Errorf("served counter %d, want %d", v.Served, workers*perWorker)
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return under load drain")
	}
}

// TestPartitionedBaseline stands the service up on the partitioned
// backend: the baseline routing at startup uses intra-request
// parallelism, and serving behaves exactly as with the sequential
// baseline.
func TestPartitionedBaseline(t *testing.T) {
	s := newServer(t, Config{
		Backend:     backend.Partitioned,
		Partitions:  4,
		Shards:      1,
		BatchWindow: time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, doc := postRoute(t, ts, `{"circuit":"svc","wire":7,"pins":[[2,1],[40,4]]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %v", code, doc)
	}
	if doc["cost"] == nil || doc["path_cells"].(float64) <= 0 {
		t.Errorf("degenerate evaluation: %v", doc)
	}
}
