package sm

import (
	"testing"

	"locusroute/internal/assign"
	"locusroute/internal/cache"
	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/route"
)

func smallCircuit(seed int64) *circuit.Circuit {
	return circuit.MustGenerate(circuit.GenParams{
		Name: "small", Channels: 8, Grids: 64, Wires: 60, MeanSpan: 10,
		LongFrac: 0.1, Seed: seed,
	})
}

func TestTracedSingleProcMatchesSequential(t *testing.T) {
	c := smallCircuit(1)
	cfg := DefaultConfig()
	cfg.Procs = 1
	cfg.Router.Iterations = 2
	res, tr, err := RunTraced(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := route.Sequential(c, cfg.Router)
	if res.CircuitHeight != seq.CircuitHeight {
		t.Errorf("1-proc traced height %d != sequential %d", res.CircuitHeight, seq.CircuitHeight)
	}
	if res.Occupancy != seq.Occupancy {
		t.Errorf("1-proc traced occupancy %d != sequential %d", res.Occupancy, seq.Occupancy)
	}
	if tr.Len() == 0 {
		t.Errorf("trace must not be empty")
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Errorf("reads/writes = %d/%d", res.Reads, res.Writes)
	}
}

func TestTracedDeterministic(t *testing.T) {
	c := smallCircuit(2)
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Router.Iterations = 2
	a, ta, err := RunTraced(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, tb, err := RunTraced(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Final.Equal(b.Final) {
		t.Errorf("final cost arrays differ")
	}
	a.Final, b.Final = nil, nil
	if a != b {
		t.Errorf("results differ: %+v vs %+v", a, b)
	}
	if ta.Len() != tb.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", ta.Len(), tb.Len())
	}
	for i := range ta.Refs {
		if ta.Refs[i] != tb.Refs[i] {
			t.Fatalf("trace ref %d differs", i)
		}
	}
}

func TestTracedTraceIsSorted(t *testing.T) {
	c := smallCircuit(3)
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Router.Iterations = 1
	_, tr, err := RunTraced(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tr.Len(); i++ {
		if tr.Refs[i].T < tr.Refs[i-1].T {
			t.Fatalf("trace out of order at %d", i)
		}
	}
}

func TestTracedDynamicRoutesEveryWireEachIteration(t *testing.T) {
	c := smallCircuit(1)
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Router.Iterations = 3
	res, _, err := RunTraced(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WiresRouted != 3*len(c.Wires) {
		t.Errorf("WiresRouted = %d, want %d", res.WiresRouted, 3*len(c.Wires))
	}
}

func TestTracedStaticAssignment(t *testing.T) {
	c := smallCircuit(1)
	part, _ := geom.NewPartition(c.Grid, 2, 2)
	asn := assign.AssignThreshold(c, part, 1000)
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Order = Static
	cfg.Assignment = asn
	cfg.Router.Iterations = 2
	res, _, err := RunTraced(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WiresRouted != 2*len(c.Wires) {
		t.Errorf("WiresRouted = %d", res.WiresRouted)
	}
}

func TestTracedValidation(t *testing.T) {
	c := smallCircuit(1)
	cfg := DefaultConfig()
	cfg.Procs = 0
	if _, _, err := RunTraced(c, cfg); err == nil {
		t.Errorf("zero procs must fail")
	}
	cfg = DefaultConfig()
	cfg.Order = Static
	if _, _, err := RunTraced(c, cfg); err == nil {
		t.Errorf("static without assignment must fail")
	}
	part, _ := geom.NewPartition(c.Grid, 2, 2)
	cfg.Assignment = assign.AssignRoundRobin(c, part)
	cfg.Procs = 16 // mismatch
	if _, _, err := RunTraced(c, cfg); err == nil {
		t.Errorf("proc mismatch must fail")
	}
}

func TestTracedQualityDegradesWithProcs(t *testing.T) {
	// Section 5.4 for the shared memory version: quality degrades as
	// processors are added because in-flight work is invisible.
	c := circuit.MustGenerate(circuit.BnrELike(1))
	one := DefaultConfig()
	one.Procs = 1
	one.Router.Iterations = 2
	r1, _, err := RunTraced(c, one)
	if err != nil {
		t.Fatal(err)
	}
	sixteen := DefaultConfig()
	sixteen.Procs = 16
	sixteen.Router.Iterations = 2
	r16, _, err := RunTraced(c, sixteen)
	if err != nil {
		t.Fatal(err)
	}
	if r16.CircuitHeight < r1.CircuitHeight {
		t.Errorf("16-proc height %d better than uniprocessor %d — interference model broken",
			r16.CircuitHeight, r1.CircuitHeight)
	}
	if r16.Span >= r1.Span {
		t.Errorf("16 procs (%v) must have smaller makespan than 1 (%v)", r16.Span, r1.Span)
	}
}

func TestTracedFeedsCacheSimulator(t *testing.T) {
	c := smallCircuit(1)
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Router.Iterations = 2
	_, tr, err := RunTraced(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	for _, ls := range []int{4, 8, 16, 32} {
		traffic, err := cache.Replay(tr, 4, ls)
		if err != nil {
			t.Fatal(err)
		}
		if traffic.Bytes() <= last {
			t.Errorf("line %d: traffic %d did not grow from %d (Table 3 shape)",
				ls, traffic.Bytes(), last)
		}
		last = traffic.Bytes()
	}
}

func TestLiveMatchesTracedWiresRouted(t *testing.T) {
	c := smallCircuit(1)
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Router.Iterations = 2
	res, err := RunLive(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WiresRouted != 2*len(c.Wires) {
		t.Errorf("WiresRouted = %d, want %d", res.WiresRouted, 2*len(c.Wires))
	}
	if res.CircuitHeight <= 0 || res.Occupancy <= 0 {
		t.Errorf("quality measures must be positive: %+v", res)
	}
}

func TestLiveStatic(t *testing.T) {
	c := smallCircuit(1)
	part, _ := geom.NewPartition(c.Grid, 2, 2)
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Order = Static
	cfg.Assignment = assign.AssignThreshold(c, part, 30)
	cfg.Router.Iterations = 1
	res, err := RunLive(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WiresRouted != len(c.Wires) {
		t.Errorf("WiresRouted = %d", res.WiresRouted)
	}
}

func TestLiveSingleProcMatchesSequentialHeight(t *testing.T) {
	c := smallCircuit(4)
	cfg := DefaultConfig()
	cfg.Procs = 1
	cfg.Router.Iterations = 2
	res, err := RunLive(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := route.Sequential(c, cfg.Router)
	if res.CircuitHeight != seq.CircuitHeight {
		t.Errorf("1-proc live height %d != sequential %d", res.CircuitHeight, seq.CircuitHeight)
	}
}
