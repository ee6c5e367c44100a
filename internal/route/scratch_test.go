package route

import (
	"math/rand"
	"slices"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
)

func evalsEqual(a, b Eval) bool {
	if a.Cost != b.Cost || a.CellsExamined != b.CellsExamined || a.Path.Len() != b.Path.Len() {
		return false
	}
	for i := range a.Path.Cells {
		if a.Path.Cells[i] != b.Path.Cells[i] {
			return false
		}
	}
	return true
}

// A reused Scratch must produce exactly the evaluation a fresh one does,
// wire after wire, on a congested array — cost, work count, and the cell
// sequence of the path.
func TestScratchReuseMatchesStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	v := emptyView(8, 120)
	for i := 0; i < 400; i++ {
		v.A.Add(rng.Intn(120), rng.Intn(8), int32(rng.Intn(5)))
	}
	s := NewScratch(v.Grid())
	for trial := 0; trial < 200; trial++ {
		nPins := 2 + rng.Intn(3)
		pins := make([]geom.Point, nPins)
		for i := range pins {
			pins[i] = geom.Pt(rng.Intn(120), rng.Intn(8))
		}
		w := &circuit.Wire{ID: trial, Pins: pins}
		got := s.RouteWire(v, w, DefaultParams())
		want := RouteWire(v, w, DefaultParams())
		if !evalsEqual(got, want) {
			t.Fatalf("trial %d: scratch eval %+v != standalone %+v", trial, got, want)
		}
		// Routing must also mutate the array the same way either path
		// would; commit some wires so later trials see congestion.
		if trial%3 == 0 {
			Commit(v, got.Path)
		}
	}
}

// A scratch must always route a wire with the pins it has now: a
// different wire recycling an ID, and the same wire object whose pins
// were rewritten in place (a store reroute with new pins keeps both the
// pointer and the ID), must each route from their new pins.
func TestScratchPinMutation(t *testing.T) {
	v := emptyView(6, 40)
	s := NewScratch(v.Grid())
	wantPins := func(name string, ev Eval, in []geom.Point, out ...geom.Point) {
		t.Helper()
		set := pathSet(ev.Path)
		for _, p := range in {
			if !set[p] {
				t.Fatalf("%s: path misses pin %v: %v", name, p, ev.Path.Cells)
			}
		}
		for _, p := range out {
			if set[p] {
				t.Fatalf("%s: path contains stale pin %v: %v", name, p, ev.Path.Cells)
			}
		}
	}

	w1 := &circuit.Wire{ID: 7, Pins: []geom.Point{geom.Pt(30, 2), geom.Pt(5, 1)}}
	ev1 := s.RouteWire(v, w1, DefaultParams())
	wantPins("first wire", ev1, w1.Pins)

	// Same ID, different wire object and different pins.
	w2 := &circuit.Wire{ID: 7, Pins: []geom.Point{geom.Pt(10, 5), geom.Pt(20, 0)}}
	wantPins("recycled-ID wire", s.RouteWire(v, w2, DefaultParams()), w2.Pins, geom.Pt(5, 1))

	// Re-routing the first wire again must reproduce its evaluation.
	if ev1b := s.RouteWire(v, w1, DefaultParams()); !evalsEqual(ev1, ev1b) {
		t.Fatalf("re-route differs: %+v vs %+v", ev1, ev1b)
	}

	// Same pointer, same ID, new pins (unsorted, so the scratch buffer is
	// exercised): the route must follow the new pins and equal a fresh
	// scratch's evaluation.
	w1.Pins = []geom.Point{geom.Pt(38, 4), geom.Pt(33, 0), geom.Pt(35, 5)}
	ev3 := s.RouteWire(v, w1, DefaultParams())
	wantPins("rewritten pins", ev3, w1.Pins, geom.Pt(30, 2), geom.Pt(5, 1))
	if want := RouteWire(v, w1, DefaultParams()); !evalsEqual(ev3, want) {
		t.Fatalf("rewritten pins: scratch eval %+v != standalone %+v", ev3, want)
	}
	// The unsorted input is sorted into a copy, never in place.
	if w1.Pins[0] != geom.Pt(38, 4) {
		t.Fatalf("SortedPins mutated the wire's pins: %v", w1.Pins)
	}
}

// SortedPins costs no allocation once the scratch's buffer has grown:
// sorted lists are returned as-is and unsorted ones reuse the buffer.
func TestSortedPinsAllocs(t *testing.T) {
	s := NewScratch(emptyView(6, 40).Grid())
	sorted := &circuit.Wire{ID: 1, Pins: []geom.Point{geom.Pt(1, 1), geom.Pt(9, 0), geom.Pt(9, 3)}}
	unsorted := &circuit.Wire{ID: 2, Pins: []geom.Point{geom.Pt(9, 3), geom.Pt(1, 1), geom.Pt(9, 0)}}
	if got := s.SortedPins(sorted); &got[0] != &sorted.Pins[0] {
		t.Fatal("sorted pin list was copied")
	}
	want := []geom.Point{geom.Pt(1, 1), geom.Pt(9, 0), geom.Pt(9, 3)}
	if got := s.SortedPins(unsorted); !slices.Equal(got, want) {
		t.Fatalf("SortedPins = %v, want %v", got, want)
	}
	if avg := testing.AllocsPerRun(100, func() {
		s.SortedPins(sorted)
		s.SortedPins(unsorted)
	}); avg != 0 {
		t.Fatalf("SortedPins costs %.1f allocs/op, want 0", avg)
	}
}

// RoutePair must match RouteWire on the equivalent two-pin wire, in both
// argument orders (the kernel canonicalises pin order itself).
func TestRoutePairMatchesTwoPinWire(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := emptyView(6, 60)
	for i := 0; i < 150; i++ {
		v.A.Add(rng.Intn(60), rng.Intn(6), int32(rng.Intn(4)))
	}
	s := NewScratch(v.Grid())
	for trial := 0; trial < 100; trial++ {
		a := geom.Pt(rng.Intn(60), rng.Intn(6))
		b := geom.Pt(rng.Intn(60), rng.Intn(6))
		want := RouteWire(v, &circuit.Wire{ID: trial, Pins: []geom.Point{a, b}}, DefaultParams())
		for _, pair := range [][2]geom.Point{{a, b}, {b, a}} {
			got := s.RoutePair(v, pair[0], pair[1], DefaultParams())
			if !evalsEqual(got, want) {
				t.Fatalf("trial %d: RoutePair(%v,%v) %+v != RouteWire %+v",
					trial, pair[0], pair[1], got, want)
			}
		}
	}
}

// One scratch must survive a change of grid size between calls (tests
// reuse scratches across arrays; production never does).
func TestScratchGridResize(t *testing.T) {
	small := emptyView(4, 20)
	big := emptyView(8, 200)
	s := NewScratch(small.Grid())

	w := &circuit.Wire{ID: 1, Pins: []geom.Point{geom.Pt(2, 1), geom.Pt(15, 3)}}
	if got, want := s.RouteWire(small, w, DefaultParams()), RouteWire(small, w, DefaultParams()); !evalsEqual(got, want) {
		t.Fatalf("small grid: %+v != %+v", got, want)
	}
	w2 := &circuit.Wire{ID: 2, Pins: []geom.Point{geom.Pt(5, 6), geom.Pt(180, 0)}}
	if got, want := s.RouteWire(big, w2, DefaultParams()), RouteWire(big, w2, DefaultParams()); !evalsEqual(got, want) {
		t.Fatalf("big grid: %+v != %+v", got, want)
	}
	if got, want := s.RouteWire(small, w, DefaultParams()), RouteWire(small, w, DefaultParams()); !evalsEqual(got, want) {
		t.Fatalf("back to small grid: %+v != %+v", got, want)
	}
}

// The walkers must enumerate exactly the cells of the materialised
// reference paths, in order — the invariant that keeps the cost-only
// pass and the winner materialisation (and thus every trace) identical.
func TestWalkersMatchReferencePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		p := geom.Pt(rng.Intn(50), rng.Intn(8))
		q := geom.Pt(rng.Intn(50), rng.Intn(8))
		xm := min(p.X, q.X) + rng.Intn(absInt(p.X-q.X)+1)
		ym := rng.Intn(8)

		check := func(name string, ref []geom.Point, walk func(sink cellSink)) {
			var got []geom.Point
			walk(collectSink{cells: &got})
			if len(got) != len(ref) {
				t.Fatalf("trial %d %s: %d cells, reference %d (%v vs %v)",
					trial, name, len(got), len(ref), got, ref)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("trial %d %s: cell %d = %v, reference %v", trial, name, i, got[i], ref[i])
				}
			}
		}
		check("hvh", hvhPath(p, q, xm), func(sink cellSink) { walkHVH(p, q, xm, sink) })
		check("vhv", vhvPath(p, q, ym), func(sink cellSink) { walkVHV(p, q, ym, sink) })
	}
}

// collectSink records walked cells for the walker equivalence test.
type collectSink struct{ cells *[]geom.Point }

func (c collectSink) visit(x, y int) { *c.cells = append(*c.cells, geom.Pt(x, y)) }
