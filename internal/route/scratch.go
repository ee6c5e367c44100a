package route

import (
	"cmp"
	"slices"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
)

// Scratch is the reusable per-worker state of the routing kernel. One
// Scratch belongs to exactly one thread of control — a sequential run,
// one shared memory goroutine or logical process, or one message passing
// processor — for the whole run, so the kernel can evaluate and
// materialise routes without per-wire allocation:
//
//   - visited is an epoch-stamped grid that replaces the per-wire
//     map[Point]bool: bumping epoch "clears" it in O(1), and a cell is a
//     duplicate within the current wire iff its stamp equals epoch.
//   - cells accumulates the winning path of the wire being routed; the
//     kernel costs candidates by walking their coordinates against the
//     CostView and materialises cells only for the winner.
//   - pins holds the sorted copy of the current wire's pin list when the
//     wire's own list is out of order; the next wire overwrites it, so
//     a Scratch keeps no reference to, or state about, earlier wires.
//
// Scratch is not safe for concurrent use. The CostView stays the seam
// between the kernel and its callers: tracing, atomics, and message
// passing views all observe exactly the reads and writes the sequential
// reference kernel performs, in the same order.
type Scratch struct {
	grid    geom.Grid
	visited []uint64
	epoch   uint64
	cells   []geom.Point
	coster  costSink
	pins    []geom.Point
}

// NewScratch returns a Scratch sized for grid g.
func NewScratch(g geom.Grid) *Scratch {
	s := &Scratch{}
	s.ensure(g)
	return s
}

// ensure (re)sizes the visited grid when the scratch first sees a grid or
// the grid changes (tests reuse one scratch across differently sized
// arrays; production runs hit this once).
func (s *Scratch) ensure(g geom.Grid) {
	if s.grid == g && s.visited != nil {
		return
	}
	s.grid = g
	s.visited = make([]uint64, g.Cells())
	s.epoch = 0
	s.cells = s.cells[:0]
}

// SortedPins returns w's pins sorted by (X, Y). An already-sorted list
// (the common case for generated circuits) is w.Pins itself; otherwise
// the pins are sorted into the scratch's own buffer, which is valid
// until the next SortedPins or RouteWire call. Callers must not mutate
// the returned slice. Nothing is cached: w.Pins is read on every call,
// so a wire whose pins change in place routes with its new pins.
func (s *Scratch) SortedPins(w *circuit.Wire) []geom.Point {
	if slices.IsSortedFunc(w.Pins, comparePins) {
		return w.Pins
	}
	s.pins = append(s.pins[:0], w.Pins...)
	slices.SortFunc(s.pins, comparePins)
	return s.pins
}

// comparePins is the pin ordering of the segment decomposition: by X,
// ties by Y.
func comparePins(a, b geom.Point) int {
	if a.X != b.X {
		return cmp.Compare(a.X, b.X)
	}
	return cmp.Compare(a.Y, b.Y)
}

// RouteWire evaluates the candidate routes for w against view and returns
// the best one, exactly as the package-level RouteWire does, reusing the
// scratch's buffers. It does not modify the view; call Commit to place
// the wire.
func (s *Scratch) RouteWire(view CostView, w *circuit.Wire, params Params) Eval {
	params = params.withDefaults()
	s.ensure(view.Grid())
	return s.routePins(view, s.SortedPins(w), params)
}

// RoutePair routes the two-pin segment between a and b — the
// strict-ownership scheme's unit of work. The pins are put in canonical
// (X, Y) order first, matching RouteWire on a two-pin wire.
func (s *Scratch) RoutePair(view CostView, a, b geom.Point, params Params) Eval {
	params = params.withDefaults()
	s.ensure(view.Grid())
	if b.X < a.X || (b.X == a.X && b.Y < a.Y) {
		a, b = b, a
	}
	s.beginWire()
	var ev Eval
	ev.Cost, ev.CellsExamined = s.routeSegment(view, a, b, params)
	ev.Path = s.takePath()
	return ev
}

// routePins decomposes the sorted pin list into two-pin segments and
// routes each, deduplicating the per-wire path via the epoch grid.
func (s *Scratch) routePins(view CostView, pins []geom.Point, params Params) Eval {
	s.beginWire()
	var ev Eval
	for i := 0; i+1 < len(pins); i++ {
		cost, examined := s.routeSegment(view, pins[i], pins[i+1], params)
		ev.Cost += cost
		ev.CellsExamined += examined
	}
	ev.Path = s.takePath()
	return ev
}

// beginWire starts a new wire: a fresh epoch makes every visited stamp
// stale without touching the grid, and the cell accumulator rewinds.
func (s *Scratch) beginWire() {
	s.epoch++
	s.cells = s.cells[:0]
}

// takePath copies the accumulated winning cells into a caller-owned Path
// (callers retain paths across iterations for rip-up, so the scratch
// buffer cannot be handed out). This is the kernel's only allocation.
func (s *Scratch) takePath() Path {
	if len(s.cells) == 0 {
		return Path{}
	}
	out := make([]geom.Point, len(s.cells))
	copy(out, s.cells)
	return Path{Cells: out}
}

// visit implements cellSink for winner materialisation: append the cell
// to the wire's path unless this wire already holds it.
func (s *Scratch) visit(x, y int) {
	idx := y*s.grid.Grids + x
	if s.visited[idx] == s.epoch {
		return
	}
	s.visited[idx] = s.epoch
	s.cells = append(s.cells, geom.Pt(x, y))
}

// routeSegment enumerates the low-bend candidate routes between p and q —
// the HVH family over sampled jog columns, then the VHV family over the
// extended pin band — costing each by walking its coordinates against the
// view, and materialises cells only for the cheapest (ties broken by
// enumeration order). Both passes share one walker, so the reads the
// costing pass performs and the cells the winner contributes are the same
// sequence by construction.
func (s *Scratch) routeSegment(view CostView, p, q geom.Point, params Params) (cost int64, examined int) {
	grid := view.Grid()
	s.coster.view = view
	best := int64(-1)
	bestVHV := false
	bestM := 0

	consider := func(vhv bool, m int) {
		s.coster.sum, s.coster.n = 0, 0
		if vhv {
			walkVHV(p, q, m, &s.coster)
		} else {
			walkHVH(p, q, m, &s.coster)
		}
		examined += s.coster.n
		if best < 0 || s.coster.sum < best {
			best, bestVHV, bestM = s.coster.sum, vhv, m
		}
	}

	// HVH family: xm samples the span [p.X, q.X], at most
	// MaxHVHCandidates of them, always including both endpoints.
	x0, x1 := p.X, q.X
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	span := x1 - x0
	stride := 1
	if span+1 > params.MaxHVHCandidates {
		stride = (span + params.MaxHVHCandidates) / params.MaxHVHCandidates
	}
	for xm := x0; ; xm += stride {
		if xm > x1 {
			break
		}
		consider(false, xm)
		if stride > 1 && xm < x1 && xm+stride > x1 {
			xm = x1 - stride // make sure the far end is always sampled
		}
	}

	// VHV family: ym ranges over the pin band extended by
	// VHVDetourChannels in each direction, clamped to the grid.
	y0, y1 := p.Y, q.Y
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	y0 -= params.VHVDetourChannels
	y1 += params.VHVDetourChannels
	if y0 < 0 {
		y0 = 0
	}
	if y1 >= grid.Channels {
		y1 = grid.Channels - 1
	}
	for ym := y0; ym <= y1; ym++ {
		consider(true, ym)
	}

	// Materialise only the winner; this pass reads nothing from the view,
	// so traced executions observe candidate evaluation reads only.
	if bestVHV {
		walkVHV(p, q, bestM, s)
	} else {
		walkHVH(p, q, bestM, s)
	}
	s.coster.view = nil
	return best, examined
}

// cellSink receives the cells of one candidate route in path order.
type cellSink interface {
	visit(x, y int)
}

// costSink sums view costs over a candidate walk.
type costSink struct {
	view CostView
	sum  int64
	n    int
}

func (k *costSink) visit(x, y int) {
	k.sum += int64(k.view.Cost(x, y))
	k.n++
}

// runWalker emits the cells of a candidate's horizontal and vertical runs
// with adjacent duplicates (the corners where runs meet) skipped — the
// same sequence the materialised hvhPath/vhvPath lists hold.
type runWalker struct {
	sink         cellSink
	lastX, lastY int
	started      bool
}

func (w *runWalker) emit(x, y int) {
	if w.started && x == w.lastX && y == w.lastY {
		return
	}
	w.started = true
	w.lastX, w.lastY = x, y
	w.sink.visit(x, y)
}

func (w *runWalker) horizontal(y, x0, x1 int) {
	step := 1
	if x1 < x0 {
		step = -1
	}
	for x := x0; ; x += step {
		w.emit(x, y)
		if x == x1 {
			break
		}
	}
}

func (w *runWalker) vertical(x, y0, y1 int) {
	step := 1
	if y1 < y0 {
		step = -1
	}
	for y := y0; ; y += step {
		w.emit(x, y)
		if y == y1 {
			break
		}
	}
}

// walkHVH visits the cells of the horizontal-vertical-horizontal route
// through jog column xm, in path order.
func walkHVH(p, q geom.Point, xm int, sink cellSink) {
	w := runWalker{sink: sink}
	w.horizontal(p.Y, p.X, xm)
	w.vertical(xm, p.Y, q.Y)
	w.horizontal(q.Y, xm, q.X)
}

// walkVHV visits the cells of the vertical-horizontal-vertical route
// through crossing channel ym, in path order.
func walkVHV(p, q geom.Point, ym int, sink cellSink) {
	w := runWalker{sink: sink}
	w.vertical(p.X, p.Y, ym)
	w.horizontal(ym, p.X, q.X)
	w.vertical(q.X, ym, q.Y)
}
