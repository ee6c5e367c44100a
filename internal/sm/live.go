package sm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/route"
)

// liveView adapts the atomic array to the router's CostView.
type liveView struct{ a *costarray.Atomic }

func (v liveView) Grid() geom.Grid           { return v.a.Grid() }
func (v liveView) Cost(x, y int) int32       { return v.a.At(x, y) }
func (v liveView) AddCost(x, y int, d int32) { v.a.Add(x, y, d) }

// RunLive executes the shared memory router with real goroutines: a
// distributed loop hands out wires (or a static assignment fixes them), a
// WaitGroup barrier separates iterations. It returns the quality result;
// traffic is the traced mode's job.
func RunLive(circ *circuit.Circuit, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(circ); err != nil {
		return Result{}, err
	}
	shared := costarray.NewAtomic(circ.Grid)
	view := liveView{a: shared}

	nWires := len(circ.Wires)
	paths := make([]route.Path, nWires)
	lastCost := make([]int64, nWires)
	var cells atomic.Int64
	var routed atomic.Int64

	// One routing scratch per worker slot for the whole run: the slot-p
	// goroutines of successive iterations are separated by wg.Wait, so the
	// scratch (and its sorted-pin cache) hands off cleanly between them.
	scratches := make([]*route.Scratch, cfg.Procs)
	for i := range scratches {
		scratches[i] = route.NewScratch(circ.Grid)
	}

	iterations := cfg.Router.Iterations
	if iterations <= 0 {
		iterations = 1
	}
	for iter := 0; iter < iterations; iter++ {
		stopIter := cfg.Obs.Phase(fmt.Sprintf("iteration %d", iter))
		var counter atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < cfg.Procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				scratch := scratches[p]
				next := func() int {
					if cfg.Order == Static {
						return -1 // static work handled below
					}
					n := counter.Add(1) - 1
					if n >= int64(nWires) {
						return -1
					}
					return int(n)
				}
				var work []int
				if cfg.Order == Static {
					work = cfg.Assignment.WiresOf(p)
				}
				cursor := 0
				for {
					var wi int
					if cfg.Order == Static {
						if cursor >= len(work) {
							return
						}
						wi = work[cursor]
						cursor++
					} else {
						wi = next()
						if wi < 0 {
							return
						}
					}
					w := &circ.Wires[wi]
					if iter > 0 {
						route.RipUp(view, paths[wi])
					}
					ev := scratch.RouteWire(view, w, cfg.Router)
					cost := route.PathCost(view, ev.Path)
					route.Commit(view, ev.Path)
					// Each wire is routed by exactly one goroutine per
					// iteration, so these per-wire slots are not contended.
					paths[wi] = ev.Path
					lastCost[wi] = cost
					cells.Add(int64(ev.CellsExamined))
					routed.Add(1)
				}
			}(p)
		}
		wg.Wait() // the paper's barrier between iterations
		stopIter()
	}

	stopReduce := cfg.Obs.Phase("reduce")
	defer stopReduce()
	var res Result
	res.Final = shared.Snapshot()
	res.CircuitHeight = res.Final.CircuitHeight()
	for _, c := range lastCost {
		res.Occupancy += c
	}
	res.WiresRouted = int(routed.Load())
	res.CellsExamined = cells.Load()
	return res, nil
}
