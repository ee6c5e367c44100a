package costarray

import (
	"sync/atomic"

	"locusroute/internal/geom"
)

// Atomic is a cost array shared by concurrently routing goroutines and
// safe for use without locks: each cell is accessed with atomic word
// operations, matching the paper's unlocked shared cost array (the
// probability of collisions is low and the algorithm tolerates them;
// atomics keep the Go program free of data races). The live shared
// memory router routes on it, and the live message passing run keeps
// its ground truth in one.
type Atomic struct {
	grid  geom.Grid
	cells []atomic.Int32
}

// NewAtomic returns a zeroed shared array.
func NewAtomic(g geom.Grid) *Atomic {
	return &Atomic{grid: g, cells: make([]atomic.Int32, g.Cells())}
}

// Grid returns the array dimensions.
func (a *Atomic) Grid() geom.Grid { return a.grid }

// At returns the value at (x, y).
func (a *Atomic) At(x, y int) int32 { return a.cells[y*a.grid.Grids+x].Load() }

// Add atomically adds d at (x, y).
func (a *Atomic) Add(x, y int, d int32) { a.cells[y*a.grid.Grids+x].Add(d) }

// Snapshot copies the current state into a plain cost array (for quality
// measurement after the run).
func (a *Atomic) Snapshot() *CostArray {
	out := New(a.grid)
	for i := range a.cells {
		out.cells[i] = a.cells[i].Load()
	}
	return out
}
