package backend

import (
	"sync"

	"locusroute/internal/geom"
	"locusroute/internal/route"
)

// ScratchPool recycles route.Scratch values across independent routing
// calls. A fresh Scratch costs one visited-grid allocation plus the
// kernel's buffer growth — internal/route's
// BenchmarkRouteWireStandalone measures 9 allocs per wire versus 1 for
// a reused scratch — so
// per-request routing (locusd's serving path, one wire per request)
// pools them instead of allocating.
//
// Scratches are segregated by grid: a Scratch's visited array is sized
// for one grid, and feeding it a different shape forces a reallocation
// (route.Scratch.ensure). A single pool serving two circuits with
// different grids would thrash — every Get could surface a scratch
// sized for the other circuit — so the pool keys a sync.Pool per grid.
// The key space is bounded by the set of distinct grids the process
// serves, which is the set of loaded circuits.
//
// The zero value is ready to use. All methods are safe for concurrent
// use; the Scratches themselves remain single-threaded between Get and
// Put.
type ScratchPool struct {
	pools sync.Map // geom.Grid -> *sync.Pool of *route.Scratch
}

// pool returns the per-grid sync.Pool, creating it on first use.
func (p *ScratchPool) pool(g geom.Grid) *sync.Pool {
	if sp, ok := p.pools.Load(g); ok {
		return sp.(*sync.Pool)
	}
	sp, _ := p.pools.LoadOrStore(g, &sync.Pool{
		New: func() any { return route.NewScratch(g) },
	})
	return sp.(*sync.Pool)
}

// Get returns a Scratch sized for grid g, reusing a previously Put one
// when available. The caller owns it until Put.
func (p *ScratchPool) Get(g geom.Grid) *route.Scratch {
	return p.pool(g).Get().(*route.Scratch)
}

// Put returns a Scratch obtained from Get(g) to the pool. The caller
// must not use s afterwards.
func (p *ScratchPool) Put(g geom.Grid, s *route.Scratch) {
	if s == nil {
		return
	}
	p.pool(g).Put(s)
}
