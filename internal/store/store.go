// Package store owns the circuit lifecycle behind locusd's dynamic
// serving surface: upload, mutation, eviction, and crash-safe
// persistence. It is the paper's rip-up-and-reroute loop recast as a
// long-lived resource manager — every circuit holds one canonical cost
// array that is, invariantly, the sum of its committed per-wire paths,
// so the array can always be reconstructed exactly by replaying those
// paths. That invariant is what makes snapshot+WAL recovery byte-exact.
//
// Mutations are incremental: an add or reroute routes exactly one wire
// against the current congestion state through the same route.Scratch
// kernel the serving path uses, so its cost is bounded by the wire's
// footprint (part.Footprint), not the circuit size. A remove rips up
// one committed path. A mutation batch is atomic — validated wholly
// up front, then applied without a fallible step — and every applied
// batch is logged before the store's locks release.
//
// Persistence is a snapshot plus a write-ahead log of committed
// operations. Both reuse internal/wire's frame encoders: a WAL record
// is a length-prefixed (uvarint seq || lifecycle frame payload), so the
// log replays through the exact decoders the live transport uses.
// Memory is accounted through a par.Gate in fixed-size slots, the same
// admission primitive the serving layer bounds requests with.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/par"
	"locusroute/internal/route"
	"locusroute/internal/wire"
)

// Config sizes a store. The zero value is a fully in-memory store with
// default router parameters and no memory bound.
type Config struct {
	// Dir is the persistence directory ("" = in-memory only). Open
	// creates it, loads any snapshot, and replays the WAL.
	Dir string
	// Router tunes the routing kernel for baselines and mutations (zero
	// value = route.DefaultParams). Must match the serving layer's
	// parameters for replicas to stay consistent with the canonical
	// array.
	Router route.Params
	// MemBudget bounds the bytes the store admits across all circuits
	// (0 = unlimited). Accounting is in 64 KiB slots through a
	// par.Gate; an upload that would exceed the budget fails with
	// ErrStoreFull.
	MemBudget int64
}

// Sentinel errors.
var (
	// ErrExists rejects an upload naming a circuit already present.
	ErrExists = errors.New("store: circuit already exists")
	// ErrUnknown reports an operation on a circuit the store does not
	// hold.
	ErrUnknown = errors.New("store: unknown circuit")
	// ErrStoreFull rejects an upload the memory budget cannot admit.
	ErrStoreFull = errors.New("store: memory budget exhausted")
	// ErrBadOp rejects an invalid mutation batch; the batch is atomic,
	// so nothing was applied.
	ErrBadOp = errors.New("store: invalid mutation")
)

// slotBytes is the memory-accounting granule: one par.Gate slot per
// 64 KiB of estimated circuit state.
const slotBytes = 64 << 10

// OpKind selects a mutation verb. The values are the wire protocol's
// op codes (wire.OpAdd etc.), so conversion is the identity.
type OpKind uint8

const (
	// OpAdd routes and commits a new wire (pins required).
	OpAdd = OpKind(wire.OpAdd)
	// OpRemove rips up and deletes a wire (pins ignored).
	OpRemove = OpKind(wire.OpRemove)
	// OpReroute rips up a wire and re-routes it against current
	// congestion; empty pins keep the wire's existing pins, non-empty
	// pins replace them.
	OpReroute = OpKind(wire.OpReroute)
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpReroute:
		return "reroute"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one mutation in a batch.
type Op struct {
	Kind   OpKind
	WireID int
	Pins   []geom.Point
}

// OpResult reports one applied mutation. Ripped and Routed are the
// paths removed from and committed to the canonical array — the deltas
// the serving layer replicates onto its shard replicas.
type OpResult struct {
	Kind          OpKind
	WireID        int
	Cost          int64
	PathCells     int
	CellsExamined int
	Ripped        route.Path
	Routed        route.Path
}

// MutateResult reports an applied batch.
type MutateResult struct {
	// Epoch is the circuit's mutation epoch after the batch (one bump
	// per op).
	Epoch uint64
	// Wires is the circuit's wire count after the batch.
	Wires int
	// Results has one entry per op, in batch order.
	Results []OpResult
}

// Info is a circuit's lifecycle summary.
type Info struct {
	Name  string
	Grid  geom.Grid
	Wires int
	// Epoch is the mutation epoch (0 for a freshly uploaded circuit).
	Epoch uint64
	// Bytes is the estimated resident size the memory budget charges.
	Bytes int64
	// Baseline is the upload-time full routing result.
	Baseline route.Result
	// ArrayHash is the sha256 of the canonical cost array's cells
	// (little-endian int32s) — the restart-identity fingerprint.
	ArrayHash string
}

// RecoveryStats reports what Open reconstructed.
type RecoveryStats struct {
	// SnapshotCircuits counts circuits loaded from the snapshot.
	SnapshotCircuits int
	// ReplayedRecords counts WAL records applied after the snapshot.
	ReplayedRecords int
	// Truncated reports that a torn or corrupt WAL tail was cut back to
	// the last intact record.
	Truncated bool
}

// entry is one resident circuit. All mutable state is guarded by mu;
// the canonical invariant is arr == sum of Commit(paths[id]) for every
// held id.
type entry struct {
	mu    sync.Mutex
	dead  bool
	circ  *circuit.Circuit
	arr   *costarray.CostArray
	paths map[int]route.Path
	epoch uint64
	// baseline is the upload-time full routing result; mutations do not
	// revise it.
	baseline route.Result
	scratch  *route.Scratch
	slots    int
	bytes    int64
}

// Store is the circuit lifecycle owner. Safe for concurrent use.
type Store struct {
	dir    string
	params route.Params
	gate   par.Gate

	mu      sync.RWMutex
	entries map[string]*entry

	wal walState

	recovery RecoveryStats
}

// Open creates (or recovers) a store. With a persistence directory it
// loads the snapshot, replays the WAL, and truncates any torn tail; the
// recovered state is exactly the pre-crash canonical arrays, which
// Recovery() and the per-circuit ArrayHash let callers verify.
func Open(cfg Config) (*Store, error) {
	s := &Store{
		dir:     cfg.Dir,
		params:  cfg.Router.Normalized(),
		entries: make(map[string]*entry),
	}
	if cfg.MemBudget > 0 {
		slots := int(cfg.MemBudget / slotBytes)
		if slots < 1 {
			slots = 1
		}
		s.gate = par.NewGate(slots)
	}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Recovery reports what Open reconstructed from disk (zero value for
// in-memory stores and fresh directories).
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// Names returns the held circuit names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.entries))
	for name := range s.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Get returns a circuit's lifecycle summary.
func (s *Store) Get(name string) (Info, bool) {
	e := s.lookup(name)
	if e == nil {
		return Info{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return Info{}, false
	}
	return e.infoLocked(name), true
}

// CloneArray returns a private copy of the canonical cost array — what
// the serving layer seeds shard replicas from.
func (s *Store) CloneArray(name string) (*costarray.CostArray, bool) {
	e := s.lookup(name)
	if e == nil {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return nil, false
	}
	return e.arr.Clone(), true
}

// Upload validates, routes and installs a new circuit. The baseline
// routing runs outside the store's locks (it is the expensive step) and
// reproduces route.Sequential exactly while retaining the final
// per-wire paths — the canonical-array invariant starts here.
func (s *Store) Upload(c *circuit.Circuit) (Info, error) {
	if err := validateUpload(c); err != nil {
		return Info{}, err
	}
	// Cheap duplicate pre-check so a doomed upload does not pay for a
	// full baseline route; the install below re-checks under the lock.
	if s.lookup(c.Name) != nil {
		return Info{}, fmt.Errorf("%w: %q", ErrExists, c.Name)
	}
	e := s.buildEntry(c)
	if !s.acquire(e.slots) {
		return Info{}, fmt.Errorf("%w: circuit %q needs %d bytes", ErrStoreFull, c.Name, e.bytes)
	}
	s.mu.Lock()
	if _, dup := s.entries[c.Name]; dup {
		s.mu.Unlock()
		s.release(e.slots)
		return Info{}, fmt.Errorf("%w: %q", ErrExists, c.Name)
	}
	s.entries[c.Name] = e
	s.mu.Unlock()
	// Log under the fresh entry's lock so a racing evict of this name
	// cannot write its record before ours.
	e.mu.Lock()
	if err := s.logUpload(e.circ); err != nil {
		// Roll the install back: an unlogged circuit must not survive a
		// restart-shaped divergence between memory and disk.
		e.dead = true
		e.mu.Unlock()
		s.mu.Lock()
		if s.entries[c.Name] == e {
			delete(s.entries, c.Name)
		}
		s.mu.Unlock()
		s.release(e.slots)
		return Info{}, err
	}
	info := e.infoLocked(c.Name)
	e.mu.Unlock()
	return info, nil
}

// Mutate validates and applies one atomic batch. Validation simulates
// the whole batch against the circuit's wire set first, so apply cannot
// fail halfway; the WAL record is written before application, under the
// same entry lock, so log order equals apply order.
func (s *Store) Mutate(name string, ops []Op) (*MutateResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadOp)
	}
	if len(ops) > wire.MaxOps {
		return nil, fmt.Errorf("%w: %d ops (max %d)", ErrBadOp, len(ops), wire.MaxOps)
	}
	e := s.lookup(name)
	if e == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknown, name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return nil, fmt.Errorf("%w %q", ErrUnknown, name)
	}
	if err := e.validateOps(ops); err != nil {
		return nil, err
	}
	if err := s.logMutate(name, ops); err != nil {
		return nil, err
	}
	results := e.apply(s.params, ops)
	return &MutateResult{Epoch: e.epoch, Wires: len(e.circ.Wires), Results: results}, nil
}

// Evict removes a circuit and releases its memory slots. Concurrent
// mutations either complete before the eviction's entry lock or observe
// the dead mark and fail with ErrUnknown.
func (s *Store) Evict(name string) error {
	s.mu.Lock()
	e, ok := s.entries[name]
	if ok {
		delete(s.entries, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknown, name)
	}
	e.mu.Lock()
	e.dead = true
	err := s.logEvict(name)
	e.mu.Unlock()
	s.release(e.slots)
	return err
}

// Close flushes a snapshot (persistent stores) and releases the WAL.
func (s *Store) Close() error {
	if s.dir == "" {
		return nil
	}
	err := s.Snapshot()
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// lookup fetches a live entry under the read lock.
func (s *Store) lookup(name string) *entry {
	s.mu.RLock()
	e := s.entries[name]
	s.mu.RUnlock()
	return e
}

// buildEntry routes c's baseline and assembles its resident state.
func (s *Store) buildEntry(c *circuit.Circuit) *entry {
	res, arr, paths := route.SequentialPaths(c, s.params)
	byID := make(map[int]route.Path, len(c.Wires))
	for i := range c.Wires {
		byID[c.Wires[i].ID] = paths[i]
	}
	// The store owns a private copy: the caller keeps its circuit, and
	// mutations must not alias the upload's backing arrays.
	cc := &circuit.Circuit{Name: c.Name, Grid: c.Grid, Wires: make([]circuit.Wire, len(c.Wires))}
	for i := range c.Wires {
		cc.Wires[i] = circuit.Wire{ID: c.Wires[i].ID, Pins: append([]geom.Point(nil), c.Wires[i].Pins...)}
	}
	e := &entry{
		circ:     cc,
		arr:      arr,
		paths:    byID,
		baseline: res,
		scratch:  route.NewScratch(c.Grid),
	}
	e.bytes = e.estimateBytes()
	e.slots = int((e.bytes + slotBytes - 1) / slotBytes)
	return e
}

// validateUpload checks semantic validity plus the wire protocol's
// encodability bounds — every accepted circuit must be expressible as a
// WAL record.
func validateUpload(c *circuit.Circuit) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(c.Name) > wire.MaxName {
		return fmt.Errorf("store: circuit name %d bytes (max %d)", len(c.Name), wire.MaxName)
	}
	if len(c.Wires) > wire.MaxWires {
		return fmt.Errorf("store: %d wires (max %d)", len(c.Wires), wire.MaxWires)
	}
	if c.Grid.Channels > 1<<16-1 || c.Grid.Grids > 1<<16-1 {
		return fmt.Errorf("store: grid %dx%d outside the wire protocol's 16-bit domain",
			c.Grid.Channels, c.Grid.Grids)
	}
	for i := range c.Wires {
		w := &c.Wires[i]
		if w.ID < 0 || w.ID > 1<<31-1 {
			return fmt.Errorf("store: wire id %d outside [0, %d]", w.ID, 1<<31-1)
		}
		if len(w.Pins) > wire.MaxPins {
			return fmt.Errorf("store: wire %d has %d pins (max %d)", w.ID, len(w.Pins), wire.MaxPins)
		}
	}
	return nil
}

// validateOps simulates the batch against the entry's wire set so apply
// cannot fail. Present tracks ids the batch itself adds or removes.
func (e *entry) validateOps(ops []Op) error {
	present := make(map[int]bool)
	has := func(id int) bool {
		if v, ok := present[id]; ok {
			return v
		}
		_, ok := e.paths[id]
		return ok
	}
	for i := range ops {
		op := &ops[i]
		if op.WireID < 0 || op.WireID > 1<<31-1 {
			return fmt.Errorf("%w: op %d: wire id %d outside [0, %d]", ErrBadOp, i, op.WireID, 1<<31-1)
		}
		switch op.Kind {
		case OpAdd:
			if has(op.WireID) {
				return fmt.Errorf("%w: op %d: add duplicates wire %d", ErrBadOp, i, op.WireID)
			}
			if err := e.checkPins(i, op); err != nil {
				return err
			}
			present[op.WireID] = true
		case OpRemove:
			if !has(op.WireID) {
				return fmt.Errorf("%w: op %d: remove of unknown wire %d", ErrBadOp, i, op.WireID)
			}
			present[op.WireID] = false
		case OpReroute:
			if !has(op.WireID) {
				return fmt.Errorf("%w: op %d: reroute of unknown wire %d", ErrBadOp, i, op.WireID)
			}
			if len(op.Pins) > 0 {
				if err := e.checkPins(i, op); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("%w: op %d: unknown kind %d", ErrBadOp, i, uint8(op.Kind))
		}
	}
	return nil
}

// checkPins validates an op's pin list as a wire of this circuit.
func (e *entry) checkPins(i int, op *Op) error {
	if len(op.Pins) > wire.MaxPins {
		return fmt.Errorf("%w: op %d: %d pins (max %d)", ErrBadOp, i, len(op.Pins), wire.MaxPins)
	}
	w := circuit.Wire{ID: op.WireID, Pins: op.Pins}
	if err := w.Validate(e.circ.Grid); err != nil {
		return fmt.Errorf("%w: op %d: %v", ErrBadOp, i, err)
	}
	return nil
}

// apply executes a validated batch against the canonical array. Each
// add/reroute is one incremental rip-up-and-reroute: only the op's own
// wire is ripped up and re-routed, so the work is bounded by that
// wire's footprint.
func (e *entry) apply(params route.Params, ops []Op) []OpResult {
	view := route.ArrayView{A: e.arr}
	results := make([]OpResult, len(ops))
	for i := range ops {
		op := &ops[i]
		r := OpResult{Kind: op.Kind, WireID: op.WireID}
		switch op.Kind {
		case OpAdd:
			w := circuit.Wire{ID: op.WireID, Pins: append([]geom.Point(nil), op.Pins...)}
			e.routeInto(view, params, &w, &r)
			e.circ.Wires = append(e.circ.Wires, w)
		case OpRemove:
			r.Ripped = e.paths[op.WireID]
			route.RipUp(view, r.Ripped)
			delete(e.paths, op.WireID)
			e.removeWire(op.WireID)
		case OpReroute:
			r.Ripped = e.paths[op.WireID]
			route.RipUp(view, r.Ripped)
			w := &e.circ.Wires[e.wireIndex(op.WireID)]
			if len(op.Pins) > 0 {
				w.Pins = append([]geom.Point(nil), op.Pins...)
			}
			e.routeInto(view, params, w, &r)
		}
		e.epoch++
		results[i] = r
	}
	e.bytes = e.estimateBytes()
	return results
}

// routeInto routes one wire against current congestion and commits it,
// filling the result's evaluation fields.
func (e *entry) routeInto(view route.ArrayView, params route.Params, w *circuit.Wire, r *OpResult) {
	ev := e.scratch.RouteWire(view, w, params)
	r.Cost = route.PathCost(view, ev.Path)
	route.Commit(view, ev.Path)
	r.Routed = ev.Path
	r.PathCells = ev.Path.Len()
	r.CellsExamined = ev.CellsExamined
	e.paths[w.ID] = ev.Path
}

// wireIndex finds a wire's slice index; validation guarantees presence.
func (e *entry) wireIndex(id int) int {
	for i := range e.circ.Wires {
		if e.circ.Wires[i].ID == id {
			return i
		}
	}
	panic(fmt.Sprintf("store: wire %d vanished after validation", id))
}

// removeWire splices a wire out preserving order, so snapshot encoding
// stays deterministic.
func (e *entry) removeWire(id int) {
	i := e.wireIndex(id)
	e.circ.Wires = append(e.circ.Wires[:i], e.circ.Wires[i+1:]...)
}

// estimateBytes is the memory-budget charge: array cells plus wire and
// path headers. An estimate, not an allocator census — the budget is an
// admission bound, not an accounting ledger.
func (e *entry) estimateBytes() int64 {
	b := int64(e.circ.Grid.Cells()) * 4
	for i := range e.circ.Wires {
		b += 48 + 16*int64(len(e.circ.Wires[i].Pins))
	}
	for _, p := range e.paths {
		b += 16 * int64(len(p.Cells))
	}
	return b
}

// infoLocked assembles the summary; caller holds e.mu.
func (e *entry) infoLocked(name string) Info {
	return Info{
		Name:      name,
		Grid:      e.circ.Grid,
		Wires:     len(e.circ.Wires),
		Epoch:     e.epoch,
		Bytes:     e.bytes,
		Baseline:  e.baseline,
		ArrayHash: hashArray(e.arr),
	}
}

// hashArray fingerprints a cost array: sha256 over its cells as
// little-endian int32s. Equal hashes mean byte-identical arrays.
func hashArray(arr *costarray.CostArray) string {
	h := sha256.New()
	var b [4]byte
	for _, c := range arr.Cells() {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// acquire takes n gate slots or none (nil gate admits everything).
func (s *Store) acquire(n int) bool {
	if s.gate == nil {
		return true
	}
	for i := 0; i < n; i++ {
		if !s.gate.TryEnter() {
			for ; i > 0; i-- {
				s.gate.Leave()
			}
			return false
		}
	}
	return true
}

// release gives back n gate slots.
func (s *Store) release(n int) {
	if s.gate == nil {
		return
	}
	for i := 0; i < n; i++ {
		s.gate.Leave()
	}
}
