package mp

import (
	"fmt"

	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/mesh"
	"locusroute/internal/msg"
	"locusroute/internal/obs"
	"locusroute/internal/route"
	"locusroute/internal/sim"
	"locusroute/internal/tracev"
)

// Strict region ownership is the first cost array distribution the paper
// describes and rejects (Section 4.1): the array is divided into
// portions, each processor performs ALL routing within its own portion,
// and a routing task that extends into another region is passed to that
// region's owner. There is no replication and therefore no update
// traffic at all — every region is always consistent — but the paper
// predicts (and this implementation measures) two costs: load imbalance
// when many wires lie in one region, and task-passing message traffic
// because most wires span several regions and routing decisions become
// per-region greedy rather than globally minimal.
//
// A task carries (current cell, final target cell, wire, initiator). The
// owner of the current cell routes from it to the target clamped into
// its region — a region is rectangular, so the candidate routes between
// two in-region points stay inside it — then either reports completion
// to the initiator or steps one cell across the boundary toward the
// target and passes the task on.

// strictNode is one processor of the strict-ownership scheme.
type strictNode struct {
	id int
	r  *runner
	p  *sim.Process

	region  geom.Rect
	arr     *costarray.CostArray // authoritative for my region only
	wires   []int                // wires I initiate (leftmost pin in my region)
	scratch *route.Scratch       // reusable routing kernel state

	subPaths    map[int][]route.Path // my committed sub-paths per wire
	outstanding int                  // my initiated segments still routing somewhere

	dones, continues int

	// clock and inBarrier: observability time breakdown, as in node.
	clock     *obs.NodeClock
	inBarrier bool

	// tr and track: event tracing, as in node.
	tr    *tracev.Tracer
	track int32
}

func newStrictNode(id int, r *runner) *strictNode {
	return &strictNode{
		id:       id,
		r:        r,
		region:   r.part.Region(id),
		arr:      costarray.New(r.circ.Grid),
		wires:    r.asn.WiresOf(id),
		scratch:  route.NewScratch(r.circ.Grid),
		subPaths: make(map[int][]route.Path),
		clock:    r.cfg.Obs.NodeClock(id),
		tr:       r.cfg.Trace,
		track:    int32(id),
	}
}

// account stamps the interval ending now to cat on the obs clock and the
// trace, as node.account does.
func (n *strictNode) account(cat obs.TimeCategory) {
	now := n.p.Now()
	n.clock.Account(now, cat)
	n.tr.Account(n.track, int64(now), traceCat(cat))
}

// packTask encodes a task Seq; Config.Validate has already capped strict
// runs at the encoding's wire and processor limits, so failure here is a
// programming error.
func packTask(wire, initiator int) uint16 {
	seq, err := msg.PackTask(wire, initiator)
	if err != nil {
		panic(fmt.Sprintf("mp: %v", err))
	}
	return seq
}

// strictRouterParams restricts candidate routes to the region: both
// endpoints are inside the (rectangular) region and no detour channels
// are allowed, so every candidate stays inside.
func strictRouterParams(base route.Params) route.Params {
	base.Iterations = 1
	base.VHVDetourChannels = 0
	return base
}

func (n *strictNode) run(p *sim.Process) {
	n.p = p
	p.Track = n.track
	for iter := 0; iter < n.r.cfg.Router.Iterations; iter++ {
		n.tr.Begin(n.track, int64(p.Now()), tracev.KindIteration, int64(iter))
		if iter > 0 {
			n.ripAll()
		}
		for _, wi := range n.wires {
			n.drain()
			n.launchWire(wi)
		}
		if n.outstanding > 0 {
			n.tr.Begin(n.track, int64(p.Now()), tracev.KindBlocked, int64(n.outstanding))
			for n.outstanding > 0 {
				n.recvOne()
			}
			n.tr.End(n.track, int64(p.Now()), tracev.KindBlocked, 0)
		}
		n.barrier(iter)
		n.tr.End(n.track, int64(p.Now()), tracev.KindIteration, int64(iter))
	}
	n.r.finish[n.id] = p.Now()
}

// ripAll removes every sub-path this node committed in the previous
// iteration — the strict scheme's rip-up phase needs no messages because
// each region rips its own cells.
func (n *strictNode) ripAll() {
	view := route.ArrayView{A: n.arr}
	cells := 0
	for wi, paths := range n.subPaths {
		for _, path := range paths {
			route.RipUp(view, path)
			for _, c := range path.Cells {
				n.r.truth.Add(c.X, c.Y, -1)
			}
			cells += path.Len()
		}
		delete(n.subPaths, wi)
	}
	n.p.Wait(n.r.cfg.Perf.WriteTime(cells))
	n.account(obs.TimeCompute)
}

// launchWire decomposes a wire into two-pin segments and starts a task
// for each; segments beginning in other regions are passed immediately.
// The sorted pin order comes from the scratch, which sorts into its own
// buffer; RoutePair never touches that buffer, so the slice stays valid
// across the segment loop.
func (n *strictNode) launchWire(wi int) {
	pins := n.scratch.SortedPins(&n.r.circ.Wires[wi])
	for i := 0; i+1 < len(pins); i++ {
		n.outstanding++
		n.dispatch(pins[i], pins[i+1], wi, n.id)
	}
}

// dispatch routes a task locally if the current cell is ours, or passes
// it to the owner.
func (n *strictNode) dispatch(cur, tgt geom.Point, wi, initiator int) {
	if owner := n.r.part.Owner(cur); owner != n.id {
		n.send(owner, &msg.Message{
			Kind:   msg.KindPassTask,
			Region: geom.Rect{X0: cur.X, Y0: cur.Y, X1: tgt.X, Y1: tgt.Y},
			Seq:    packTask(wi, initiator),
		})
		return
	}
	n.processTask(cur, tgt, wi, initiator)
}

// processTask routes from cur to the target clamped into this region,
// then completes or hands off.
func (n *strictNode) processTask(cur, tgt geom.Point, wi, initiator int) {
	clamped := clampInto(n.region, tgt)

	n.tr.Begin(n.track, int64(n.p.Now()), tracev.KindRouteWire, int64(wi))
	ev := n.scratch.RoutePair(route.ArrayView{A: n.arr}, cur, clamped, strictRouterParams(n.r.cfg.Router))
	n.p.Wait(n.r.cfg.Perf.WireOverhead + n.r.cfg.Perf.EvalTime(ev.CellsExamined))
	n.account(obs.TimeCompute)
	var trueCost int64
	for _, c := range ev.Path.Cells {
		trueCost += int64(n.r.truth.At(c.X, c.Y))
	}
	route.Commit(route.ArrayView{A: n.arr}, ev.Path)
	for _, c := range ev.Path.Cells {
		n.r.truth.Add(c.X, c.Y, 1)
	}
	n.p.Wait(n.r.cfg.Perf.WriteTime(ev.Path.Len()))
	n.account(obs.TimeCompute)
	n.tr.End(n.track, int64(n.p.Now()), tracev.KindRouteWire, int64(wi))
	n.subPaths[wi] = append(n.subPaths[wi], ev.Path)
	n.r.lastCost[wi] += trueCost
	n.r.cells += int64(ev.CellsExamined)

	if clamped == tgt {
		n.completeSegment(wi, initiator)
		return
	}
	next := stepToward(clamped, tgt)
	n.dispatch(next, tgt, wi, initiator)
}

// completeSegment notifies the initiator (possibly ourselves).
func (n *strictNode) completeSegment(wi, initiator int) {
	if initiator == n.id {
		n.outstanding--
		return
	}
	n.send(initiator, &msg.Message{Kind: msg.KindSegDone, Seq: packTask(wi, initiator)})
}

// clampInto moves p to the nearest point inside the rectangle.
func clampInto(r geom.Rect, p geom.Point) geom.Point {
	if p.X < r.X0 {
		p.X = r.X0
	}
	if p.X >= r.X1 {
		p.X = r.X1 - 1
	}
	if p.Y < r.Y0 {
		p.Y = r.Y0
	}
	if p.Y >= r.Y1 {
		p.Y = r.Y1 - 1
	}
	return p
}

// stepToward moves one cell from p toward tgt, preferring the horizontal
// dimension; p != tgt is required.
func stepToward(p, tgt geom.Point) geom.Point {
	switch {
	case p.X < tgt.X:
		p.X++
	case p.X > tgt.X:
		p.X--
	case p.Y < tgt.Y:
		p.Y++
	case p.Y > tgt.Y:
		p.Y--
	}
	return p
}

func (n *strictNode) drain() {
	inbox := n.r.net.Inbox(n.id)
	for {
		item, ok := inbox.TryRecv()
		if !ok {
			return
		}
		n.handle(item.(*mesh.Packet))
	}
}

func (n *strictNode) recvOne() {
	item := n.r.net.Inbox(n.id).Recv(n.p)
	cat := obs.TimeBlocked
	if n.inBarrier {
		cat = obs.TimeBarrier
	}
	n.account(cat)
	n.handle(item.(*mesh.Packet))
}

func (n *strictNode) send(to int, m *msg.Message) {
	buf, err := m.Encode()
	if err != nil {
		panic(fmt.Sprintf("mp: strict node %d encoding %v: %v", n.id, m.Kind, err))
	}
	n.tr.Begin(n.track, int64(n.p.Now()), tracev.KindSendPacket, int64(m.Kind))
	n.p.Wait(n.r.cfg.Perf.CopyTime(len(buf)))
	n.r.bytesByKind[m.Kind] += int64(len(buf))
	n.r.packetsByKind[m.Kind]++
	n.r.net.Send(n.p, n.id, to, buf, len(buf))
	n.account(obs.TimePacket)
	n.tr.End(n.track, int64(n.p.Now()), tracev.KindSendPacket, int64(m.Kind))
}

func (n *strictNode) handle(pkt *mesh.Packet) {
	n.tr.FlowEnd(n.track, int64(n.p.Now()), pkt.Flow, int64(pkt.Size))
	n.tr.Begin(n.track, int64(n.p.Now()), tracev.KindHandlePacket, int64(pkt.Size))
	n.r.net.ChargeReceive(n.p)
	buf := pkt.Payload.([]byte)
	n.p.Wait(n.r.cfg.Perf.CopyTime(len(buf)))
	n.account(obs.TimePacket)
	m, err := msg.Decode(buf)
	if err != nil {
		panic(fmt.Sprintf("mp: strict node %d decoding: %v", n.id, err))
	}
	switch m.Kind {
	case msg.KindDone:
		n.dones++
	case msg.KindContinue:
		n.continues++
	case msg.KindPassTask:
		wi, initiator := msg.UnpackTask(m.Seq)
		cur := geom.Pt(m.Region.X0, m.Region.Y0)
		tgt := geom.Pt(m.Region.X1, m.Region.Y1)
		n.processTask(cur, tgt, wi, initiator)
	case msg.KindSegDone:
		n.outstanding--
	default:
		panic(fmt.Sprintf("mp: strict node %d: unexpected kind %v", n.id, m.Kind))
	}
	n.tr.End(n.track, int64(n.p.Now()), tracev.KindHandlePacket, int64(pkt.Size))
}

// barrier mirrors the Proto runtime's barrier; node 0 additionally zeros
// the per-wire occupancy accumulators for the next iteration.
func (n *strictNode) barrier(iter int) {
	n.inBarrier = true
	n.tr.Begin(n.track, int64(n.p.Now()), tracev.KindBarrier, int64(iter))
	defer func() {
		n.inBarrier = false
		n.tr.End(n.track, int64(n.p.Now()), tracev.KindBarrier, int64(iter))
	}()
	if n.id == 0 {
		for n.dones < n.r.cfg.Procs-1 {
			n.recvOne()
		}
		n.dones = 0
		if iter+1 < n.r.cfg.Router.Iterations {
			for i := range n.r.lastCost {
				n.r.lastCost[i] = 0
			}
		}
		for proc := 1; proc < n.r.cfg.Procs; proc++ {
			n.send(proc, &msg.Message{Kind: msg.KindContinue, Seq: uint16(iter)})
		}
		return
	}
	n.send(0, &msg.Message{Kind: msg.KindDone, Seq: uint16(iter)})
	for n.continues <= iter {
		n.recvOne()
	}
}
