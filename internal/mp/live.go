package mp

import (
	"fmt"
	"sync"
	"time"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
	"locusroute/internal/msg"
	"locusroute/internal/sim"
)

// RunLive executes the message passing LocusRoute on real goroutines with
// real Go channels as the interconnect — the same Proto state machine the
// discrete-event runtime drives, so update-strategy behaviour is
// identical by construction. Packets are still marshalled to bytes, so
// traffic accounting matches the simulated runtime; there is no network
// or compute model, so Result.Time is host wall-clock and Result.Net is
// empty.
//
// The channel transport is the natural Go shape of the paper's message
// passing machine: one buffered channel per processor is its receive
// queue, sends never block in practice (the buffer exceeds the protocol's
// bounded in-flight packet count), and the inter-iteration barrier rides
// the same channels as Done/Continue packets.
func RunLive(circ *circuit.Circuit, asn *assign.Assignment, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(circ, asn); err != nil {
		return Result{}, err
	}
	if cfg.DynamicWires {
		return Result{}, fmt.Errorf("mp: dynamic wire assignment is a DES-only ablation")
	}
	if cfg.StrictOwnership {
		return Result{}, fmt.Errorf("mp: strict ownership is a DES-only ablation")
	}
	if cfg.Trace != nil {
		return Result{}, fmt.Errorf("mp: event tracing records simulated time; DES runtime only")
	}
	px, py := geom.SquarestFactors(cfg.Procs)
	part, err := geom.NewPartition(circ.Grid, px, py)
	if err != nil {
		return Result{}, fmt.Errorf("mp: partitioning: %w", err)
	}

	lr := &liveRun{
		cfg:      cfg,
		circ:     circ,
		asn:      asn,
		part:     part,
		truth:    costarray.NewAtomic(circ.Grid),
		lastCost: make([]int64, len(circ.Wires)),
		inboxes:  make([]chan livePacket, cfg.Procs),
	}
	for i := range lr.inboxes {
		lr.inboxes[i] = make(chan livePacket, liveInboxDepth)
	}

	start := time.Now()
	stopRoute := cfg.Obs.Phase("route")
	var wg sync.WaitGroup
	nodes := make([]*liveNode, cfg.Procs)
	for id := 0; id < cfg.Procs; id++ {
		nodes[id] = newLiveNode(id, lr)
		wg.Add(1)
		go func(n *liveNode) {
			defer wg.Done()
			n.run()
		}(nodes[id])
	}
	wg.Wait()
	stopRoute()
	elapsed := time.Since(start)

	stopReduce := cfg.Obs.Phase("reduce")
	defer stopReduce()
	var res Result
	res.Final = lr.truth.Snapshot()
	res.CircuitHeight = res.Final.CircuitHeight()
	for _, c := range lr.lastCost {
		res.Occupancy += c
	}
	res.Time = sim.Time(elapsed.Nanoseconds())
	res.BytesByKind = make(map[msg.Kind]int64)
	res.PacketsByKind = make(map[msg.Kind]int64)
	for _, n := range nodes {
		for k, v := range n.bytesByKind {
			res.BytesByKind[k] += v
		}
		for k, v := range n.packetsByKind {
			res.PacketsByKind[k] += v
		}
		res.CellsExamined += n.cells
	}
	for k, v := range res.BytesByKind {
		res.Net.Bytes += v
		res.Net.Packets += res.PacketsByKind[k]
		if k != msg.KindDone && k != msg.KindContinue {
			res.UpdateBytes += v
		}
	}
	return res, nil
}

// liveInboxDepth sizes the per-node receive buffer; it comfortably
// exceeds the protocol's bounded in-flight packet count so sends do not
// block in practice.
const liveInboxDepth = 4096

// livePacket is one marshalled protocol message on the channel transport.
type livePacket struct {
	From int
	Buf  []byte
}

// liveRun is the state shared by the goroutine nodes.
type liveRun struct {
	cfg      Config
	circ     *circuit.Circuit
	asn      *assign.Assignment
	part     geom.Partition
	truth    *costarray.Atomic // ground truth shared by every node
	lastCost []int64           // per wire; each slot written only by the wire's owner
	inboxes  []chan livePacket
}

// liveNode is one goroutine processor.
type liveNode struct {
	id    int
	lr    *liveRun
	proto *Proto
	wires []int

	bytesByKind   map[msg.Kind]int64
	packetsByKind map[msg.Kind]int64
	cells         int64

	dones     int
	continues int
}

func newLiveNode(id int, lr *liveRun) *liveNode {
	proto := NewProto(id, lr.circ, lr.part, lr.cfg.Strategy, lr.cfg.Router)
	proto.Structure = lr.cfg.Packets
	proto.SetTruth(lr.truth)
	return &liveNode{
		id:            id,
		lr:            lr,
		proto:         proto,
		wires:         lr.asn.WiresOf(id),
		bytesByKind:   make(map[msg.Kind]int64),
		packetsByKind: make(map[msg.Kind]int64),
	}
}

func (n *liveNode) run() {
	st := n.lr.cfg.Strategy
	ahead := n.lr.cfg.RequestAhead
	for iter := 0; iter < n.lr.cfg.Router.Iterations; iter++ {
		if st.ReqRmtData > 0 {
			for k := 0; k < ahead && k < len(n.wires); k++ {
				n.transmit(n.proto.NoteUpcoming(n.wires[k]))
			}
		}
		for i, wi := range n.wires {
			n.drain()
			if st.ReqRmtData > 0 && i+ahead < len(n.wires) {
				n.transmit(n.proto.NoteUpcoming(n.wires[i+ahead]))
			}
			if st.Blocking {
				for n.proto.Outstanding > 0 {
					n.handle(<-n.lr.inboxes[n.id])
				}
			}
			stats := n.proto.RouteWire(wi, iter)
			n.lr.lastCost[wi] = stats.TrueCost
			n.cells += int64(stats.CellsExamined)
			n.transmit(n.proto.AfterWire())
		}
		n.barrier(iter)
	}
}

func (n *liveNode) drain() {
	for {
		select {
		case pkt := <-n.lr.inboxes[n.id]:
			n.handle(pkt)
		default:
			return
		}
	}
}

func (n *liveNode) transmit(outs []Outbound) {
	n.proto.TakeScanWork() // no compute model in the live runtime
	for _, out := range outs {
		n.send(out.To, out.Msg)
	}
}

func (n *liveNode) send(to int, m *msg.Message) {
	buf, err := m.Encode()
	if err != nil {
		panic(fmt.Sprintf("mp: live node %d encoding %v: %v", n.id, m.Kind, err))
	}
	n.bytesByKind[m.Kind] += int64(len(buf))
	n.packetsByKind[m.Kind]++
	n.lr.inboxes[to] <- livePacket{From: n.id, Buf: buf}
}

func (n *liveNode) handle(pkt livePacket) {
	m, err := msg.Decode(pkt.Buf)
	if err != nil {
		panic(fmt.Sprintf("mp: live node %d decoding packet from %d: %v", n.id, pkt.From, err))
	}
	switch m.Kind {
	case msg.KindDone:
		n.dones++
	case msg.KindContinue:
		n.continues++
	default:
		n.transmit(n.proto.Handle(pkt.From, m))
	}
}

func (n *liveNode) barrier(iter int) {
	if n.id == 0 {
		for n.dones < n.lr.cfg.Procs-1 {
			n.handle(<-n.lr.inboxes[n.id])
		}
		n.dones = 0
		for proc := 1; proc < n.lr.cfg.Procs; proc++ {
			n.send(proc, &msg.Message{Kind: msg.KindContinue, Seq: uint16(iter)})
		}
		return
	}
	n.send(0, &msg.Message{Kind: msg.KindDone, Seq: uint16(iter)})
	for n.continues <= iter {
		n.handle(<-n.lr.inboxes[n.id])
	}
}
