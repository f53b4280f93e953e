package machine

import (
	"anton3/internal/chip"
	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
)

// sliceFor picks the channel slice for a packet. Positions and forces use
// atom-ID affinity so a given atom always crosses the same slice's particle
// cache; other traffic leaves via the edge nearest its source ("routed
// directly to either edge of the chip", Section III-B1), which is also what
// minimizes latency.
func (m *Machine) sliceFor(p *packet.Packet) int {
	if p.Type == packet.Position || p.Type == packet.Force {
		return int(p.AtomID) & 1
	}
	if side, _ := m.Geom.Shape.NearestSide(p.SrcCore.Tile); side == topo.Left {
		return 0
	}
	return 1
}

// Send walks p through the network: inject at the source chip, cross
// channels hop by hop (transiting edge networks at intermediate chips), and
// apply the packet at the destination SRAM. done, if non-nil, runs at the
// destination node after the SRAM update.
//
// Every inter-node packet arrives routed: its caller drew p.Order and
// p.Tie through DrawRoute, and Send draws nothing, so the rng stream never
// depends on event execution order. A packet with the zero Order panics
// rather than walking X three times. At every hop the policy chooses the
// output with the node's live link view, so adaptive policies react to
// congestion as the packet encounters it.
//
// For oblivious policies the whole hop sequence is a pure function of
// (src, dst, order, tie), so Send expands it once into p.Route — dense
// channel-spec indices the walk consumes one table read per hop — instead
// of re-deriving torus deltas at every hop. Adaptive policies keep the
// per-hop decision (they need the live load view).
//
// The walk is iterative, not a chain of scheduled closures: the per-hop
// state (current node, chosen channel, slice, tie-break) lives in the
// packet, every timing event fires the packet itself, and OnPacket
// interprets its WalkState — so a steady-state Send schedules, crosses and
// delivers without a single heap allocation. Packets obtained from
// NewPacket are recycled after delivery.
//
// With per-VC ingress queues enabled (Config.VCQueueFlits > 0) the first
// hop needs downstream credits: a refused packet returns from Send in
// packet.WalkParked and starts injecting only when a credit arrival
// revives it (closed-loop sources watch for this via p.OnAccept — see
// vcq.go).
//
// On a sharded machine, Send must run inside an event of the shard owning
// p.SrcNode (an injection actor scheduled via NodeKernel, or a delivery at
// that node); every kernel interaction below is with that shard.
func (m *Machine) Send(p *packet.Packet, done packet.Deliverer) {
	srcIdx := m.cfg.Shape.Index(p.SrcNode)
	n := m.nodes[srcIdx]
	sh := n.sh
	p.ID = sh.nextPktID()
	p.Injected = sh.k.Now()
	p.Walker = m
	p.Done = done
	if sh.tele != nil {
		sh.tele.Ctr[telemetry.CtrInjected]++
	}
	if m.lineage {
		// Extend, not reset: pooled packets arrive with an empty history
		// (Pool.Put clears it), so an injected packet's chain starts here;
		// the MD force return arrives carrying its stream's chain and this
		// append adds the stream event — the force's true scheduler.
		p.PushHist(sh.k.Now())
	}

	if p.SrcNode == p.DstNode {
		p.Cur = p.DstNode
		p.CurIdx = int32(srcIdx)
		p.In = -1
		p.State = packet.WalkApply
		sh.k.AfterActor(m.Geom.OnChipLatency(p.SrcCore, p.DstCore), p)
		return
	}

	if p.Order == (topo.DimOrder{}) {
		panic("machine: Send of an inter-node packet with no route (draw its Order and Tie with DrawRoute)")
	}
	p.Slice = int8(m.sliceFor(p))
	p.Cur = p.SrcNode
	p.CurIdx = int32(srcIdx)
	p.In = -1
	m.planRoute(p)
	first, ok := m.nextStep(p)
	if !ok {
		panic("machine: inter-node packet with no first hop")
	}
	if m.vcqFlits > 0 {
		// Per-VC flow control: the first hop needs downstream credits, and
		// a refused packet parks (packet.WalkParked) until they arrive.
		m.sendFlow(p, n, first)
		return
	}
	out := chip.ChannelSpec{Dim: first.Dim, Dir: first.Dir, Slice: int(p.Slice)}
	idx := out.Index()
	p.Out = int8(idx)
	p.State = packet.WalkTransit
	if p.RouteLen >= 0 {
		p.RoutePos = 1
	}
	sh.k.AfterActor(m.injLat[m.tileIdx(p.SrcCore)*chip.NumChannelSpecs+idx], p)
}

// planRoute expands p's hop sequence into p.Route when it is a pure
// function of the packet's injection-time state: under an oblivious policy
// the (order, tie) dimension walk, which the per-hop replay
// (obliviousNext) derives from nothing but (cur, dst), so expanding
// dimension by dimension reproduces the replay exactly. Adaptive policies
// and routes longer than packet.RouteCap get RouteLen = -1: hops stay
// per-hop decisions.
func (m *Machine) planRoute(p *packet.Packet) {
	p.RoutePos = 0
	p.RouteLen = -1
	if m.adaptive {
		return
	}
	s := m.cfg.Shape
	ln := 0
	sl := int(p.Slice)
	// Minimal per-dimension deltas in the packet's order, with the
	// even-ring direction tie resolved once per dimension (after the tie
	// flips the direction, the remaining distance commits to it — exactly
	// obliviousNext's per-hop behavior).
	delta := s.Delta(p.SrcNode, p.DstNode)
	for _, dim := range p.Order {
		d := delta.Get(dim)
		if d == 0 {
			continue
		}
		dir := 1
		if d < 0 {
			dir, d = -1, -d
		}
		if !p.Tie && 2*d == s.Get(dim) {
			dir = -dir
		}
		if ln+d > packet.RouteCap {
			return
		}
		spec := int8(chip.ChannelSpec{Dim: dim, Dir: dir, Slice: sl}.Index())
		for i := 0; i < d; i++ {
			p.Route[ln] = spec
			ln++
		}
	}
	p.RouteLen = int8(ln)
}

// nextStep picks p's step out of its current node p.Cur, or ok=false at
// the destination. Packets with a precomputed route read their next
// planned hop; the rest ask the policy, handing it the node's link view as
// the load view and, on machines with a fault plan, as the health view.
func (m *Machine) nextStep(p *packet.Packet) (topo.Step, bool) {
	if p.RouteLen >= 0 {
		if p.RoutePos >= p.RouteLen {
			return topo.Step{}, false
		}
		cs := chip.ChannelSpecAt(int(p.Route[p.RoutePos]))
		return topo.Step{Dim: cs.Dim, Dir: cs.Dir}, true
	}
	v := &m.nodes[p.CurIdx].links[p.Slice]
	var health route.HealthView
	if m.faulty {
		health = v
	}
	return m.policy.NextStep(m.cfg.Shape, p.Cur, p.DstNode, p.Order, p.Tie, v, health)
}

// OnPacket advances an in-flight packet one walk step (packet.Walker); the
// single reusable handler behind every packet timing event. It always
// executes on the kernel of the shard owning p.Cur: channel crossings whose
// far end is remote were merged into that shard at a window barrier. The
// inner loop runs entirely on the machine's flat tables — neighbor and
// dateline lookups, latency tables and the channel bank — indexed by the
// packet's dense node and channel-spec indices.
func (m *Machine) OnPacket(p *packet.Packet) {
	node := m.nodes[p.CurIdx]
	if m.lineage {
		p.PushHist(node.sh.k.Now())
		node.sh.curHist = p.Hist
	}
	switch p.State {
	case packet.WalkTransit:
		// The inject/transit latency has elapsed: cross the chosen channel.
		hop := int(p.CurIdx)*chip.NumChannelSpecs + int(p.Out)
		next := m.neigh[hop]
		if m.vcqFlits > 0 && m.cross[hop] {
			// Dateline tracking for the per-hop VC assignment: crossing the
			// wraparound link switches the packet to the high VC for the
			// rest of this dimension (the dateline rule; see hopVC).
			p.Crossed = true
		}
		p.CurIdx = next
		p.Cur = m.nodes[next].Coord
		p.In = m.oppIdx[p.Out]
		p.State = packet.WalkArrive
		node.out[p.Out].SendPacket(p)

	case packet.WalkArrive:
		// Just emerged from a channel at p.Cur: merge (fences), eject
		// (destination) or pick the next hop now — the adaptive decision
		// point — and transit.
		if p.Type == packet.Fence {
			m.fenceHopArrive(p)
			return
		}
		if m.vcqFlits > 0 {
			// Per-VC flow control: join the bounded ingress FIFO; heads
			// advance as soon as their chosen output has credits.
			m.vcqArrive(node, p)
			return
		}
		in := int(p.In)
		if p.RouteLen >= 0 {
			// Precomputed route: the next hop (or the eject decision) is a
			// table read, no coordinate math.
			if p.RoutePos >= p.RouteLen {
				p.State = packet.WalkApply
				node.sh.k.AfterActor(m.ejLat[m.tileIdx(p.DstCore)*chip.NumChannelSpecs+in], p)
				return
			}
			out := int(p.Route[p.RoutePos])
			p.RoutePos++
			p.Out = int8(out)
			p.State = packet.WalkTransit
			node.sh.k.AfterActor(m.transLat[in][out], p)
			return
		}
		st, ok := m.nextStep(p)
		if !ok {
			p.State = packet.WalkApply
			node.sh.k.AfterActor(m.ejLat[m.tileIdx(p.DstCore)*chip.NumChannelSpecs+in], p)
			return
		}
		out := chip.ChannelSpec{Dim: st.Dim, Dir: st.Dir, Slice: int(p.Slice)}
		p.Out = int8(out.Index())
		p.State = packet.WalkTransit
		node.sh.k.AfterActor(m.transLat[in][out.Index()], p)

	case packet.WalkApply:
		m.apply(node, p)
		if p.Done != nil {
			p.Done.Deliver(p)
		}
		if sh := node.sh; sh.tele != nil {
			sh.tele.Ctr[telemetry.CtrDelivered]++
			sh.tele.Lat.Observe(int64(sh.k.Now() - p.Injected))
		}
		node.sh.pool.Put(p)

	case packet.WalkFenceMerge:
		id, hops := p.FenceID, p.FenceHops
		node.sh.pool.Put(p)
		node.fenceArrive(id, hops)

	default:
		panic("machine: packet fired in an invalid walk state")
	}
}

// apply commits a packet's effect at its destination node.
func (m *Machine) apply(n *Node, p *packet.Packet) {
	switch p.Type {
	case packet.CountedWrite:
		n.sram(p.DstCore).CountedWrite(p.Addr, p.Payload)
	case packet.CountedAccum:
		n.sram(p.DstCore).CountedAccum(p.Addr, p.Payload)
	case packet.Position, packet.Force, packet.EndOfStep:
		// Endpoint behavior belongs to the caller's Done deliverer
		// (the timestep engine counts these into ICB/GC queues).
	case packet.Fence:
		panic("machine: fence packets travel via the fence engine, not Send")
	}
}
