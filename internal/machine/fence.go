package machine

import (
	"fmt"

	"anton3/internal/chip"
	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/sim"
)

// The machine-level fence engine implements the network fence of Section V
// as a node-granularity wavefront: each node merges the fence copies
// arriving on its inbound channel slices (one per request VC per channel)
// and, once its previous round is complete, relays one merged fence per
// outbound channel slice per VC. Because fence packets travel through the
// same ordered channels as data, receipt of the round-r fence guarantees
// everything any node within r hops sent before its fence has been
// delivered — the paper's ordering property.
//
// The fence pattern (GC-to-GC or GC-to-ICB, Section V-A) only names which
// endpoints issue and consume the fence; at node granularity both patterns
// simulate identically, so the engine does not take one.

// maxFences is the number of network fences the hardware keeps in flight
// at once (Section V-D): the network adapters' flow control bounds fence
// injection so the Edge Router needs only 96 counters per input port.
const maxFences = 14

// fenceRound is one node's merge state for one round of a fence. Merging is
// a counting reduction: relayFence sends exactly one copy per request VC on
// every outbound channel, so every inbound channel delivers exactly that
// many, and the round's last arrival is the one that fills the count.
type fenceRound struct {
	arrived  int // copies merged, over all inbound channels and VCs
	prevDone bool
	complete bool
}

type fenceOp struct {
	hops       int
	rounds     []fenceRound
	onComplete func(n *Node, at sim.Time)
}

// StartFence begins a network fence op across the whole machine: every
// node's GCs issue a fence with the given hop count at the current
// simulation time. onComplete fires once per node when that node's fence
// completes (after the intra-chip scatter). The returned id must be
// released by the caller via FinishFence after all nodes complete.
func (m *Machine) StartFence(hops int, onComplete func(n *Node, at sim.Time)) int {
	if hops < 0 || hops > m.cfg.Shape.Diameter() {
		panic(fmt.Sprintf("machine: fence hops %d outside 0..diameter", hops))
	}
	id := 0
	for id < maxFences && m.fenceBusy[id] {
		id++
	}
	if id == maxFences {
		panic("machine: more than 14 concurrent fences; adapter flow control would block here")
	}
	m.fenceBusy[id] = true
	for _, n := range m.nodes {
		n.fences[id] = &fenceOp{hops: hops, rounds: make([]fenceRound, hops+1), onComplete: onComplete}
	}
	gather := m.Geom.GatherLatency()
	for _, n := range m.nodes {
		node := n
		n.sh.k.AfterActor(gather, sim.Func(func() { node.fenceRoundComplete(id, 0) }))
	}
	return id
}

// FinishFence releases the fence ID once every node has completed.
func (m *Machine) FinishFence(id int) {
	if id < 0 || id >= maxFences || !m.fenceBusy[id] {
		panic("machine: finishing a fence ID that is not in use")
	}
	m.fenceBusy[id] = false
	for _, n := range m.nodes {
		n.fences[id] = nil
	}
}

// fenceRoundComplete marks round r done at n and relays round r+1 fences.
func (n *Node) fenceRoundComplete(id, r int) {
	op := n.fences[id]
	fr := &op.rounds[r]
	if fr.complete {
		return
	}
	fr.complete = true

	if r == op.hops {
		// Scatter back to this chip's endpoints (GCs translate the fence
		// into a counted write and unblock their blocking reads).
		m := n.m
		at := n.sh.k.Now() + m.Geom.ScatterLatency()
		n.sh.k.AtActor(at, sim.Func(func() { op.onComplete(n, at) }))
		return
	}
	if r+1 <= op.hops {
		op.rounds[r+1].prevDone = true
		n.relayFence(id, r+1)
		n.checkFenceRound(id, r+1)
	}
}

// fenceInjBase places fence-packet lineage serials in their own region of
// the injection-order space, disjoint from data-packet indices and credit
// serials (creditInjBase), so a fence copy can never compare equal to a
// measured packet on a lineage tie.
const fenceInjBase = uint64(3) << 62

// relayFence sends the round-r fence copies: one header-only packet per
// request VC on every outbound channel slice. Fence packets ride the same
// actor-driven walk as data packets (WalkArrive at the neighbor, then
// WalkFenceMerge after the per-hop flood latency) and recycle through the
// machine's packet pool.
//
// Under lineage ordering (sharded runs mixing fences with measured
// traffic), each copy gets a content-based lineage: its chain starts at
// the relay instant — itself a pure function of fence arrival times, which
// are shard-invariant by the merge-counting argument — and its injection
// serial encodes (node, round, channel, vc). Same-picosecond ties between
// a fence copy and a data packet on a shared channel therefore resolve
// identically at every shard count, closing the old schedule-order
// fallback caveat.
func (n *Node) relayFence(id, r int) {
	m := n.m
	nodeIdx := uint64(m.cfg.Shape.Index(n.Coord))
	for _, cs := range n.ChannelSpecs() {
		ch := n.out[cs.Index()]
		dstCoord := m.cfg.Shape.Neighbor(n.Coord, cs.Dim, cs.Dir)
		for vc := 0; vc < route.NumRequestVCs; vc++ {
			p := n.sh.pool.Get()
			p.ID = n.sh.nextPktID()
			p.Type = packet.Fence
			p.SrcNode = n.Coord
			p.DstNode = dstCoord
			p.FenceID = id
			p.FenceHops = r
			p.Walker = m
			p.Cur = dstCoord
			p.CurIdx = m.neigh[int(n.idx)*chip.NumChannelSpecs+cs.Index()]
			p.State = packet.WalkArrive
			if m.lineage {
				p.Hist = append(p.Hist[:0], n.sh.k.Now())
				p.Inj = fenceInjBase + (nodeIdx<<24 | uint64(r)<<12 |
					uint64(cs.Index())<<4 | uint64(vc))
			}
			ch.SendPacket(p)
		}
	}
}

// fenceHopArrive handles a fence packet emerging from a channel at p.Cur:
// CA rx + per-port merge + the flood overhead of covering every
// edge-network path at this hop; the first torus crossing additionally pays
// the one-time fence pipeline fill (all VCs, both slices, every
// edge-network column).
func (m *Machine) fenceHopArrive(p *packet.Packet) {
	cycles := m.cfg.Lat.CARxCycles + m.cfg.Lat.FenceMergeCycles
	if p.FenceHops == 1 {
		cycles += m.cfg.Lat.FenceRemoteFixedCycles
	}
	lat := m.Clock.Cycles(cycles) + m.Geom.FenceHopExtra()
	p.State = packet.WalkFenceMerge
	m.Node(p.Cur).sh.k.AfterActor(lat, p)
}

// fenceArrive merges one fence copy for round r.
func (n *Node) fenceArrive(id, r int) {
	op := n.fences[id]
	if op == nil {
		panic("machine: fence arrival for unknown fence op")
	}
	op.rounds[r].arrived++
	n.checkFenceRound(id, r)
}

// checkFenceRound completes round r once every copy from every inbound
// channel has merged and the node's own previous round is done.
func (n *Node) checkFenceRound(id, r int) {
	fr := &n.fences[id].rounds[r]
	if fr.complete || !fr.prevDone || fr.arrived < len(n.ChannelSpecs())*route.NumRequestVCs {
		return
	}
	n.fenceRoundComplete(id, r)
}

// BarrierResult reports a fence barrier measurement (Figure 11).
type BarrierResult struct {
	Hops    int
	Latency sim.Time // last GC unblocked minus fence issue
}

// Barrier runs a GC-to-GC network fence with the given hop count across the
// machine and returns the barrier latency: all GCs issue the fence at the
// same instant, and the barrier completes when the last node's blocking
// read unblocks. hops = Shape.Diameter() is the global barrier.
//
// Barrier works on sharded machines: completion callbacks run on each
// node's own shard, so the aggregation below is kept per shard and reduced
// after the run. The result is shard-count invariant — fence merges are
// counting reductions and completion times are pure functions of arrival
// times, so no same-instant ordering choice can change them.
func (m *Machine) Barrier(hops int) BarrierResult {
	start := m.K.Now()
	lasts := make([]sim.Time, len(m.shards))
	completed := make([]int, len(m.shards))
	id := m.StartFence(hops, func(n *Node, at sim.Time) {
		s := n.sh.id
		if at > lasts[s] {
			lasts[s] = at
		}
		completed[s]++
	})
	m.Run()
	var last sim.Time
	done := 0
	for s := range m.shards {
		if lasts[s] > last {
			last = lasts[s]
		}
		done += completed[s]
	}
	if done != len(m.nodes) {
		panic(fmt.Sprintf("machine: barrier incomplete, %d nodes pending", len(m.nodes)-done))
	}
	m.FinishFence(id)
	return BarrierResult{Hops: hops, Latency: last - start}
}
