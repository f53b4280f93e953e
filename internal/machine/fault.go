package machine

import (
	"anton3/internal/chip"
	"anton3/internal/fault"
	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/sim"
)

// Link-fault injection (Config.Faults) threads the fault plan through three
// layers, all deterministic and shard-safe:
//
//   - serdes: degraded channels serialize slower / fly longer; statically
//     dead channels panic on transmit (a backstop — flow control must keep
//     traffic off them).
//   - vcq credit layer: a dead outbound channel's credit counters are
//     zeroed and credit returns for it are dropped, so no new packet is
//     ever accepted onto it; traffic parks and drains via rerouting.
//   - routing: adaptive policies see dead links through route.HealthView
//     and steer around them; when the policy's hop is dead anyway (all
//     oblivious policies, or an adaptive decision with no live minimal
//     hop), chooseHop diverts the packet onto the fault-avoiding escape
//     path (route.EscapeNextAvoid), which may go the long way around a
//     ring and commits that direction on the packet (packet.EscDirs).
//
// Scheduled faults (LinkFault.TripAt > 0) fire as kernel events on the
// shard that owns the link's upstream node — simulated time, never wall
// clock — so a mid-run trip is byte-identical at any shard count: the trip
// only mutates state owned by that shard (its deadCh rows, its channels,
// its parked queues), and trips are (re)scheduled at Reset before any
// harness events, making them setup events under lineage tie ordering.
//
// Model notes. A trip is fail-stop for *new* acceptances only: packets that
// already hold credits for the link (in an injection or transit latency
// window, or serializing) drain across it — which is why only static dead
// faults arm the serdes transmit panic. Fence packets are credit-exempt,
// so dead-link plans are only meaningful for workloads without fences (the
// flow harness). With multiple dead links a packet's committed detour can
// itself hit a second dead link; it then parks forever and the run
// terminates with the packet accounted as undelivered rather than
// deadlocking the kernel.

// faultInjBase places fault-trip lineage serials in their own region of the
// injection-order space: packet injections are flat indices, timestep
// engines use 1<<59..1<<61, credits 1<<62, fences 3<<62 — 2<<62 is free.
const faultInjBase = uint64(2) << 62

// faultTrip is one scheduled fault firing at a simulated timestamp: a
// sim.Actor on the upstream node's shard kernel. Trips are built once in
// New and rescheduled by every Reset, so a reused machine re-arms its plan
// without allocating.
type faultTrip struct {
	m     *Machine
	n     *Node
	specs []int8 // dense outbound spec indices this trip kills/degrades
	eff   fault.Effect
	at    sim.Time
	inj   uint64
	hist  []sim.Time
}

// Act applies the fault (sim.Actor). Downstream events it causes — parked
// packets rerouted onto live channels, their credit returns — inherit the
// trip's lineage chain exactly like a credit arrival's.
func (t *faultTrip) Act() {
	n, m := t.n, t.m
	if m.lineage {
		t.hist = append(t.hist, n.sh.k.Now())
		n.sh.curHist = t.hist
	}
	for _, j := range t.specs {
		m.applyChannelFault(n, int(j), t.eff, false)
	}
	if t.eff.Dead {
		for _, j := range t.specs {
			m.rerouteParked(n, int(j))
		}
	}
}

// Lineage implements sim.Lineaged.
func (t *faultTrip) Lineage() ([]sim.Time, uint64) { return t.hist, t.inj }

// faultSpecIndices lists the dense channel-spec indices a LinkFault covers
// (one slice, or both).
func faultSpecIndices(f fault.LinkFault) [2]int {
	if f.Slice >= 0 {
		j := chip.ChannelSpec{Dim: f.Dim, Dir: f.Dir, Slice: f.Slice}.Index()
		return [2]int{j, -1}
	}
	return [2]int{
		chip.ChannelSpec{Dim: f.Dim, Dir: f.Dir, Slice: 0}.Index(),
		chip.ChannelSpec{Dim: f.Dim, Dir: f.Dir, Slice: 1}.Index(),
	}
}

// applyFaults (re)applies the machine's fault plan: static effects take
// hold immediately, scheduled trips are (re)armed on their shard kernels.
// Called at the end of New and of Reset — channels and credit counters have
// just been reset to healthy, so the plan is applied onto a clean slate.
func (m *Machine) applyFaults() {
	if !m.faulty {
		return
	}
	for i := range m.deadCh {
		m.deadCh[i] = false
	}
	for _, f := range m.cfg.Faults.Links {
		if f.TripAt > 0 {
			continue // armed below via the prebuilt trips
		}
		n := m.Node(f.Node)
		for _, j := range faultSpecIndices(f) {
			if j >= 0 {
				m.applyChannelFault(n, j, f.Effect, true)
			}
		}
	}
	for _, t := range m.trips {
		t.hist = t.hist[:0]
		t.n.sh.k.AtActor(t.at, t)
	}
}

// applyChannelFault applies one effect to node n's outbound channel j.
// static marks plan application at reset time (as opposed to a mid-run
// trip): only then is the serdes transmit panic armed, because a mid-run
// trip must let packets that already hold credits for the channel drain.
func (m *Machine) applyChannelFault(n *Node, j int, eff fault.Effect, static bool) {
	ch := n.out[j]
	if eff.Dead {
		m.deadCh[int(n.idx)*chip.NumChannelSpecs+j] = true
		if m.vcq != nil {
			for vc := 0; vc < route.NumRequestVCs; vc++ {
				m.vcq.credits[vcSlot(n.idx, j, vc)] = 0
			}
		}
		if static {
			ch.SetDead(true)
		}
		return
	}
	ch.SetFault(eff.BWDiv, eff.LatMult)
}

// rerouteParked drains every packet parked on the newly dead outbound
// channel j at node n and re-dispatches each through the fault-aware hop
// choice, in deterministic FIFO-per-VC order. Without this, packets parked
// before the trip would wait forever on credits that can no longer return.
func (m *Machine) rerouteParked(n *Node, j int) {
	v := m.vcq
	for vc := 0; vc < route.NumRequestVCs; vc++ {
		slot := vcSlot(n.idx, j, vc)
		for {
			q := v.pending[slot].pop()
			if q == nil {
				break
			}
			m.scratch = append(m.scratch, q)
		}
		v.pendFlits[slot] = 0
	}
	now := n.sh.k.Now()
	for i, q := range m.scratch {
		m.redispatch(n, q, now)
		m.scratch[i] = nil
	}
	m.scratch = m.scratch[:0]
}

// redispatch re-runs the park-or-depart decision for a packet whose parked
// channel just died: like creditArrive it ends in revive, except the
// output resource is chosen afresh instead of being the parked one. A
// packet the new resource cannot take either parks again through admit,
// keeping its original ParkedAt.
func (m *Machine) redispatch(n *Node, q *packet.Packet, now sim.Time) {
	if sh := n.sh; sh.tele != nil || sh.trec != nil {
		m.noteFaultReroute(n, q, now)
	}
	st, ok := m.nextStep(q)
	if !ok {
		panic("machine: parked packet with no remaining hops")
	}
	out, w, ok := m.admit(n, q, st)
	if !ok {
		return
	}
	if sh := n.sh; sh.tele != nil || sh.trec != nil {
		m.noteUnpark(n, q, now, int32(q.Flits()))
	}
	m.revive(n, q, out, w)
}
