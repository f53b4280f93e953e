package machine

import (
	"fmt"

	"anton3/internal/chip"
	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/sim"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
)

// Per-VC ingress queues (Config.VCQueueFlits > 0) replace the machine's
// infinite-buffer channel model with the paper's bounded virtual-channel
// flow control at node granularity: every packet emerging from a channel
// lands in a bounded per-(inbound channel, VC) FIFO at the receiving node,
// and the sending node may only start a packet toward that queue while it
// holds enough credits for the packet's flits. Credits return to the sender
// over the reverse wire (one ChannelFixed flight — the same latency floor
// the parallel executive uses as its lookahead, so sharded machines merge
// credit arrivals at window barriers exactly like packet arrivals).
//
// The queue discipline is virtual cut-through: a packet frees its ingress
// slots the moment it is accepted by its next output (or starts ejecting),
// not when it finishes serializing there. A queue head that cannot get
// credits on its chosen output parks — and every packet behind it in that
// VC FIFO waits, which is precisely the head-of-line blocking that makes
// VC assignment a performance decision instead of bookkeeping. Fence
// packets bypass the queues: the hardware gives fences dedicated per-port
// counters (Section V-D), so they are modeled credit-exempt.
//
// Deadlock freedom follows Duato's protocol rather than the per-packet
// dimension orders alone: with bounded buffers, packets of *different*
// dimension orders sharing VCs can close X->Y->X buffer cycles (only a
// single fixed order is cycle-free), so the four request VCs split into a
// free pair (vcFree: any minimal hop the routing policy picks, dateline-
// split 0/1) and an escape pair (vcEscape: 2/3) that admits only strict
// XYZ e-cube hops (route.EscapeNext) with the dateline switch. The escape
// subnetwork's channel dependency graph is acyclic, so it always drains;
// a blocked head parks on its escape resource, whose credits therefore
// always eventually return.

// pktq is a FIFO of packets backed by a reusable ring buffer, so the
// steady-state enqueue/dequeue path never allocates once the ring has grown
// to the queue's peak depth.
type pktq struct {
	buf  []*packet.Packet
	head int
	n    int
}

func (q *pktq) len() int { return q.n }

func (q *pktq) peek() *packet.Packet {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

func (q *pktq) push(p *packet.Packet) {
	if q.n == len(q.buf) {
		grown := make([]*packet.Packet, 2*len(q.buf)+4)
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

func (q *pktq) pop() *packet.Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

// vcqState is the machine's virtual-channel flow-control state, laid out
// structure-of-arrays: every table is one flat slice indexed by
// (node x dense channel spec x VC), so the inner credit loop walks plain
// []int32 instead of chasing a per-node object. The same slot plays two
// roles depending on the table: credits/pending/pendFlits describe the
// node's *outbound* channels (the sender side: how much space remains
// downstream, and which packets are parked waiting for it), while
// inq/inqFlits/credSeq describe its *inbound* channels (the receiver side:
// the per-VC ingress FIFOs, keyed by the receiver-side spec a packet
// carries in In).
type vcqState struct {
	credits   []int32
	pendFlits []int32
	pending   []pktq

	inqFlits []int32
	inq      []pktq
	// credSeq counts credit messages returned per inbound (channel, VC) —
	// the content-derived serial that makes credit events totally ordered
	// under lineage ties regardless of the shard count.
	credSeq []uint32
}

// newVCQState allocates the flow-control tables for a machine of nNodes.
func newVCQState(nNodes int) *vcqState {
	n := nNodes * chip.NumChannelSpecs * route.NumRequestVCs
	return &vcqState{
		credits:   make([]int32, n),
		pendFlits: make([]int32, n),
		pending:   make([]pktq, n),
		inqFlits:  make([]int32, n),
		inq:       make([]pktq, n),
		credSeq:   make([]uint32, n),
	}
}

// vcSlot linearizes (node, channel spec, VC) into the vcqState tables.
func vcSlot(node int32, spec, vc int) int {
	return (int(node)*chip.NumChannelSpecs+spec)*route.NumRequestVCs + vc
}

// creditInjBase places credit-message lineage serials in their own region
// of the injection-order space, disjoint from packet injection indices and
// from fence serials, so a credit event can never compare equal to the
// packet whose chain it inherited.
const creditInjBase = uint64(1) << 62

// creditMsg is one in-flight credit return: flits freed at the downstream
// node, on their way back to the upstream node's credit counter. Messages
// are pooled per shard; a message that crosses shards is recycled into the
// pool of the shard it fires on.
type creditMsg struct {
	m     *Machine
	node  *Node // upstream node whose outbound credits to top up
	spec  int8  // dense index of the upstream node's outbound channel
	vc    int8
	flits int8
	inj   uint64
	hist  []sim.Time
}

// Act delivers the credits (sim.Actor).
func (c *creditMsg) Act() {
	n := c.node
	m := c.m
	c.hist = append(c.hist, n.sh.k.Now())
	n.sh.curHist = c.hist
	m.creditArrive(n, int(c.spec), int(c.vc), int(c.flits))
	n.sh.putCredit(c)
}

// Lineage implements sim.Lineaged.
func (c *creditMsg) Lineage() ([]sim.Time, uint64) { return c.hist, c.inj }

// getCredit returns a credit message from the shard's free list.
func (sh *mshard) getCredit() *creditMsg {
	n := len(sh.creds) - 1
	if n < 0 {
		return &creditMsg{}
	}
	c := sh.creds[n]
	sh.creds[n] = nil
	sh.creds = sh.creds[:n]
	return c
}

// putCredit recycles a fired credit message into this shard's free list
// (adopting messages that were allocated on another shard).
func (sh *mshard) putCredit(c *creditMsg) {
	hist := c.hist[:0]
	*c = creditMsg{hist: hist}
	sh.creds = append(sh.creds, c)
}

// lineageTouch records that p's next event is being scheduled by the
// currently executing event at time now: under lineage ordering an actor's
// history must end with its scheduler's fire time. Scheduling from p's own
// event is a no-op (OnPacket already appended now); scheduling from another
// actor's event — a credit arrival reviving a parked packet, a departing
// head unblocking the packet behind it — appends the missing link.
func lineageTouch(p *packet.Packet, now sim.Time) {
	if n := len(p.Hist); n == 0 || p.Hist[n-1] != now {
		p.PushHist(now)
	}
}

// Request VC classes of the credit-flow layer (see the package comment):
// the free pair carries any minimal hop the policy picks, the escape pair
// only strict e-cube hops. Each pair splits 0/1 on the dateline.
const (
	vcFree   = 0
	vcEscape = 2
)

// hopVC returns base's dateline-adjusted VC for p crossing channel out:
// base+1 once the packet has crossed the wraparound link of the dimension
// it is traversing, base otherwise, with the crossed bit resetting on a
// dimension change (the dateline rule of Section III-B2).
func (m *Machine) hopVC(p *packet.Packet, out chip.ChannelSpec, base int) int {
	if p.Crossed && int8(out.Dim) == p.CurDim {
		return base + 1
	}
	return base
}

// chooseHop picks q's next channel and VC at its current node under credit
// flow control, given the policy's preferred step st: the preferred hop on
// the free pair when credits allow, the e-cube escape hop on the escape
// pair otherwise. ok=false means neither resource has credits — out and w
// then name the escape resource the packet must park on (the one whose
// credits are guaranteed to eventually return). On faulty machines the
// preferred hop is additionally vetoed when its channel is dead or when it
// conflicts with a ring direction the packet's escape detour has committed
// to, and the escape hop routes around dead links (route.EscapeNextAvoid).
func (m *Machine) chooseHop(n *Node, q *packet.Packet, st topo.Step) (chip.ChannelSpec, int, bool) {
	v := m.vcq
	fl := int32(q.Flits())
	out := chip.ChannelSpec{Dim: st.Dim, Dir: st.Dir, Slice: int(q.Slice)}
	if !m.hopBlocked(n, q, out) {
		w := m.hopVC(q, out, vcFree)
		if v.credits[vcSlot(n.idx, out.Index(), w)] >= fl {
			return out, w, true
		}
	}
	esc, ok := m.escapeStep(n, q)
	if !ok {
		panic("machine: escape route ended before the destination")
	}
	if m.faulty && int8(esc.Dim) == q.CurDim && q.CurDir != 0 && int8(esc.Dir) != q.CurDir {
		// The detour reverses within the packet's current dimension: each
		// (dim, dir) ring has its own dateline, so the crossed state
		// belongs to the old direction and must not pick the high VC here.
		q.Crossed = false
	}
	out = chip.ChannelSpec{Dim: esc.Dim, Dir: esc.Dir, Slice: int(q.Slice)}
	w := m.hopVC(q, out, vcEscape)
	return out, w, v.credits[vcSlot(n.idx, out.Index(), w)] >= fl
}

// hopBlocked reports whether fault state forbids sending q over out: the
// channel is dead, or the packet has committed to the opposite ring
// direction in out's dimension while detouring around a dead link (taking
// the minimal hop again would bounce it back into the link it is escaping —
// livelock). Always false on healthy machines.
func (m *Machine) hopBlocked(n *Node, q *packet.Packet, out chip.ChannelSpec) bool {
	if !m.faulty {
		return false
	}
	if m.deadCh[int(n.idx)*chip.NumChannelSpecs+out.Index()] {
		return true
	}
	c := q.EscDirs[int(out.Dim)]
	return c != 0 && int(c) != out.Dir
}

// escapeStep returns q's escape hop at node n: plain e-cube on healthy
// machines, the dead-link-avoiding variant (with per-packet direction
// commitment) on faulty ones.
func (m *Machine) escapeStep(n *Node, q *packet.Packet) (topo.Step, bool) {
	if !m.faulty {
		return route.EscapeNext(m.cfg.Shape, q.Cur, q.DstNode, q.Tie)
	}
	return route.EscapeNextAvoid(m.cfg.Shape, q.Cur, q.DstNode, q.Tie, &n.links[q.Slice], &q.EscDirs)
}

// sendFlow is Send's first-hop admission under per-VC flow control: take
// the credits and start injecting, or park the packet at the chosen
// channel until a credit arrival revives it (the backpressure closed-loop
// sources stall on).
func (m *Machine) sendFlow(p *packet.Packet, n *Node, first topo.Step) {
	if out, w, ok := m.admit(n, p, first); ok {
		m.injectHop(n, p, out, w)
	}
}

// admit is the one credit-admission step of the flow-control layer.
// chooseHop names q's next resource out of node n for the policy's step
// st; admit takes that (channel, VC)'s credits and returns ok=true, or
// parks q on it until a credit arrival revives it and returns ok=false. A
// packet that was already parked — a fault re-park — keeps its ParkedAt
// and counts no new park event: the stall began at the original park, the
// trip merely re-routed the waiting packet.
func (m *Machine) admit(n *Node, q *packet.Packet, st topo.Step) (chip.ChannelSpec, int, bool) {
	out, w, ok := m.chooseHop(n, q, st)
	v := m.vcq
	slot := vcSlot(n.idx, out.Index(), w)
	fl := int32(q.Flits())
	if ok {
		v.credits[slot] -= fl
		return out, w, true
	}
	q.Out = int8(out.Index())
	q.OutVC = int8(w)
	if q.State != packet.WalkParked {
		q.State = packet.WalkParked
		q.ParkedAt = n.sh.k.Now()
		if n.sh.tele != nil {
			n.sh.tele.Ctr[telemetry.CtrParkEvents]++
		}
	}
	v.pending[slot].push(q)
	v.pendFlits[slot] += fl
	return out, w, false
}

// injectHop starts p's first hop over channel out on VC w, whose credits
// it holds: the inject latency to the chip edge, then the crossing.
func (m *Machine) injectHop(n *Node, p *packet.Packet, out chip.ChannelSpec, w int) {
	m.acceptHop(p, out, w)
	p.Out = int8(out.Index())
	p.State = packet.WalkTransit
	n.sh.k.AfterActor(m.injLat[m.tileIdx(p.SrcCore)*chip.NumChannelSpecs+out.Index()], p)
}

// acceptHop commits p to channel out on VC w: record the VC whose credits
// it now holds, update the dateline-tracking dimension state, and advance
// (or invalidate) the precomputed route — a packet diverted onto an escape
// hop that differs from its plan falls back to per-hop decisions for the
// rest of its walk.
func (m *Machine) acceptHop(p *packet.Packet, out chip.ChannelSpec, w int) {
	// VCs from vcEscape up are the Duato escape pair — telemetry counts
	// entries onto them as the deadlock-avoidance pressure signal.
	if w >= vcEscape {
		if sh := m.nodes[p.CurIdx].sh; sh.tele != nil || sh.trec != nil {
			m.noteEscapeEntry(sh, p)
		}
	}
	p.VC = int8(w)
	if int8(out.Dim) != p.CurDim || int8(out.Dir) != p.CurDir {
		// A direction change without a dimension change only happens on
		// fault detours (minimal routing never reverses within a ring);
		// the reversed ring has its own dateline, so Crossed resets there
		// too.
		p.CurDim = int8(out.Dim)
		p.CurDir = int8(out.Dir)
		p.Crossed = false
	}
	if p.RouteLen >= 0 {
		if p.RoutePos < p.RouteLen && p.Route[p.RoutePos] == int8(out.Index()) {
			p.RoutePos++
		} else {
			p.RouteLen = -1
		}
	}
}

// vcqArrive handles a packet emerging from a channel at a node with per-VC
// ingress queues: the packet joins the FIFO of its (inbound channel, VC)
// and, if it is the head, tries to advance immediately.
func (m *Machine) vcqArrive(n *Node, p *packet.Packet) {
	v := m.vcq
	in, vc := int(p.In), int(p.VC)
	slot := vcSlot(n.idx, in, vc)
	v.inqFlits[slot] += int32(p.Flits())
	if v.inqFlits[slot] > int32(m.vcqFlits) {
		panic(fmt.Sprintf("machine: node %v ingress queue overflow on %v vc %d (flow-control bug)",
			n.Coord, chip.ChannelSpecAt(in), vc))
	}
	v.inq[slot].push(p)
	if v.inq[slot].len() == 1 {
		m.advanceQueue(n, in, vc)
	}
}

// advanceQueue drains one ingress FIFO for as long as its head can make
// progress: eject heads leave immediately, transit heads leave when the
// chosen output has credits, and a credit-starved head parks — blocking
// the whole FIFO behind it (head-of-line blocking).
func (m *Machine) advanceQueue(n *Node, in, vc int) {
	inq := &m.vcq.inq[vcSlot(n.idx, in, vc)]
	for {
		q := inq.peek()
		if q == nil {
			return
		}
		st, ok := m.nextStep(q)
		if !ok {
			m.popIngress(n, in, vc, q)
			q.State = packet.WalkApply
			lineageTouch(q, n.sh.k.Now())
			n.sh.k.AfterActor(m.ejLat[m.tileIdx(q.DstCore)*chip.NumChannelSpecs+in], q)
			continue
		}
		out, w, ok := m.admit(n, q, st)
		if !ok {
			return
		}
		m.popIngress(n, in, vc, q)
		m.departHop(n, q, in, out, w)
	}
}

// departHop schedules q's transit from inbound channel in toward channel
// out after it has been accepted (credits already held) and has left its
// ingress queue.
func (m *Machine) departHop(n *Node, q *packet.Packet, in int, out chip.ChannelSpec, w int) {
	m.acceptHop(q, out, w)
	q.Out = int8(out.Index())
	q.State = packet.WalkTransit
	lineageTouch(q, n.sh.k.Now())
	n.sh.k.AfterActor(m.transLat[in][out.Index()], q)
}

// popIngress removes q (the head) from its ingress FIFO and sends the
// freed flits back upstream as a credit message.
func (m *Machine) popIngress(n *Node, in, vc int, q *packet.Packet) {
	v := m.vcq
	slot := vcSlot(n.idx, in, vc)
	v.inq[slot].pop()
	fl := int32(q.Flits())
	v.inqFlits[slot] -= fl
	m.creditReturn(n, in, vc, fl)
}

// creditReturn schedules fl flits of credit for the (channel, VC) feeding
// node n's inbound channel in, arriving at the upstream node one reverse
// wire flight from now: credits ride sideband on n's own channel pointing
// back at the sender (spec in — the receiver-side spec IS the reverse
// direction), so the latency is that channel's FixedLatency. Cross-shard
// returns ride the executive's outboxes like packet arrivals; the latency
// floor is the same lookahead, so the deferral is always safe.
func (m *Machine) creditReturn(n *Node, in, vc int, fl int32) {
	up := m.nodes[m.neigh[int(n.idx)*chip.NumChannelSpecs+in]]
	v := m.vcq
	slot := vcSlot(n.idx, in, vc)
	seq := v.credSeq[slot]
	v.credSeq[slot]++
	// The message always comes from the emitting shard's free list — also
	// for cross-shard credits, which recycle into the upstream shard's
	// list when they fire (getCredit touches only n.sh, putCredit only the
	// firing shard, so no free list is ever shared inside a window; Reset
	// rebalances the drift the migration leaves behind).
	msg := n.sh.getCredit()
	msg.m = m
	msg.node = up
	msg.spec = m.oppIdx[in]
	msg.vc = int8(vc)
	msg.flits = int8(fl)
	msg.inj = creditInjBase +
		(uint64(n.idx)*chip.NumChannelSpecs+uint64(in))<<24 +
		uint64(vc)<<20 + uint64(seq&0xfffff)
	if cap(msg.hist) == 0 {
		msg.hist = make([]sim.Time, 0, packet.HistCap)
	}
	msg.hist = append(msg.hist[:0], n.sh.curHist...)
	at := n.sh.k.Now() + n.out[in].FixedLatency()
	if up.sh == n.sh {
		n.sh.k.AtActor(at, msg)
	} else {
		m.exec.Outbox(n.sh.id, up.sh.id).Defer(at, msg)
	}
}

// creditArrive tops up one outbound (channel, VC) credit counter at node n
// and revives parked packets in FIFO order for as long as credits last.
// Unparked transit heads leave their ingress queues, which lets the
// packets blocked behind them advance in turn.
func (m *Machine) creditArrive(n *Node, spec, vc, fl int) {
	if m.faulty && m.deadCh[int(n.idx)*chip.NumChannelSpecs+spec] {
		// Credits returning for a dead channel are dropped: nothing may be
		// accepted onto it again, and packets in flight when it tripped
		// have already drained downstream.
		return
	}
	v := m.vcq
	slot := vcSlot(n.idx, spec, vc)
	v.credits[slot] += int32(fl)
	out := chip.ChannelSpecAt(spec)
	for {
		q := v.pending[slot].peek()
		if q == nil {
			return
		}
		need := int32(q.Flits())
		if v.credits[slot] < need {
			return
		}
		v.pending[slot].pop()
		v.pendFlits[slot] -= need
		v.credits[slot] -= need
		now := n.sh.k.Now()
		if n.sh.tele != nil || n.sh.trec != nil {
			m.noteUnpark(n, q, now, need)
		}
		m.revive(n, q, out, int(q.OutVC))
	}
}

// revive sends on a parked packet that has just been granted the credits
// of (out, w). A parked injection takes sendFlow's accept path and its
// source is told; a parked transit head still heads its ingress FIFO, so
// it leaves it, returns its credits upstream, and lets the queue behind it
// advance. The revival runs inside another actor's event, so the packet's
// lineage chain gains that event before it is scheduled.
func (m *Machine) revive(n *Node, q *packet.Packet, out chip.ChannelSpec, w int) {
	if q.In < 0 {
		lineageTouch(q, n.sh.k.Now())
		m.injectHop(n, q, out, w)
		if q.OnAccept != nil {
			q.OnAccept.Accepted(q)
		}
		return
	}
	in, invc := int(q.In), int(q.VC)
	m.popIngress(n, in, invc, q)
	m.departHop(n, q, in, out, w)
	m.advanceQueue(n, in, invc)
}

// resetVCQ returns a node's flow-control state to its just-built form:
// full credits, empty queues. Packets still held in queues (possible after
// a deadlocked adaptive run) are recycled into their shard's pool.
func (n *Node) resetVCQ(queueFlits int) {
	v := n.m.vcq
	if v == nil {
		return
	}
	for spec := 0; spec < chip.NumChannelSpecs; spec++ {
		for vc := 0; vc < route.NumRequestVCs; vc++ {
			slot := vcSlot(n.idx, spec, vc)
			if n.out[spec] != nil {
				v.credits[slot] = int32(queueFlits)
			} else {
				v.credits[slot] = 0
			}
			for {
				p := v.pending[slot].pop()
				if p == nil {
					break
				}
				// Parked transit heads still sit in their ingress FIFO and
				// are recycled when that queue drains below; only refused
				// injections (In < 0) live in pending alone.
				if p.In < 0 {
					n.sh.pool.Put(p)
				}
			}
			for {
				p := v.inq[slot].pop()
				if p == nil {
					break
				}
				n.sh.pool.Put(p)
			}
			v.pendFlits[slot] = 0
			v.inqFlits[slot] = 0
			v.credSeq[slot] = 0
		}
	}
}

// IngressOccupancy reports the flits queued in the per-VC ingress FIFO fed
// by inbound channel in (the spec a packet carries in In). Zero when per-VC
// queues are disabled.
func (n *Node) IngressOccupancy(in chip.ChannelSpec, vc int) int {
	if n.m.vcq == nil {
		return 0
	}
	return int(n.m.vcq.inqFlits[vcSlot(n.idx, in.Index(), vc)])
}

// OutCredits reports the downstream ingress space (in flits) this node
// holds for its outbound channel out on VC vc. Zero when per-VC queues are
// disabled.
func (n *Node) OutCredits(out chip.ChannelSpec, vc int) int {
	if n.m.vcq == nil {
		return 0
	}
	return int(n.m.vcq.credits[vcSlot(n.idx, out.Index(), vc)])
}

// ParkedFlits reports the flits parked at this node waiting for credits on
// outbound channel out, VC vc (head-of-line blocked heads and refused
// injections).
func (n *Node) ParkedFlits(out chip.ChannelSpec, vc int) int {
	if n.m.vcq == nil {
		return 0
	}
	return int(n.m.vcq.pendFlits[vcSlot(n.idx, out.Index(), vc)])
}
