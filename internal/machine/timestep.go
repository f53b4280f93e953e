package machine

import (
	"fmt"

	"anton3/internal/chip"
	"anton3/internal/fixp"
	"anton3/internal/md"
	"anton3/internal/packet"
	"anton3/internal/sim"
	"anton3/internal/topo"
	"anton3/internal/trace"
)

// TimestepConfig calibrates the compute side of the timestep pipeline.
type TimestepConfig struct {
	// PPIMInteractionsPerCycle is the per-chip pairwise interaction
	// throughput. Table I's 5914 GOPS divided by the ~30 arithmetic
	// operations of one pairwise force evaluation gives the default 192.
	PPIMInteractionsPerCycle int64
	// IntegrationCyclesPerAtom is GC work per home atom per step (force
	// summation via blocking reads, integration, position update).
	IntegrationCyclesPerAtom int64
	// UnloadCycles covers PPIM stored-set force unload onto the on-chip
	// network after the GC-to-ICB fence completes.
	UnloadCycles int64
	// LocalStreamCycles is the on-chip latency before a home atom's
	// position reaches its own node's ICBs and starts streaming.
	LocalStreamCycles int64
}

// DefaultTimestepConfig returns the calibration used by the experiments.
func DefaultTimestepConfig() TimestepConfig {
	return TimestepConfig{
		PPIMInteractionsPerCycle: 192,
		IntegrationCyclesPerAtom: 100,
		UnloadCycles:             200,
		LocalStreamCycles:        60,
	}
}

// StepResult reports one simulated MD time step.
type StepResult struct {
	Duration    sim.Time
	PPIMBusyMax float64 // highest per-node PPIM utilization during the step

	// ParkedPositions and ParkedForces count injection refusals under
	// per-VC flow control (Config.VCQueueFlits > 0): packets the network
	// initially declined for lack of downstream credits. They measure how
	// much endpoint backpressure real MD traffic generates; both are zero
	// under the open-loop infinite-buffer model.
	ParkedPositions int64
	ParkedForces    int64
}

// Lineage injection-order regions for the engine's runtime actors, disjoint
// from each other and from the credit (creditInjBase) and fence
// (fenceInjBase) regions, so no two concurrently live actors can compare
// equal under lineage ties: position multicast edges carry their global
// edge index, PPIM stream actors their flat stream index, and stream-set
// force returns their flat export-target index.
const (
	mdPosInjBase    = uint64(1) << 59
	mdStreamInjBase = uint64(1) << 60
	mdForceInjBase  = uint64(1) << 61
)

// Engine drives the Section II-C dataflow on the machine for a decomposed
// MD system: position multicast along stream-set trees, streaming through
// PPIMs, force returns, the GC-to-ICB fence, stored-set unload, and GC
// integration. It produces per-step wall-clock times (Figure 9b) and
// machine activity traces (Figure 12).
//
// The engine runs on sharded machines: every runtime event is either a
// Lineaged actor (position packets, stream actors, force packets) whose
// same-timestamp order is a pure function of its content, or an order-pure
// bookkeeping event (unload, integration keep-alive) whose effect does not
// depend on same-timestamp ordering. All randomness is pre-drawn at setup
// from the machine's rng in flat atom-major order. Steps therefore produce
// byte-identical results at every shard count: a sharded run's lineage
// order reproduces the single-shard schedule order, and a machine with
// per-VC queues runs lineage order at every shard count (see Machine).
type Engine struct {
	m   *Machine
	sys *md.System
	d   *md.Decomposition
	cfg TimestepConfig

	// Rec, when non-nil, receives activity intervals, merged from the
	// per-shard recorders after every step.
	Rec  *trace.Recorder
	recs []*trace.Recorder // one per shard; events record here during Run

	radius int // fence hop count: max home->target distance

	states []nodeStep

	// The flat per-step plan, rebuilt by setup() into reusable buffers:
	// one entry per atom in homes/rels, per export target in
	// targets/orders, per multicast channel crossing in edges, with
	// tgtOff/edgeOff giving atom a its [off[a], off[a+1]) range. streams
	// holds one actor per streamed atom copy: atom a's home copy at
	// tgtOff[a]+a, its export copy for flat target t at t+a+1.
	homes   []int32
	rels    []fixp.Fixed
	targets []int32
	tgtOff  []int32
	orders  []topo.DimOrder
	edges   []md.ChannelEdge
	edgeOff []int32
	streams []mdStream

	// Per-shard counters of injection-refused (parked) packets under
	// closed-loop flow control, reduced into StepResult after Run.
	parkedPos []int64
	parkedFrc []int64
}

// nodeStep is one node's per-step pipeline state. All fields are mutated
// only by events on the owning node's shard.
type nodeStep struct {
	node      *Node
	homeAtoms int32

	streamsExpected int32
	streamsDone     int32
	forcesExpected  int32
	forcesArrived   int32
	fenceDone       bool
	unloadDone      bool
	finished        bool

	ppimBusyUntil sim.Time
	ppimBusy      sim.Time // total busy time this step
	workPerAtomPs sim.Time
	doneAt        sim.Time

	unload mdUnload
}

// NewEngine decomposes sys across m's shape.
func NewEngine(m *Machine, sys *md.System, cfg TimestepConfig) *Engine {
	return &Engine{
		m:   m,
		sys: sys,
		d:   md.NewDecomposition(m.Shape(), sys.Box),
		cfg: cfg,
	}
}

// RunStep executes one full timestep pipeline for the system's current
// state and then advances the golden dynamics, returning the pipeline's
// wall-clock duration (max over nodes).
func (e *Engine) RunStep() StepResult {
	m := e.m
	t0 := m.K.Now()
	e.setup(t0)

	// The GC-to-ICB fence flushes the position export; its packets queue
	// behind the positions just sent on every channel.
	fenceID := m.StartFence(e.radius, func(n *Node, at sim.Time) {
		st := &e.states[m.cfg.Shape.Index(n.Coord)]
		st.fenceDone = true
		e.maybeUnload(st)
	})

	m.Run()
	m.FinishFence(fenceID)

	end := t0
	maxBusy := 0.0
	for i := range e.states {
		st := &e.states[i]
		if !st.finished {
			panic(fmt.Sprintf("machine: node %v did not finish its timestep", st.node.Coord))
		}
		if st.doneAt > end {
			end = st.doneAt
		}
		if st.doneAt > t0 {
			u := float64(st.ppimBusy) / float64(st.doneAt-t0)
			if u > maxBusy {
				maxBusy = u
			}
		}
	}
	res := StepResult{Duration: end - t0, PPIMBusyMax: maxBusy}
	for s := range e.parkedPos {
		res.ParkedPositions += e.parkedPos[s]
		res.ParkedForces += e.parkedFrc[s]
	}
	if e.Rec != nil && e.recs != nil {
		for _, r := range e.recs {
			r.DrainInto(e.Rec)
		}
	}

	// Advance the golden dynamics for the next step.
	e.sys.Step()
	return res
}

// setup rebuilds the flat per-step plan and schedules phase 1 (position
// export): home copies stream after the on-chip latency, exported copies
// launch down their multicast trees. All routing randomness is pre-drawn
// here, in flat atom-major order through DrawRoute — the only rng the
// engine ever touches — so the stream is a pure function of the seed.
func (e *Engine) setup(t0 sim.Time) {
	m := e.m
	shape := m.cfg.Shape
	nNodes := shape.Nodes()
	N := e.sys.N

	if cap(e.states) < nNodes {
		e.states = make([]nodeStep, nNodes)
	}
	e.states = e.states[:nNodes]
	for i := range e.states {
		e.states[i] = nodeStep{
			node:          m.nodes[i],
			ppimBusyUntil: t0,
			unload:        mdUnload{e: e, state: int32(i)},
		}
	}

	P := m.NumShards()
	if cap(e.parkedPos) < P {
		e.parkedPos = make([]int64, P)
		e.parkedFrc = make([]int64, P)
	}
	e.parkedPos, e.parkedFrc = e.parkedPos[:P], e.parkedFrc[:P]
	for s := 0; s < P; s++ {
		e.parkedPos[s], e.parkedFrc[s] = 0, 0
	}
	if e.Rec != nil && e.recs == nil {
		e.recs = make([]*trace.Recorder, P)
		for i := range e.recs {
			e.recs[i] = trace.NewRecorder()
		}
	}

	// Classify every atom: home node, then export targets and multicast
	// tree from its class's memoized plan.
	e.homes = e.homes[:0]
	e.rels = e.rels[:0]
	e.targets = e.targets[:0]
	e.tgtOff = append(e.tgtOff[:0], 0)
	e.edges = e.edges[:0]
	e.edgeOff = append(e.edgeOff[:0], 0)
	e.radius = 1
	for i := 0; i < N; i++ {
		pos := e.sys.Pos[i]
		home := e.d.HomeNode(pos)
		homeIdx := shape.Index(home)
		e.homes = append(e.homes, int32(homeIdx))
		e.rels = append(e.rels, e.d.RelativeFixed(pos, home))
		pl := e.d.Plan(pos, home, i&2 != 0)
		hs := &e.states[homeIdx]
		hs.homeAtoms++
		hs.forcesExpected += int32(len(pl.Targets))
		hs.streamsExpected++ // the home atom streams locally too
		for _, tgt := range pl.Targets {
			t := shape.Index(tgt)
			e.targets = append(e.targets, int32(t))
			e.states[t].streamsExpected++
		}
		e.radius = max(e.radius, pl.Radius)
		e.tgtOff = append(e.tgtOff, int32(len(e.targets)))
		e.edges = append(e.edges, pl.Edges...)
		e.edgeOff = append(e.edgeOff, int32(len(e.edges)))
	}

	// PPIM work per streamed atom: balanced split of the global pair count
	// (water is homogeneous; per-node imbalance is a few percent).
	pairs := e.sys.PairCount()
	perChipPairs := pairs / nNodes
	cyclePs := m.Clock.Period()
	for i := range e.states {
		st := &e.states[i]
		if st.streamsExpected > 0 {
			interactionsPerStream := float64(perChipPairs) / float64(st.streamsExpected)
			ps := interactionsPerStream / float64(e.cfg.PPIMInteractionsPerCycle) * float64(cyclePs)
			st.workPerAtomPs = sim.Time(ps)
			if st.workPerAtomPs < 1 {
				st.workPerAtomPs = 1
			}
		}
	}

	// Pre-draw the force-return routing decisions, one per export target.
	// The tie draw is discarded — Force packets derive theirs from the
	// atom ID — but DrawRoute consumes it anyway, two draws per route.
	if cap(e.orders) < len(e.targets) {
		e.orders = make([]topo.DimOrder, len(e.targets))
	}
	e.orders = e.orders[:len(e.targets)]
	for t := range e.orders {
		e.orders[t], _ = m.DrawRoute()
	}

	// Stream actors and phase-1 launches, atom-major: the home copy's
	// stream event first, then the atom's out-of-home tree edges — the
	// setup sequence order the sequential engine has always used.
	S := N + len(e.targets)
	if cap(e.streams) < S {
		grown := make([]mdStream, S)
		copy(grown, e.streams[:cap(e.streams)])
		e.streams = grown
	}
	e.streams = e.streams[:S]

	localLat := m.Clock.Cycles(e.cfg.LocalStreamCycles)
	for a := 0; a < N; a++ {
		node := m.nodes[e.homes[a]]
		si := int(e.tgtOff[a]) + a
		s := &e.streams[si]
		*s = mdStream{e: e, atom: uint32(a), state: e.homes[a], tgt: -1,
			hist: s.hist[:0], inj: mdStreamInjBase + uint64(si)}
		node.sh.k.AtActor(t0+localLat, s)
		for t := int(e.tgtOff[a]); t < int(e.tgtOff[a+1]); t++ {
			ts := &e.streams[t+a+1]
			*ts = mdStream{e: e, atom: uint32(a), state: e.targets[t], tgt: int32(t),
				hist: ts.hist[:0], inj: mdStreamInjBase + uint64(t+a+1)}
		}
		for i := int(e.edgeOff[a]); i < int(e.edgeOff[a+1]); i++ {
			if e.edges[i].From != node.Coord {
				continue
			}
			p := e.edgePacket(a, i, nil)
			if m.vcqFlits > 0 {
				// Closed loop: the launch needs downstream credits and may
				// park until a credit arrival revives it.
				m.sendFlow(p, node, e.edges[i].Step)
				if p.State == packet.WalkParked {
					e.parkedPos[node.sh.id]++
				}
			} else {
				p.State = packet.WalkTransit
				node.sh.k.AtActor(t0+m.Geom.InjectLatency(p.SrcCore, chip.ChannelSpecAt(int(p.Out))), p)
			}
		}
	}
}

// edgePacket builds the pooled packet for multicast edge ei of atom a,
// inheriting the parent packet's lineage chain when forking mid-tree
// (parent is nil for the home launch, a setup event). All routing state is
// preassigned — the tree is the route — so the machine draws nothing.
func (e *Engine) edgePacket(a, ei int, parent *packet.Packet) *packet.Packet {
	m := e.m
	ed := e.edges[ei]
	node := m.Node(ed.From)
	slice := a & 1
	out := chip.ChannelSpec{Dim: ed.Step.Dim, Dir: ed.Step.Dir, Slice: slice}
	p := node.sh.pool.Get()
	p.ID = node.sh.nextPktID()
	p.Type = packet.Position
	p.SrcNode = m.cfg.Shape.CoordOf(int(e.homes[a]))
	p.DstNode = m.cfg.Shape.Neighbor(ed.From, ed.Step.Dim, ed.Step.Dir)
	p.SrcCore = m.Geom.CoreIDByIndex(a % m.Geom.GCs())
	p.AtomID = uint32(a)
	p.SetQuad(e.rels[a].Words())
	p.Order = topo.OrderXYZ
	p.Tie = a&2 != 0
	p.Slice = int8(slice)
	p.Walker = e
	p.Inj = mdPosInjBase + uint64(ei)
	p.Cur = ed.From
	p.CurIdx = node.idx
	p.In = -1
	p.Out = int8(out.Index())
	if parent != nil && m.lineage {
		p.Hist = append(p.Hist[:0], parent.Hist...)
	}
	return p
}

// OnPacket advances one position-multicast packet (packet.Walker): the
// engine is the walker for the tree's single-hop edge packets. Channel
// crossings are the machine walker's, which keeps the packet's node index
// current; arrivals fork fresh copies down the remaining tree edges
// instead of picking a next hop.
func (e *Engine) OnPacket(p *packet.Packet) {
	m := e.m
	if p.State == packet.WalkTransit {
		m.OnPacket(p)
		return
	}
	node := m.nodes[p.CurIdx]
	if m.lineage {
		p.Hist = append(p.Hist, node.sh.k.Now())
		node.sh.curHist = p.Hist
	}
	switch p.State {
	case packet.WalkArrive:
		if m.vcqFlits > 0 {
			// Closed loop: join the bounded per-VC ingress FIFO; the eject
			// comes back to us as WalkApply.
			m.vcqArrive(node, p)
			return
		}
		e.edgeArrive(node, p, chip.ChannelSpecAt(int(p.In)))
		node.sh.pool.Put(p)

	case packet.WalkApply:
		e.edgeApply(node, p)
		node.sh.pool.Put(p)

	default:
		panic("machine: timestep position packet fired in an invalid walk state")
	}
}

// edgeArrive handles a position copy emerging from a channel under the
// open-loop model: schedule the PPIM stream if this node is an export
// target, then fork fresh copies down the remaining tree edges — the exact
// eject/transit timing of the historical recursive walk.
func (e *Engine) edgeArrive(node *Node, p *packet.Packet, in chip.ChannelSpec) {
	m := e.m
	a := int(p.AtomID)
	if s := e.targetStream(a, p.Cur); s != nil {
		if m.lineage {
			s.hist = append(s.hist[:0], p.Hist...)
		}
		node.sh.k.AfterActor(m.Geom.EjectLatency(in, packet.CoreID{}), s)
	}
	for i := int(e.edgeOff[a]); i < int(e.edgeOff[a+1]); i++ {
		if e.edges[i].From != p.Cur {
			continue
		}
		c := e.edgePacket(a, i, p)
		c.State = packet.WalkTransit
		node.sh.k.AfterActor(m.Geom.TransitLatency(in, chip.ChannelSpecAt(int(c.Out))), c)
	}
}

// edgeApply is edgeArrive's closed-loop counterpart, entered after the
// packet left its per-VC ingress queue and paid the eject latency: the
// stream starts now, and forked copies re-enter flow-control admission at
// this node — store-and-forward relaying, the modeling choice that puts
// every tree edge under the same credit admission as a fresh injection.
func (e *Engine) edgeApply(node *Node, p *packet.Packet) {
	m := e.m
	a := int(p.AtomID)
	now := node.sh.k.Now()
	if s := e.targetStream(a, p.Cur); s != nil {
		s.hist = append(s.hist[:0], p.Hist...)
		node.sh.k.AtActor(now, s)
	}
	for i := int(e.edgeOff[a]); i < int(e.edgeOff[a+1]); i++ {
		if e.edges[i].From != p.Cur {
			continue
		}
		c := e.edgePacket(a, i, p)
		m.sendFlow(c, node, e.edges[i].Step)
		if c.State == packet.WalkParked {
			e.parkedPos[node.sh.id]++
		}
	}
}

// targetStream returns atom a's stream actor at node c, or nil if c is not
// one of a's export targets.
func (e *Engine) targetStream(a int, c topo.Coord) *mdStream {
	idx := int32(e.m.cfg.Shape.Index(c))
	for t := int(e.tgtOff[a]); t < int(e.tgtOff[a+1]); t++ {
		if e.targets[t] == idx {
			return &e.streams[t+a+1]
		}
	}
	return nil
}

// mdStream is one streamed atom copy at one node: a two-phase reusable
// actor replacing the historical per-arrival closures. Phase 0 books the
// PPIM array; phase 1, at stream-drain time, returns the stream-set force
// to the atom's home GC when the copy is remote. The actor is Lineaged —
// its history continues the position packet (or setup event) that
// scheduled it — so same-timestamp PPIM bookings order identically at
// every shard count, which is what keeps ppimBusyUntil chains, and
// therefore step durations, shard-invariant.
type mdStream struct {
	e     *Engine
	atom  uint32
	state int32 // index of the node this copy streams at
	tgt   int32 // flat export-target index; -1 for the home copy
	phase uint8
	hist  []sim.Time
	inj   uint64
}

// Lineage implements sim.Lineaged.
func (s *mdStream) Lineage() ([]sim.Time, uint64) { return s.hist, s.inj }

// Act runs the stream's next phase (sim.Actor).
func (s *mdStream) Act() {
	e := s.e
	m := e.m
	st := &e.states[s.state]
	n := st.node
	now := n.sh.k.Now()
	if m.lineage {
		s.hist = append(s.hist, now)
		n.sh.curHist = s.hist
	}
	if s.phase == 0 {
		start := st.ppimBusyUntil
		if start < now {
			start = now
		}
		endT := start + st.workPerAtomPs
		st.ppimBusyUntil = endT
		st.ppimBusy += endT - start
		if e.recs != nil {
			e.recs[n.sh.id].Add("ppim", start, endT)
		}
		s.phase = 1
		n.sh.k.AtActor(endT, s)
		return
	}
	st.streamsDone++
	if s.tgt >= 0 {
		// Stream-set force returns to the origin GC at the atom's home.
		ff := fixp.ForceToFixed(e.sys.Force[s.atom])
		p := n.sh.pool.Get()
		p.Type = packet.Force
		p.AtomID = s.atom
		p.SrcNode = n.Coord
		p.DstNode = m.cfg.Shape.CoordOf(int(e.homes[s.atom]))
		p.DstCore = m.Geom.CoreIDByIndex(int(s.atom) % m.Geom.GCs())
		p.SetQuad(ff.Words())
		p.Order = e.orders[s.tgt]
		p.Tie = s.atom&2 != 0
		p.Inj = mdForceInjBase + uint64(s.tgt)
		if m.lineage {
			// Continue this stream's chain minus the current event, which
			// Send re-appends as the force's parent.
			p.Hist = append(p.Hist[:0], s.hist[:len(s.hist)-1]...)
		}
		m.Send(p, e)
		if p.State == packet.WalkParked {
			e.parkedFrc[n.sh.id]++
		}
	}
	e.maybeUnload(st)
}

// Deliver counts a stream-set force return into its home node's state
// (packet.Deliverer); the home is the force packet's destination, so this
// always runs on the home node's shard.
func (e *Engine) Deliver(p *packet.Packet) {
	st := &e.states[e.m.cfg.Shape.Index(p.DstNode)]
	st.forcesArrived++
	e.maybeIntegrate(st)
}

// mdUnload fires a node's stored-set unload completion (sim.Actor). Not
// Lineaged: maybeIntegrate's outcome is a pure function of the counters
// and the fire time, so same-timestamp order cannot change any result.
type mdUnload struct {
	e     *Engine
	state int32
}

// Act implements sim.Actor.
func (u *mdUnload) Act() { u.e.maybeIntegrate(&u.e.states[u.state]) }

// maybeUnload fires the stored-set force unload once the ICB fence has
// completed and the PPIMs have drained.
func (e *Engine) maybeUnload(st *nodeStep) {
	if st.unloadDone || !st.fenceDone || st.streamsDone < st.streamsExpected {
		return
	}
	st.unloadDone = true
	st.node.sh.k.AfterActor(e.m.Clock.Cycles(e.cfg.UnloadCycles), &st.unload)
}

// timestepKeepAlive holds a node's kernel clock open to its integration
// completion without allocating a closure per node per step.
var timestepKeepAlive sim.Func = func() {}

// maybeIntegrate runs GC integration once every force (stored-set unload
// and all stream-set returns) is in.
func (e *Engine) maybeIntegrate(st *nodeStep) {
	if st.finished || !st.unloadDone || st.forcesArrived < st.forcesExpected {
		return
	}
	st.finished = true
	m := e.m
	// Integration parallelizes across the chip's GCs.
	cycles := (int64(st.homeAtoms)*e.cfg.IntegrationCyclesPerAtom + int64(m.Geom.GCs()) - 1) / int64(m.Geom.GCs())
	k := st.node.sh.k
	start := k.Now()
	st.doneAt = start + m.Clock.Cycles(cycles)
	if e.recs != nil {
		e.recs[st.node.sh.id].Add("gc-integ", start, st.doneAt)
	}
	// Keep the node's kernel clock alive to its completion: the next
	// step's t0 is then the max doneAt across all nodes at every shard
	// count (the executive aligns all kernels to the last event time).
	k.AtActor(st.doneAt, timestepKeepAlive)
}

// AttachChannelTrace wires every channel's OnSend hook into rec, split by
// packet type the way Figure 12 colors them (positions vs forces). Each
// shard's events record into a private recorder — hooks run inside shard
// windows — and RunStep merges them into rec after the kernels drain.
func (e *Engine) AttachChannelTrace(rec *trace.Recorder) {
	e.Rec = rec
	// Pin the historical Figure 12 column order up front: with per-shard
	// recorders merging in shard order, first-use order would otherwise
	// depend on where in the machine each track's first event landed.
	for _, t := range []string{"chan-pos", "ppim", "chan-other", "chan-frc", "gc-integ"} {
		rec.Touch(t)
	}
	if e.recs == nil {
		e.recs = make([]*trace.Recorder, e.m.NumShards())
		for i := range e.recs {
			e.recs[i] = trace.NewRecorder()
		}
	}
	hooks := make([]func(p *packet.Packet, start, end sim.Time), len(e.recs))
	for i := range hooks {
		r := e.recs[i]
		hooks[i] = func(p *packet.Packet, start, end sim.Time) {
			switch p.Type {
			case packet.Position:
				r.Add("chan-pos", start, end)
			case packet.Force:
				r.Add("chan-frc", start, end)
			default:
				r.Add("chan-other", start, end)
			}
		}
	}
	for _, n := range e.m.nodes {
		for _, ch := range n.out {
			if ch == nil {
				continue
			}
			ch.OnSend = hooks[n.sh.id]
		}
	}
}
