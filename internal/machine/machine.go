// Package machine assembles Anton 3 nodes into a full machine on the 3D
// torus and provides the measurement harnesses the paper's evaluation
// sections use: the ping-pong latency test (Section III-C), the network
// fence barrier (Section V-F), and the MD timestep pipeline engine
// (Section VI-A).
package machine

import (
	"fmt"

	"anton3/internal/chip"
	"anton3/internal/fault"
	"anton3/internal/mem"
	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
	"anton3/internal/trace"
)

// Config describes one machine.
type Config struct {
	Shape    topo.Shape
	ClockMHz int64
	Lat      chip.Latencies
	Compress serdes.CompressConfig
	Seed     uint64
	// Policy selects the request routing policy (order selection and
	// per-hop output choice). nil means route.Random(), the
	// paper's randomized minimal oblivious routing; route.XYZ() is the
	// fixed-order routing ablation, route.MinimalAdaptive() the
	// load-adaptive alternative the paper argues against.
	Policy route.Policy
	// Shards partitions the machine's nodes into that many contiguous
	// shards, each with its own kernel, packet pool and rng, driven
	// concurrently by a conservative-lookahead window loop (Machine.Run).
	// The lookahead is Lat.ChannelFixed — the latency floor every
	// inter-node packet pays — so cross-shard arrivals can always be
	// merged at a window barrier. 0 or 1 means the classic single-kernel
	// machine; values above the node count are clamped.
	Shards int
	// Faults, when non-nil and non-empty, is the deterministic link-fault
	// plan applied to this machine (see internal/fault and fault.go):
	// degraded channels from reset, dead channels, and faults scheduled to
	// trip at a simulated timestamp. Dead-link faults require VCQueueFlits
	// > 0 — without credit flow control there is no backpressure to park
	// traffic off a dead channel. New panics on a plan that fails
	// fault.Plan.Validate against Shape; CLI layers should pre-validate
	// for a clean error.
	Faults *fault.Plan
	// VCQueueFlits, when positive, enables bounded per-VC ingress queues
	// with credit-based flow control at every node (see vcq.go): each
	// inbound channel gets one FIFO of this depth (in flits) per virtual
	// channel, senders hold matching credit counters, and packets that
	// cannot get credits park — making VC choice and head-of-line blocking
	// performance-visible. 0 (the default) keeps the historical
	// infinite-buffer channel model, byte-identical to earlier trees.
	// Credits return over the reverse wire at Lat.ChannelFixed, the same
	// lookahead floor the sharded executive relies on.
	VCQueueFlits int
}

// DefaultConfig returns the production configuration for a given torus
// shape: 2.8 GHz clock, calibrated latencies, compression on.
func DefaultConfig(shape topo.Shape) Config {
	return Config{
		Shape:    shape,
		ClockMHz: 2800,
		Lat:      chip.DefaultLatencies(),
		Compress: serdes.CompressConfig{INZ: true, Pcache: true},
		Seed:     1,
	}
}

// mshard is one shard's execution context: a kernel, a packet free list
// and an rng of its own, so shard goroutines share no mutable state while
// a window executes. Node indices [lo, hi) belong to this shard.
type mshard struct {
	id     int
	k      *sim.Kernel
	pool   packet.Pool
	rng    *sim.Rand
	pktID  uint64
	lo, hi int

	// creds is the shard's credit-message free list (per-VC flow control);
	// curHist is the lineage chain of the event this shard is currently
	// executing, the chain credit returns scheduled inside it inherit.
	creds   []*creditMsg
	curHist []sim.Time

	// tele and trec are this shard's telemetry accumulator block and
	// packet-lifecycle trace recorder; nil (the default) keeps every
	// observability touch point a single predictable branch.
	tele *telemetry.Shard
	trec *trace.Recorder
}

// nextPktID hands out this shard's packet IDs.
func (sh *mshard) nextPktID() uint64 {
	sh.pktID++
	return sh.pktID
}

// Machine is a simulated Anton 3 machine.
//
// The machine picks its own same-timestamp tie order. A sharded machine
// has no global schedule sequence, so its kernels break ties by event
// lineage (sim.Lineaged), which reproduces the single-shard schedule order
// from event content alone. A machine with per-VC queues runs lineage at
// every shard count, one included: a credit arrival revives parked packets
// from a foreign event, so a revived packet's lineage rank (its own
// history) differs from its schedule position, and a single shard in
// schedule order would not match the sharded runs. A single-shard machine
// with unbounded buffers keeps plain schedule order and no histories.
type Machine struct {
	cfg Config
	// K is shard 0's kernel — for single-shard machines (the default),
	// simply the machine's kernel, as it has always been. Harness code
	// that targets a specific node of a sharded machine uses NodeKernel.
	K        *sim.Kernel
	Clock    sim.Clock
	Geom     *chip.Geometry
	nodes    []*Node
	shards   []*mshard
	exec     *sim.ParallelExec // nil for single-shard machines
	lineage  bool              // sharded or per-VC queues: lineage tie order and histories
	policy   route.Policy
	adaptive bool               // policy.Adaptive(), cached for the per-hop path
	credEcho bool               // policy wants the credit-lookahead load view
	vcqFlits int                // Config.VCQueueFlits, cached for the per-hop path
	specs    []chip.ChannelSpec // the shape's channel specs, in dense-index order

	// Flat hot-path tables (structure-of-arrays over the dense node index x
	// dense channel-spec index): neigh holds each hop's destination node
	// index, cross whether the hop traverses the dimension's wraparound
	// link (the dateline VC rule), and chanBank the channel objects
	// themselves in one contiguous array — Node.out points into it. oppIdx
	// maps a spec index to its receiver-side (opposite-direction) index.
	neigh    []int32
	cross    []bool
	chanBank []serdes.Channel
	oppIdx   [chip.NumChannelSpecs]int8

	// Precomputed queuing-free geometry latencies, so the per-hop walk does
	// no cycle arithmetic: injLat/ejLat by (chip tile index x spec),
	// transLat by (inbound spec x outbound spec, same-side pairs only).
	injLat   []sim.Time
	ejLat    []sim.Time
	transLat [chip.NumChannelSpecs][chip.NumChannelSpecs]sim.Time

	// vcq is the machine-level per-VC flow-control state (nil unless
	// Config.VCQueueFlits > 0): credit counters, queue occupancies and
	// FIFOs for every (node, channel, VC), in flat arrays.
	vcq *vcqState

	// Fault-injection state (nil/empty unless Config.Faults is active —
	// m.faulty caches that for the per-hop path): deadCh flags dead
	// outbound channels by (node x spec), trips are the prebuilt scheduled
	// faults re-armed at every Reset, scratch is the reusable drain buffer
	// of rerouteParked.
	faulty  bool
	deadCh  []bool
	trips   []*faultTrip
	scratch []*packet.Packet

	// tele and ptrace are the flag-gated observability layer (see
	// telemetry.go); both nil by default.
	tele   *telemetry.Collector
	ptrace *packetTrace

	// pool aliases shard 0's — the single-shard engines (timestep, GC
	// endpoint ops) use it directly after requireSingleShard.
	pool *packet.Pool

	// fenceBusy marks the fence IDs in flight (StartFence to FinishFence).
	fenceBusy [maxFences]bool
}

// Node is one ASIC plus its outbound channel slices. The channel, SRAM and
// fence tables are dense arrays — indexed by chip.ChannelSpec.Index, GC
// index and fence ID respectively — so the per-packet path never touches a
// map.
type Node struct {
	m      *Machine
	sh     *mshard // the shard that owns this node's events
	Coord  topo.Coord
	idx    int32                                 // dense node index (topo.Shape.Index of Coord)
	out    [chip.NumChannelSpecs]*serdes.Channel // nil where the shape has no channel
	srams  []*mem.SRAM                           // per GC index; entries allocated lazily
	fences [maxFences]*fenceOp
	views  [chip.Slices]nodeLoadView
	// vcqViews are the per-slice credit-lookahead load views handed to
	// credit-steered policies; nil unless Config.VCQueueFlits > 0 (the
	// flow-control state itself lives in the machine's flat vcq arrays).
	vcqViews *[chip.Slices]creditLoadView
	// healths are the per-slice link-health views handed to fault-aware
	// routing; nil unless the machine has an active fault plan.
	healths *[chip.Slices]healthView
}

// shardSeed derives shard s's rng seed. Shard 0 uses the configured seed
// unchanged, so a single-shard machine's stream is exactly the historical
// machine rng. The tag constant domain-separates these streams from other
// seed-derivation schemes in the tree (the synth harness's per-node
// schedule rngs use seed ^ (i+1)*goldenGamma), so a shard's routing draws
// can never replay another component's stream.
func shardSeed(seed uint64, s int) uint64 {
	if s == 0 {
		return seed
	}
	return seed ^ 0x6d736861726400a5 ^ uint64(s)*0x9e3779b97f4a7c15
}

// New builds a machine; all nodes and channels are wired immediately, GC
// SRAMs lazily.
func New(cfg Config) *Machine {
	if !cfg.Shape.Valid() {
		panic(fmt.Sprintf("machine: invalid shape %v", cfg.Shape))
	}
	nNodes := cfg.Shape.Nodes()
	P := cfg.Shards
	if P < 1 {
		P = 1
	}
	if P > nNodes {
		P = nNodes
	}
	m := &Machine{
		cfg:    cfg,
		Clock:  sim.NewClock(cfg.ClockMHz),
		policy: cfg.Policy,
	}
	if m.policy == nil {
		m.policy = route.Random()
	}
	m.adaptive = m.policy.Adaptive()
	m.vcqFlits = cfg.VCQueueFlits
	if m.vcqFlits > 0 && m.vcqFlits < packet.MaxFlitsPerPkt {
		panic(fmt.Sprintf("machine: VCQueueFlits %d cannot hold a %d-flit packet", m.vcqFlits, packet.MaxFlitsPerPkt))
	}
	_, m.credEcho = m.policy.(route.CreditSteered)
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(cfg.Shape); err != nil {
			panic("machine: " + err.Error())
		}
		if cfg.Faults.HasDead() && m.vcqFlits <= 0 {
			panic("machine: dead-link faults need per-VC flow control (Config.VCQueueFlits > 0)")
		}
		m.faulty = true
	}
	m.Geom = chip.New(m.Clock, cfg.Lat)
	m.specs = chip.AllChannelSpecs(cfg.Shape)

	m.shards = make([]*mshard, P)
	for s := range m.shards {
		m.shards[s] = &mshard{
			id:  s,
			k:   sim.NewKernel(),
			rng: sim.NewRand(shardSeed(cfg.Seed, s)),
			lo:  s * nNodes / P,
			hi:  (s + 1) * nNodes / P,
		}
	}
	m.K = m.shards[0].k
	m.pool = &m.shards[0].pool
	m.lineage = P > 1 || m.vcqFlits > 0
	if P > 1 {
		if cfg.Lat.ChannelFixed < 1 {
			panic("machine: sharding requires a positive channel FixedLatency (the lookahead)")
		}
		ks := make([]*sim.Kernel, P)
		for s, sh := range m.shards {
			ks[s] = sh.k
		}
		m.exec = sim.NewParallelExec(ks, cfg.Lat.ChannelFixed)
	}

	gcs := m.Geom.GCs()
	chCfg := serdes.ChannelConfig{
		Lanes:        chip.LanesPerSlice,
		GbpsLane:     topo.SerdesGbps,
		FixedLatency: cfg.Lat.ChannelFixed,
		Compress:     cfg.Compress,
	}
	m.nodes = make([]*Node, nNodes)
	m.chanBank = make([]serdes.Channel, nNodes*chip.NumChannelSpecs)
	m.neigh = make([]int32, nNodes*chip.NumChannelSpecs)
	m.cross = make([]bool, nNodes*chip.NumChannelSpecs)
	for j := range m.oppIdx {
		m.oppIdx[j] = int8(chip.ChannelSpecAt(j).Opposite().Index())
	}
	if m.vcqFlits > 0 {
		m.vcq = newVCQState(nNodes)
	}
	shard := 0
	for i := range m.nodes {
		for m.shards[shard].hi <= i {
			shard++
		}
		n := &Node{
			m:     m,
			sh:    m.shards[shard],
			Coord: cfg.Shape.CoordOf(i),
			idx:   int32(i),
			srams: make([]*mem.SRAM, gcs),
		}
		for _, cs := range m.specs {
			j := cs.Index()
			ch := &m.chanBank[i*chip.NumChannelSpecs+j]
			ch.Init(n.sh.k, chCfg)
			n.out[j] = ch
			nb := cfg.Shape.Neighbor(n.Coord, cs.Dim, cs.Dir)
			m.neigh[i*chip.NumChannelSpecs+j] = int32(cfg.Shape.Index(nb))
			m.cross[i*chip.NumChannelSpecs+j] =
				(cs.Dir > 0 && nb.Get(cs.Dim) < n.Coord.Get(cs.Dim)) ||
					(cs.Dir < 0 && nb.Get(cs.Dim) > n.Coord.Get(cs.Dim))
		}
		for sl := range n.views {
			n.views[sl] = nodeLoadView{n: n, slice: sl}
		}
		if m.vcqFlits > 0 {
			n.vcqViews = new([chip.Slices]creditLoadView)
			for sl := range n.vcqViews {
				n.vcqViews[sl] = creditLoadView{n: n, slice: sl}
			}
			n.resetVCQ(m.vcqFlits)
		}
		if m.faulty {
			n.healths = new([chip.Slices]healthView)
			for sl := range n.healths {
				n.healths[sl] = healthView{n: n, slice: sl}
			}
		}
		m.nodes[i] = n
	}
	m.buildLatencyTables()
	// Channels whose far end lives on another shard defer arrivals to the
	// executive's outboxes; everything else schedules locally.
	if m.exec != nil {
		for _, n := range m.nodes {
			for _, cs := range m.specs {
				nb := m.Node(cfg.Shape.Neighbor(n.Coord, cs.Dim, cs.Dir))
				if nb.sh != n.sh {
					n.out[cs.Index()].SetRemote(m.exec.Outbox(n.sh.id, nb.sh.id))
				}
			}
		}
	}
	if m.faulty {
		m.deadCh = make([]bool, nNodes*chip.NumChannelSpecs)
		for _, f := range cfg.Faults.Links {
			if f.TripAt <= 0 {
				continue
			}
			n := m.Node(f.Node)
			t := &faultTrip{
				m: m, n: n, eff: f.Effect, at: f.TripAt,
				inj:  faultInjBase + uint64(len(m.trips)),
				hist: make([]sim.Time, 0, packet.HistCap),
			}
			for _, j := range faultSpecIndices(f) {
				if j >= 0 {
					t.specs = append(t.specs, int8(j))
				}
			}
			m.trips = append(m.trips, t)
		}
		m.applyFaults()
	}
	return m
}

// buildLatencyTables precomputes the queuing-free geometry latencies the
// per-hop walk needs, so steady-state packet stepping reads a table entry
// instead of redoing tile/edge-row cycle math: inject and eject per (chip
// tile, channel spec), transit per same-side (inbound, outbound) spec pair.
func (m *Machine) buildLatencyTables() {
	tiles := m.Geom.Shape.Tiles()
	m.injLat = make([]sim.Time, tiles*chip.NumChannelSpecs)
	m.ejLat = make([]sim.Time, tiles*chip.NumChannelSpecs)
	for t := 0; t < tiles; t++ {
		core := packet.CoreID{Tile: m.Geom.Shape.CoordOf(t)}
		for j := 0; j < chip.NumChannelSpecs; j++ {
			cs := chip.ChannelSpecAt(j)
			m.injLat[t*chip.NumChannelSpecs+j] = m.Geom.InjectLatency(core, cs)
			m.ejLat[t*chip.NumChannelSpecs+j] = m.Geom.EjectLatency(cs, core)
		}
	}
	for in := 0; in < chip.NumChannelSpecs; in++ {
		for out := 0; out < chip.NumChannelSpecs; out++ {
			a, b := chip.ChannelSpecAt(in), chip.ChannelSpecAt(out)
			if a.Side() == b.Side() {
				m.transLat[in][out] = m.Geom.TransitLatency(a, b)
			}
		}
	}
}

// tileIdx is the dense chip-tile index of a core, the row key of the
// inject/eject latency tables.
func (m *Machine) tileIdx(c packet.CoreID) int { return m.Geom.Shape.Index(c.Tile) }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Shape returns the torus shape.
func (m *Machine) Shape() topo.Shape { return m.cfg.Shape }

// Node returns the node at c.
func (m *Machine) Node(c topo.Coord) *Node {
	return m.nodes[m.cfg.Shape.Index(c)]
}

// Nodes iterates over all nodes.
func (m *Machine) Nodes() []*Node { return m.nodes }

// NumShards reports how many kernel shards drive the machine (1 unless
// Config.Shards asked for more).
func (m *Machine) NumShards() int { return len(m.shards) }

// ShardOf reports which shard owns the node at c.
func (m *Machine) ShardOf(c topo.Coord) int { return m.Node(c).sh.id }

// NodeKernel returns the kernel that executes events at the node at c —
// the machine's one kernel on single-shard machines. Harnesses schedule
// per-node setup events (traffic injections) here.
func (m *Machine) NodeKernel(c topo.Coord) *sim.Kernel { return m.Node(c).sh.k }

// ShardKernel returns shard s's kernel (shard 0 is the machine's one
// kernel on single-shard machines). Harnesses that bulk-stage setup events
// via Kernel.StageActor seal every shard's staged lane through this.
func (m *Machine) ShardKernel(s int) *sim.Kernel { return m.shards[s].k }

// nextPktID hands out packet IDs for single-shard engine paths.
func (m *Machine) nextPktID() uint64 { return m.shards[0].nextPktID() }

// NewPacket returns a zeroed packet from the machine's free list (shard
// 0's, on a sharded machine). Packets sent through Send (or the fence
// engine) are recycled automatically after delivery; harness code that
// injects steady-state traffic should obtain packets here so the hot path
// allocates nothing.
func (m *Machine) NewPacket() *packet.Packet { return m.pool.Get() }

// NewPacketAt is NewPacket from the free list of the shard owning node c.
// Code running inside an event at node c (an injection actor, a delivery
// callback) must use it so pools are never touched across shards.
func (m *Machine) NewPacketAt(c topo.Coord) *packet.Packet { return m.Node(c).sh.pool.Get() }

// DrawRoute consumes one request routing decision — the dimension order
// and the even-ring direction tie — from the machine's injection rng,
// exactly as Send draws for a request packet. Harnesses that pre-route
// packets (packet.Packet.PreRouted) call it once per packet in the order a
// sequential run's injections would fire, which keeps the stream — and
// therefore every route — byte-identical to the non-pre-routed run at any
// shard count.
func (m *Machine) DrawRoute() (topo.DimOrder, bool) {
	o := m.policy.Order(m.shards[0].rng)
	return o, m.shards[0].rng.Intn(2) == 0
}

// Run executes the machine to completion: the kernel's event loop on a
// single-shard machine, the conservative-lookahead window loop across all
// shard kernels otherwise. Events scheduled before Run are setup events; on
// a lineage machine every shard kernel switches to lineage tie order here.
// It returns the timestamp of the last executed event.
func (m *Machine) Run() sim.Time {
	if m.lineage {
		for _, sh := range m.shards {
			sh.k.BeginLineageOrder()
		}
	}
	if m.exec != nil {
		return m.exec.Run()
	}
	return m.shards[0].k.Run()
}

// Reset returns the machine to its just-built state on the same topology
// with a new seed: kernels, channels, rngs, packet IDs, SRAMs and fence
// state all start fresh, while the event pools, packet free lists and
// channel objects keep their capacity. A reset machine produces output
// byte-identical to a newly built Machine with the same Config and seed —
// the property the netsweep harness's machine reuse rests on.
func (m *Machine) Reset(seed uint64) {
	m.cfg.Seed = seed
	for s, sh := range m.shards {
		sh.k.Reset()
		sh.pktID = 0
		sh.rng.Reseed(shardSeed(seed, s))
		sh.curHist = nil
	}
	for _, n := range m.nodes {
		for _, ch := range n.out {
			if ch != nil {
				ch.Reset()
			}
		}
		for i := range n.srams {
			n.srams[i] = nil
		}
		for i := range n.fences {
			n.fences[i] = nil
		}
		n.resetVCQ(m.vcqFlits)
	}
	m.fenceBusy = [maxFences]bool{}
	if m.tele != nil {
		m.tele.Reset()
	}
	// Channels and credit counters are healthy again: re-apply static
	// faults and re-arm the scheduled trips on the fresh kernels.
	m.applyFaults()
	m.rebalanceFreeLists()
}

// rebalanceFreeLists evens the per-shard packet pools and credit-message
// free lists. Packets and credits recycle into the free list of the shard
// that fired them, so cross-shard traffic makes the lists drift run over
// run; left alone the drift compounds until some shard's Get allocates
// every run while another hoards idle capacity. Reset levels them so a
// reused sharded machine stays allocation-free in steady state.
func (m *Machine) rebalanceFreeLists() {
	ns := len(m.shards)
	if ns < 2 {
		return
	}
	total := 0
	for _, sh := range m.shards {
		total += sh.pool.Size()
	}
	target := total / ns
	d := 0
	for _, src := range m.shards {
		for src.pool.Size() > target {
			for d < ns && m.shards[d].pool.Size() >= target {
				d++
			}
			if d == ns {
				break
			}
			dst := m.shards[d]
			src.pool.MoveTo(&dst.pool, min(src.pool.Size()-target, target-dst.pool.Size()))
		}
		if d == ns {
			break
		}
	}
	total = 0
	for _, sh := range m.shards {
		total += len(sh.creds)
	}
	target = total / ns
	d = 0
	for _, src := range m.shards {
		for len(src.creds) > target {
			for d < ns && len(m.shards[d].creds) >= target {
				d++
			}
			if d == ns {
				return
			}
			dst := m.shards[d]
			for len(src.creds) > target && len(dst.creds) < target {
				i := len(src.creds) - 1
				dst.creds = append(dst.creds, src.creds[i])
				src.creds[i] = nil
				src.creds = src.creds[:i]
			}
		}
	}
}

// requireSingleShard guards engines whose coordination state (shared
// closures, a single rng, cross-node callbacks) has no sharded form yet.
func (m *Machine) requireSingleShard(what string) {
	if len(m.shards) > 1 {
		panic(fmt.Sprintf("machine: %s requires a single-shard machine (Config.Shards = 1)", what))
	}
}

// Channel returns the outbound channel slice on node c for spec cs
// (diagnostics and traffic accounting); nil if the shape has no such
// channel.
func (n *Node) Channel(cs chip.ChannelSpec) *serdes.Channel { return n.out[cs.Index()] }

// ChannelSpecs lists this node's outbound channel specs in dense-index
// order. The returned slice is shared; callers must not mutate it.
func (n *Node) ChannelSpecs() []chip.ChannelSpec { return n.m.specs }

// sram returns (allocating if needed) the SRAM block of one GC.
func (n *Node) sram(core packet.CoreID) *mem.SRAM {
	idx := n.m.Geom.IndexOfCore(core)
	s := n.srams[idx]
	if s == nil {
		s = mem.NewSRAM(mem.QuadsPerBlock)
		n.srams[idx] = s
	}
	return s
}

// nodeLoadView reports, to an adaptive policy deciding at node n, the
// serialization backlog (in picoseconds) of each outbound channel on one
// slice. This is the full-machine analog of router credit occupancy: a
// channel whose busy horizon runs far past now is a channel whose
// downstream credits would be exhausted. Each node owns one instance per
// slice, so handing a view to a routing decision allocates nothing. All
// state read is owned by the node's shard, so the view is safe during
// sharded windows.
type nodeLoadView struct {
	n     *Node
	slice int
}

// Load implements route.LoadView over the dense channel table.
func (v *nodeLoadView) Load(dim topo.Dim, dir int) int64 {
	cs := chip.ChannelSpec{Dim: dim, Dir: dir, Slice: v.slice}
	backlog := v.n.out[cs.Index()].Busy() - v.n.sh.k.Now()
	if backlog < 0 {
		return 0
	}
	return int64(backlog)
}

// TotalWireStats sums compression statistics over every channel in the
// machine (the Figure 9a quantity).
func (m *Machine) TotalWireStats() serdes.Stats {
	var total serdes.Stats
	for _, n := range m.nodes {
		for _, ch := range n.out {
			if ch == nil {
				continue
			}
			total.Add(ch.Compressor().Stats())
		}
	}
	return total
}

// CheckChannelSync asserts every channel's particle cache pair is in sync;
// it returns an error naming the first failure.
func (m *Machine) CheckChannelSync() error {
	for _, n := range m.nodes {
		for i, ch := range n.out {
			if ch != nil && !ch.Compressor().InSync() {
				return fmt.Errorf("machine: node %v channel %v desynchronized", n.Coord, chip.ChannelSpecAt(i))
			}
		}
	}
	return nil
}
