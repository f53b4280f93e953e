// Package flow is the closed-loop network-evaluation subsystem: the
// classic interconnect saturation methodology (offered vs. accepted
// throughput under endpoint backpressure, with a located saturation knee)
// applied to the Anton 3 torus. It complements internal/synth's open-loop
// netsweep rig: where netsweep times a fixed packet set, flow runs the
// machine with bounded per-VC ingress queues (machine.Config.VCQueueFlits)
// and finite source injection windows, so the network can refuse traffic —
// and the refusal, not just the latency, is the measurement.
//
// Every random choice is pre-drawn from the cell seed through
// synth.Schedule (packet.PreRouted), and all runtime actors carry lineage,
// so a sweep is byte-identical across worker counts, machine reuse, and
// kernel shard counts — the same guarantee netsweep has.
package flow

import (
	"math"
	"sort"

	"anton3/internal/fault"
	"anton3/internal/machine"
	"anton3/internal/packet"
	"anton3/internal/resultstore"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/synth"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
	"anton3/internal/trace"
)

// Defaults for the closed-loop rig. The per-VC ingress queue is sized to
// the channel's bandwidth-delay product, not the router's 8-flit input
// queues: a credit loop spans serialization plus two wire flights
// (~2 x 26.9 ns), and a queue shallower than wire-rate x loop time would
// throttle every VC far below channel capacity — the Channel Adapter "has
// enough buffering that the channel itself is the backpressure point"
// (Section V-C), and 64 flits is that much buffering with a small margin.
// The injection window is 8 packets per source.
const (
	DefaultQueueFlits = 64
	DefaultInjDepth   = 8
)

// Point is the closed-loop measurement at one nominal offered load.
//
// Offered is the realized offered rate: the traffic the sources *wanted*
// to inject, in the netsweep load unit (192-bit reference packets per
// channel-slice serialization interval per node), measured over the
// pre-drawn schedule horizon. Accepted is what the network actually took:
// the same unit over the horizon of real network entries. Below
// saturation the two are equal; past it, sources stall on refused credits
// and Accepted plateaus at the network's capacity. Latency is measured
// from the intended injection instant, so source-queue waiting time counts
// — the classic closed-loop latency that diverges at saturation.
//
// Undelivered is a safety net: nonzero only if the run wedged (packets
// left parked with no credits ever coming). The machine's escape VC pair
// makes that structurally impossible — mixed per-packet dimension orders
// would otherwise close buffer cycles under bounded queues — so a nonzero
// value indicates a flow-control regression; the property tests pin it at
// zero and a wedged point counts as saturated.
type Point struct {
	Load        float64 `json:"load"`
	Offered     float64 `json:"offered"`
	Accepted    float64 `json:"accepted"`
	AvgNs       float64 `json:"avg_ns"`
	P99Ns       float64 `json:"p99_ns"`
	Undelivered int     `json:"undelivered,omitempty"`
}

// Ratio is the accepted/offered fraction, the saturation detector's input.
func (p Point) Ratio() float64 { return p.Accepted / p.Offered }

// Harness runs closed-loop measurements on one long-lived machine: one
// (shape, policy, shard count) triple serves any number of (pattern, load,
// seed) points via RunPoint, allocation-free in steady state like the
// netsweep harness.
type Harness struct {
	m     *machine.Machine
	shape topo.Shape
	core  packet.CoreID
	base  sim.Time // serialization time of the reference packet (load unit)
	injQ  int      // injection-window depth per source, in packets

	total  int
	warmup int
	sched  synth.Schedule

	emits []emitter
	srcs  []source

	// Per-shard measurement state: network entries happen on the source
	// node's shard, deliveries on the destination node's shard; each shard
	// writes its own accumulators and the point statistics reduce them with
	// order-insensitive operations (sum, max, sort).
	sinks     []sink
	lats      [][]float64
	delivered []int64
	entered   []int64
	lastEntry []sim.Time
	all       []float64

	// PointsRun counts the points this harness actually simulated over
	// its lifetime — cache hits are excluded — so the knee-search and
	// warm-cache tests can pin probe budgets.
	PointsRun int

	// Cache, when non-nil, memoizes every RunPoint result in the store,
	// content-addressed by (shape, policy, pattern, queue depths, load,
	// per-node budgets, seed) — see resultstore.KeyFor. A hit returns
	// the recorded Point without touching the machine; results are
	// bit-identical either way because a point is a pure function of
	// that key (the shard count deliberately stays out of it — the
	// machine's shard-invariance guarantee makes results shared across
	// shard counts). Set it right after NewHarness, before any point
	// runs.
	Cache *resultstore.Store

	// keyCfg carries the harness-constant part of the cache key.
	keyCfg pointKeyCfg

	// faultCanon is the canonical fault-plan string of a fault harness
	// (empty on healthy ones). When set, cache keys switch to the
	// fault-carrying key config so faulted results can never collide with
	// healthy ones — and healthy harnesses keep their PR 8 keys untouched.
	faultCanon string

	// Telemetry state (EnableMetrics): metrics gates the layer, telAgg
	// accumulates every point's merged telemetry block over the harness's
	// lifetime (cache replays included — a hit merges the recorded
	// block), ptTel holds the most recent point's block, and lastEnd the
	// most recent run's final event timestamp (the heatmap's busy-time
	// normalizer). All value types: zero per-point allocations.
	metrics bool
	telAgg  telemetry.Shard
	ptTel   telemetry.Shard
	lastEnd sim.Time
}

// telPoint is the cache record of a metrics-enabled point: the Point
// plus the run's merged telemetry block, stored under the "+tel" key
// kind so metrics-off replays never see (or miss on) telemetry data.
type telPoint struct {
	P   Point           `json:"p"`
	Tel telemetry.Shard `json:"tel"`
}

// pointKeyCfg is the full configuration a closed-loop point depends on
// besides its seed; it becomes the canonical cache-key config.
type pointKeyCfg struct {
	Shape      string
	Policy     string
	Pattern    string
	QueueFlits int
	InjDepth   int
	Load       float64
	Packets    int
	Warmup     int
}

// faultPointKeyCfg is pointKeyCfg plus the canonical fault plan. It is a
// separate struct — used only when a plan is active — so healthy points
// hash exactly the field set they always did (resultstore hashes field
// names and values, not the struct type), keeping every pre-fault cache
// key byte-identical, while any one-link or one-trip-time difference in a
// plan lands in Faults and produces a distinct key.
type faultPointKeyCfg struct {
	Shape      string
	Policy     string
	Pattern    string
	QueueFlits int
	InjDepth   int
	Load       float64
	Packets    int
	Warmup     int
	Faults     string
}

// NewHarness builds the closed-loop measurement machine: compression off
// (network-only timing), per-VC ingress queues of queueFlits flits,
// injection windows of injDepth packets, sharded across the given kernel
// count (0 or 1 = sequential). queueFlits and injDepth of 0 take the
// package defaults.
func NewHarness(shape topo.Shape, policy route.Policy, shards, queueFlits, injDepth int) *Harness {
	return NewFaultHarness(shape, policy, shards, queueFlits, injDepth, nil)
}

// NewFaultHarness is NewHarness with a link-fault plan applied to the
// machine (nil or empty = healthy, identical to NewHarness). The load unit
// (h.base) is always the healthy serialization time — serdes degradation
// applies inside transmit, not SerializeTime — so offered loads on a
// degraded network mean the same thing they mean on a healthy one, and
// knee shifts are measured in a fixed unit.
func NewFaultHarness(shape topo.Shape, policy route.Policy, shards, queueFlits, injDepth int, plan *fault.Plan) *Harness {
	if queueFlits <= 0 {
		queueFlits = DefaultQueueFlits
	}
	if injDepth <= 0 {
		injDepth = DefaultInjDepth
	}
	mcfg := machine.DefaultConfig(shape)
	mcfg.Compress = serdes.CompressConfig{} // raw wire timing
	mcfg.Policy = policy
	mcfg.Shards = shards
	mcfg.VCQueueFlits = queueFlits
	if !plan.Empty() {
		mcfg.Faults = plan
	}
	m := machine.New(mcfg)
	refCh := m.Node(shape.CoordOf(0)).ChannelSpecs()[0]
	h := &Harness{
		m:     m,
		shape: shape,
		core:  m.GC(shape.CoordOf(0), 0).ID,
		base:  m.Node(shape.CoordOf(0)).Channel(refCh).SerializeTime(synth.RefPacketBits),
		injQ:  injDepth,
		keyCfg: pointKeyCfg{
			Shape:      shape.String(),
			Policy:     policy.Name(),
			QueueFlits: queueFlits,
			InjDepth:   injDepth,
		},
	}
	if !plan.Empty() {
		h.faultCanon = plan.Canon()
	}
	P := m.NumShards()
	h.sinks = make([]sink, P)
	h.lats = make([][]float64, P)
	h.delivered = make([]int64, P)
	h.entered = make([]int64, P)
	h.lastEntry = make([]sim.Time, P)
	for s := range h.sinks {
		h.sinks[s] = sink{h: h, shard: int32(s)}
	}
	return h
}

// EnableMetrics arms the telemetry layer for every subsequent point:
// the machine gets per-shard counter/histogram blocks, and each point's
// merged block lands in the harness accumulator (Telemetry). Call right
// after NewHarness; metrics-on points cache under a distinct key kind.
func (h *Harness) EnableMetrics() {
	h.metrics = true
	h.m.EnableTelemetry()
}

// AttachTrace arms packet-lifecycle tracing on the harness machine with
// the given track prefix (DrainTrace collects the spans).
func (h *Harness) AttachTrace(prefix string) { h.m.AttachPacketTrace(prefix) }

// DrainTrace moves all recorded packet-lifecycle spans into dst.
func (h *Harness) DrainTrace(dst *trace.Recorder) { h.m.DrainPacketTrace(dst) }

// Telemetry returns the harness-lifetime accumulated telemetry block
// (zero-valued unless EnableMetrics was called).
func (h *Harness) Telemetry() *telemetry.Shard { return &h.telAgg }

// QueueFlits reports the machine's per-VC ingress queue depth.
func (h *Harness) QueueFlits() int { return h.m.Config().VCQueueFlits }

// InjDepth reports the per-source injection-window depth.
func (h *Harness) InjDepth() int { return h.injQ }

// source is one node's closed-loop traffic generator. Its injection window
// holds at most injQ packets that the network has refused (parked at their
// first-hop channel for lack of credits); when the window is full, the
// offered process backs up into backlog and drains — in schedule order —
// as acceptances free slots.
type source struct {
	h       *Harness
	node    int32
	shard   int32
	parked  int32 // packets currently refused by the network
	backlog int32 // offered instants that found the window full
	sent    int32 // packets emitted so far (next flat = node*total + sent)
}

// Accepted frees an injection-window slot (packet.Accepter): the parked
// packet started injecting. Backlogged offered instants drain while the
// window has room.
func (s *source) Accepted(p *packet.Packet) {
	h := s.h
	h.noteEntry(int(s.shard), h.m.NodeKernel(p.SrcNode).Now())
	s.parked--
	for s.backlog > 0 && int(s.parked) < h.injQ {
		s.backlog--
		h.emit(s)
	}
}

// emitter fires one offered instant of one node's schedule: a
// setup-scheduled sim.Actor (one per node, scheduled once per instant), so
// the closed-loop steady state carries no closures and the emission events
// keep global setup order — the property the shard-invariance of the rig
// rests on.
type emitter struct {
	h    *Harness
	node int32
}

// Act offers the node's next packet to its source.
func (e *emitter) Act() {
	s := &e.h.srcs[e.node]
	if int(s.parked) >= e.h.injQ || s.backlog > 0 {
		s.backlog++
		return
	}
	e.h.emit(s)
}

// emit builds and sends the source's next scheduled packet. A packet the
// network accepts immediately is a network entry now; a refused one parks
// (packet.WalkParked) and enters when its Accepted callback fires.
func (h *Harness) emit(s *source) {
	p := h.sched.Packet(h.m, h.shape, h.core, int(s.node)*h.total+int(s.sent))
	s.sent++
	p.OnAccept = s
	src := p.SrcNode
	h.m.Send(p, &h.sinks[h.m.ShardOf(p.DstNode)])
	if p.State == packet.WalkParked {
		s.parked++
	} else {
		h.noteEntry(int(s.shard), h.m.NodeKernel(src).Now())
	}
}

// noteEntry records one network entry on a shard's accumulators.
func (h *Harness) noteEntry(shard int, now sim.Time) {
	h.entered[shard]++
	if now > h.lastEntry[shard] {
		h.lastEntry[shard] = now
	}
}

// sink records deliveries landing on one shard (packet.Deliverer).
type sink struct {
	h     *Harness
	shard int32
}

// Deliver records one delivered packet; latency runs from the packet's
// intended injection instant, so source stalling is charged to it.
func (s *sink) Deliver(p *packet.Packet) {
	h := s.h
	h.delivered[s.shard]++
	flat := int(p.AtomID)
	if flat%h.total < h.warmup {
		return
	}
	now := h.m.NodeKernel(p.DstNode).Now()
	h.lats[s.shard] = append(h.lats[s.shard], (now - h.sched.Times[flat]).Nanoseconds())
}

// RunPoint offers Pattern traffic at one nominal load through the
// closed-loop sources and measures what the network accepted. The machine
// is reset to the seed; every random choice derives from the seed alone
// (synth.Schedule pre-draw + packet.PreRouted), so results are byte-stable
// across hosts, worker counts, machine reuse, and shard counts.
//
// packets and warmup are per node at unit load and scale up with the
// offered load, so the offered time horizon is load-independent
// (~packets x the reference serialization interval). Without the scaling,
// high-load runs would finish offering before backpressure could
// propagate — the network's queues would absorb the whole burst and every
// load would read as accepted. With it, a saturated run is always several
// queue-fill times long, which is what lets entry stalling (the accepted
// throughput signal) reach steady state.
func (h *Harness) RunPoint(pat synth.Pattern, load float64, packets, warmup int, seed uint64) Point {
	if load <= 0 || packets <= 0 {
		panic("flow: load and packet count must be positive")
	}
	if h.Cache == nil {
		return h.runPoint(pat, load, packets, warmup, seed)
	}
	cfg := h.keyCfg
	cfg.Pattern = pat.Name
	cfg.Load = load
	cfg.Packets, cfg.Warmup = packets, warmup
	key := h.pointKey(seed, cfg)
	if h.metrics {
		// Metrics-on points store (Point, telemetry block) under the
		// "+tel" kind; a hit replays the block into the accumulator so
		// warm sweeps report identical telemetry.
		var rec telPoint
		if h.Cache.Get(key, &rec) {
			h.ptTel = rec.Tel
			h.telAgg.Merge(&rec.Tel)
			return rec.P
		}
		pt := h.runPoint(pat, load, packets, warmup, seed)
		h.Cache.Put(key, telPoint{P: pt, Tel: h.ptTel})
		return pt
	}
	var pt Point
	if h.Cache.Get(key, &pt) {
		return pt
	}
	pt = h.runPoint(pat, load, packets, warmup, seed)
	h.Cache.Put(key, pt)
	return pt
}

// pointKey builds the cache key for one fully specified point: the plain
// pointKeyCfg on a healthy harness (byte-identical to every key minted
// before fault injection existed), the fault-carrying config otherwise.
func (h *Harness) pointKey(seed uint64, cfg pointKeyCfg) resultstore.Key {
	kind := "flow/point"
	if h.metrics {
		// Metrics-on records carry the telemetry block alongside the
		// Point; a distinct kind keeps the two namespaces disjoint.
		kind = "flow/point+tel"
	}
	if h.faultCanon == "" {
		return resultstore.KeyFor(kind, seed, cfg)
	}
	return resultstore.KeyFor(kind, seed, faultPointKeyCfg{
		Shape:      cfg.Shape,
		Policy:     cfg.Policy,
		Pattern:    cfg.Pattern,
		QueueFlits: cfg.QueueFlits,
		InjDepth:   cfg.InjDepth,
		Load:       cfg.Load,
		Packets:    cfg.Packets,
		Warmup:     cfg.Warmup,
		Faults:     h.faultCanon,
	})
}

// runPoint is the simulation body of RunPoint (cache misses land here).
func (h *Harness) runPoint(pat synth.Pattern, load float64, packets, warmup int, seed uint64) Point {
	h.PointsRun++
	if scale := math.Max(1, load); scale > 1 {
		packets = int(math.Ceil(float64(packets) * scale))
		warmup = int(math.Ceil(float64(warmup) * scale))
	}
	h.m.Reset(seed)
	h.total = warmup + packets
	h.warmup = warmup
	nodes := h.shape.Nodes()
	total := h.total
	for s := range h.lats {
		h.lats[s] = h.lats[s][:0]
		h.delivered[s] = 0
		h.entered[s] = 0
		h.lastEntry[s] = 0
	}

	intendedEnd := h.sched.Draw(h.m, h.shape, pat, float64(h.base)/load, total, seed)

	if cap(h.srcs) < nodes {
		h.srcs = make([]source, nodes)
		h.emits = make([]emitter, nodes)
	}
	h.srcs = h.srcs[:nodes]
	h.emits = h.emits[:nodes]
	for i := 0; i < nodes; i++ {
		h.srcs[i] = source{h: h, node: int32(i), shard: int32(h.m.ShardOf(h.shape.CoordOf(i)))}
		h.emits[i] = emitter{h: h, node: int32(i)}
	}

	// Offer the schedule in node-major (setup sequence) order, each
	// instant on the kernel of the shard owning its source node.
	for i := 0; i < nodes; i++ {
		kern := h.m.NodeKernel(h.shape.CoordOf(i))
		for k := 0; k < total; k++ {
			kern.AtActor(h.sched.Times[i*total+k], &h.emits[i])
		}
	}

	// Lineage ordering at EVERY shard count (including one): credit
	// arrivals revive parked packets from foreign events, where lineage
	// rank and plain schedule order legitimately disagree — so the
	// single-shard run adopts the content-based order too, and all shard
	// counts produce identical bytes.
	h.m.ForceLineageRun()
	h.lastEnd = h.m.Run()

	if c := h.m.Telemetry(); c != nil {
		h.m.CollectChannelBusy()
		h.ptTel = *c.Merged()
		h.telAgg.Merge(&h.ptTel)
	}

	var entered, delivered int64
	var lastEntry sim.Time
	h.all = h.all[:0]
	for s := range h.lats {
		h.all = append(h.all, h.lats[s]...)
		entered += h.entered[s]
		delivered += h.delivered[s]
		if h.lastEntry[s] > lastEntry {
			lastEntry = h.lastEntry[s]
		}
	}

	pt := Point{
		Load: load,
		// Realized offered rate over the schedule horizon; the per-node
		// average, in the netsweep load unit.
		Offered:     float64(total) * float64(h.base) / float64(intendedEnd),
		Undelivered: nodes*total - int(delivered),
	}
	if lastEntry > 0 {
		pt.Accepted = float64(entered) / float64(nodes) * float64(h.base) / float64(lastEntry)
	}
	lats := h.all
	if len(lats) > 0 {
		sort.Float64s(lats)
		var sum float64
		for _, l := range lats {
			sum += l
		}
		pt.AvgNs = sum / float64(len(lats))
		pt.P99Ns = lats[len(lats)*99/100]
	}
	return pt
}
