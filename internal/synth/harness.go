package synth

import (
	"fmt"
	"sort"
	"strings"

	"anton3/internal/machine"
	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
	"anton3/internal/trace"
)

// refPacketBits is the wire size of the standard 24-byte counted-write
// packet (two 96-bit flits), the unit the offered-load normalization is
// expressed in.
const refPacketBits = 192

// Point is the measured outcome at one offered load.
type Point struct {
	Load    float64 `json:"load"`
	AvgNs   float64 `json:"avg_ns"`
	P99Ns   float64 `json:"p99_ns"`
	AvgHops float64 `json:"avg_hops"`
	// TailNs is the drain tail: how long after the last injection the
	// network needed to empty. Below saturation it sits near the
	// unloaded flight latency; past saturation it grows with the backlog
	// the offered load left behind, making it the crispest saturation
	// signal at any window length.
	TailNs float64 `json:"tail_ns"`
}

// Sample is every number one measured point yields (see Measure).
// Offered is the realized offered rate: the traffic the sources wanted to
// inject, in the load unit, over the pre-drawn schedule horizon. Accepted
// is the same unit over the horizon of actual network entries; the two are
// equal unless the network refused packets. Latencies run from each
// packet's intended injection instant, so source stalling counts.
// Undelivered counts packets the run never delivered, End is the last
// event's time, and Tel is the point's telemetry block (zero unless
// EnableMetrics armed the machine).
type Sample struct {
	Load        float64
	Offered     float64
	Accepted    float64
	AvgNs       float64
	P99Ns       float64
	AvgHops     float64
	TailNs      float64
	Undelivered int
	End         sim.Time
	Tel         telemetry.Shard
}

// Harness is the network measurement rig: one long-lived machine — one
// (machine config, injection window) pair — serves any number of
// (pattern, load, seed) points via Measure or RunPoint. Each node offers
// its share of a pre-drawn schedule through a source with an injection
// window; a machine without per-VC queues never refuses a packet, so on it
// the rig is plain open loop, while bounded queues make it closed loop.
// Reusing the machine is what makes a sweep allocation-free in steady
// state — the kernel event pools, packet free lists, schedule and latency
// buffers all persist across points — and a reset machine is
// byte-identical to a fresh one, so reuse never changes a digit of output.
type Harness struct {
	m     *machine.Machine
	shape topo.Shape
	core  packet.CoreID // GC 0, the endpoint every packet uses
	base  sim.Time      // serialization time of refPacketBits (load unit)
	injQ  int           // injection-window depth per source, in packets

	total  int // packets per node including warmup, for the current point
	warmup int

	// sched is the pre-drawn offered process — intended injection instants,
	// destinations, and the machine's pre-drawn routing decisions — for the
	// current point, flat-indexed by node*total+k (see schedule.draw).
	sched schedule
	srcs  []source

	// Per-shard measurement state: network entries happen on the source
	// node's shard, deliveries on the destination node's shard, so each
	// shard writes its own sink and the point statistics reduce them with
	// order-insensitive operations (sum, max, sort).
	sinks []sink
	all   []float64 // merged latencies, reused across points

	// telAgg accumulates telemetry across every point run since the
	// harness was built (zero unless EnableMetrics armed the machine).
	telAgg telemetry.Shard
}

// NewHarness builds the open-loop measurement machine: compression off
// (network-only timing), unbounded buffers, the given routing policy,
// sharded across the given kernel count (0 or 1 = sequential).
func NewHarness(shape topo.Shape, policy route.Policy, shards int) *Harness {
	mcfg := machine.DefaultConfig(shape)
	mcfg.Compress = serdes.CompressConfig{} // raw wire timing
	mcfg.Policy = policy
	mcfg.Shards = shards
	return NewHarnessOn(mcfg, 0)
}

// NewHarnessOn builds the rig on a machine of any configuration, with
// injection windows of injDepth refused packets per source. The load unit
// is the channel's healthy serialization time — link degradation applies
// inside transmit, not SerializeTime — so a load means the same offered
// rate on a degraded network as on a healthy one.
func NewHarnessOn(cfg machine.Config, injDepth int) *Harness {
	m := machine.New(cfg)
	c0 := cfg.Shape.CoordOf(0)
	refCh := m.Node(c0).ChannelSpecs()[0]
	return &Harness{
		m:     m,
		shape: cfg.Shape,
		core:  m.GC(c0, 0).ID,
		base:  m.Node(c0).Channel(refCh).SerializeTime(refPacketBits),
		injQ:  injDepth,
		sinks: make([]sink, m.NumShards()),
	}
}

// Machine returns the rig's machine.
func (h *Harness) Machine() *machine.Machine { return h.m }

// EnableMetrics arms the telemetry collector on the harness machine
// (internal/telemetry): sharded counters and latency/park histograms,
// accumulated into Telemetry() across every subsequent point.
func (h *Harness) EnableMetrics() { h.m.EnableTelemetry() }

// AttachTrace arms packet-lifecycle tracing with the given track prefix;
// intervals accumulate until DrainTrace.
func (h *Harness) AttachTrace(prefix string) { h.m.AttachPacketTrace(prefix) }

// DrainTrace moves every recorded trace interval into dst.
func (h *Harness) DrainTrace(dst *trace.Recorder) { h.m.DrainPacketTrace(dst) }

// Telemetry returns the telemetry accumulated across every point since
// the harness was built (all zeros unless EnableMetrics was called).
func (h *Harness) Telemetry() *telemetry.Shard { return &h.telAgg }

// source is one node's traffic generator. It is the node's emission actor
// — staged once per offered instant, so the steady state carries no
// closures and emissions keep global setup order, the property the rig's
// shard invariance rests on — and the packet.Accepter of every packet it
// sends. Its injection window holds at most injQ packets the network has
// refused (parked at their first-hop channel for lack of credits); when
// the window is full, the offered process backs up into backlog and
// drains, in schedule order, as acceptances free slots.
type source struct {
	h       *Harness
	node    int32
	shard   int32
	parked  int32 // packets currently refused by the network
	backlog int32 // offered instants that found the window full
	sent    int32 // packets emitted so far (next flat = node*total + sent)
}

// full reports whether the injection window refuses a new packet. Only
// parked packets occupy it, so an empty window never refuses, whatever
// its depth.
func (s *source) full() bool { return s.parked > 0 && int(s.parked) >= s.h.injQ }

// Act offers the node's next packet.
func (s *source) Act() {
	if s.full() || s.backlog > 0 {
		s.backlog++
		return
	}
	s.h.emit(s)
}

// Accepted frees an injection-window slot (packet.Accepter): the parked
// packet started injecting. Backlogged offered instants drain while the
// window has room.
func (s *source) Accepted(*packet.Packet) {
	s.noteEntry()
	s.parked--
	for s.backlog > 0 && !s.full() {
		s.backlog--
		s.h.emit(s)
	}
}

// noteEntry records one network entry, now, on the source's shard sink.
func (s *source) noteEntry() {
	sk := &s.h.sinks[s.shard]
	sk.entered++
	sk.lastEntry = max(sk.lastEntry, s.h.m.ShardKernel(int(s.shard)).Now())
}

// emit builds and sends the source's next scheduled packet. A packet the
// network accepts immediately is a network entry now; a refused one parks
// (packet.WalkParked) and enters when its Accepted callback fires.
func (h *Harness) emit(s *source) {
	p := h.sched.packet(h.m, h.shape, h.core, int(s.node)*h.total+int(s.sent))
	s.sent++
	p.OnAccept = s
	h.m.Send(p, &h.sinks[h.m.ShardOf(p.DstNode)])
	if p.State == packet.WalkParked {
		s.parked++
	} else {
		s.noteEntry()
	}
}

// sink is one shard's measurement accumulator: the network entries of
// the shard's source nodes, and the deliveries landing on its nodes
// (packet.Deliverer).
type sink struct {
	h         *Harness
	lats      []float64
	hops      int64
	delivered int64
	entered   int64
	lastEntry sim.Time
}

// Deliver records one delivered packet; latency runs from the packet's
// intended injection instant, so source stalling is charged to it.
func (s *sink) Deliver(p *packet.Packet) {
	h := s.h
	s.delivered++
	flat := int(p.AtomID)
	if flat%h.total < h.warmup {
		return
	}
	now := h.m.NodeKernel(p.DstNode).Now()
	s.lats = append(s.lats, (now - h.sched.times[flat]).Nanoseconds())
	s.hops += int64(h.shape.HopDist(p.SrcNode, p.DstNode))
}

// Measure offers Pattern traffic at one offered load — packets measured
// and warmup unmeasured packets per node — and returns everything the
// point yields. The machine is reset to the given seed and runs with the
// kernel draining completely (queueing delay past saturation is fully
// charged to the packets that incurred it), and every random choice
// derives from seed alone — so results are byte-stable across hosts,
// worker counts, machine reuse, and shard counts.
//
// Routing randomness is pre-drawn at setup: emission events fire in
// (time, schedule-sequence) order, schedule sequence is node-major, so a
// stable sort of the schedule by time reproduces the exact order in which
// a sequential run's Sends would have consumed the machine rng. Each
// packet then carries its decisions (packet.PreRouted), which is what
// detaches the rng stream — and with lineage ordering, all of the output —
// from shard execution order.
func (h *Harness) Measure(pat Pattern, load float64, packets, warmup int, seed uint64) Sample {
	if load <= 0 || packets <= 0 {
		panic("synth: load and packet count must be positive")
	}
	h.m.Reset(seed)
	h.total = warmup + packets
	h.warmup = warmup
	nodes := h.shape.Nodes()
	total := h.total
	for s := range h.sinks {
		h.sinks[s] = sink{h: h, lats: h.sinks[s].lats[:0]}
	}

	// Draw the offered process — Poisson schedule, destinations, and the
	// machine's routing pre-draw in sequential emission order.
	intendedEnd := h.sched.draw(h.m, h.shape, pat, float64(h.base)/load, total, seed)

	// Stage the emissions in node-major (setup sequence) order, each on
	// the kernel of the shard owning its source node. They go to the
	// kernel's staged lane — a sorted flat array, not the heap — so the
	// thousands of far-future emission instants never deepen the hot
	// loop's sift path; SealStage sorts each shard's lane into the exact
	// (time, setup-sequence) firing order the heap would have produced.
	h.srcs = grow(h.srcs, nodes)
	for i := range h.srcs {
		c := h.shape.CoordOf(i)
		h.srcs[i] = source{h: h, node: int32(i), shard: int32(h.m.ShardOf(c))}
		kern := h.m.NodeKernel(c)
		for k := 0; k < total; k++ {
			kern.StageActor(h.sched.times[i*total+k], &h.srcs[i])
		}
	}
	for s := 0; s < h.m.NumShards(); s++ {
		h.m.ShardKernel(s).SealStage()
	}

	end := h.m.Run()

	st := Sample{
		Load: load,
		// Realized offered rate over the schedule horizon; the per-node
		// average, in the load unit.
		Offered: float64(total) * float64(h.base) / float64(intendedEnd),
		TailNs:  (end - intendedEnd).Nanoseconds(),
		End:     end,
	}
	if c := h.m.Telemetry(); c != nil {
		h.m.CollectChannelBusy()
		st.Tel = *c.Merged()
		h.telAgg.Merge(&st.Tel)
	}

	var entered, delivered, hops int64
	var lastEntry sim.Time
	h.all = h.all[:0]
	for i := range h.sinks {
		s := &h.sinks[i]
		h.all = append(h.all, s.lats...)
		entered += s.entered
		delivered += s.delivered
		hops += s.hops
		lastEntry = max(lastEntry, s.lastEntry)
	}
	st.Undelivered = nodes*total - int(delivered)
	if lastEntry > 0 {
		st.Accepted = float64(entered) / float64(nodes) * float64(h.base) / float64(lastEntry)
	}
	if n := len(h.all); n > 0 {
		lats := h.all
		sort.Float64s(lats)
		var sum float64
		for _, l := range lats {
			sum += l
		}
		st.AvgNs = sum / float64(n)
		st.P99Ns = lats[n*99/100]
		st.AvgHops = float64(hops) / float64(n)
	}
	return st
}

// RunPoint measures one open-loop point (see Measure) and returns its
// latency statistics. It panics unless every packet was delivered, which
// a machine without per-VC queues always achieves.
func (h *Harness) RunPoint(pat Pattern, load float64, packets, warmup int, seed uint64) Point {
	st := h.Measure(pat, load, packets, warmup, seed)
	if st.Undelivered != 0 {
		panic(fmt.Sprintf("synth: %d of %d packets undelivered", st.Undelivered, h.shape.Nodes()*h.total))
	}
	return Point{Load: st.Load, AvgNs: st.AvgNs, P99Ns: st.P99Ns, AvgHops: st.AvgHops, TailNs: st.TailNs}
}

// Curve is one policy's load/latency curve under one pattern.
type Curve struct {
	Policy string  `json:"policy"`
	Points []Point `json:"points"`
	// Tel aggregates telemetry across every load point of this policy
	// (nil unless the sweep ran with Spec.Metrics).
	Tel *telemetry.Summary `json:"telemetry,omitempty"`
}

// Spec is one sweep cell: Pattern on Shape under every policy, across the
// offered Loads, with Packets measured and Warmup unmeasured packets per
// node per point (see RunPoint). A load is the offered injection rate per
// node, normalized to one channel slice's reference-packet rate: at 1.0
// every node injects, on average, one 192-bit reference packet per
// channel-slice serialization interval (uniform traffic on the 128-node
// machine saturates around 3). Seed seeds the cell and Shards shards each
// policy's machine (0 or 1 = sequential). Metrics arms the sharded
// telemetry collector (curves gain a Tel summary); Trace, when non-nil,
// collects packet-lifecycle tracks prefixed with the policy name. Both
// default off, leaving output byte-identical.
type Spec struct {
	Shape    topo.Shape
	Policies []route.Policy
	Pattern  Pattern
	Loads    []float64
	Packets  int
	Warmup   int
	Seed     uint64
	Shards   int
	Metrics  bool
	Trace    *trace.Recorder
}

// SweepResult is one pattern x shape table of the netsweep experiment.
type SweepResult struct {
	Shape   string  `json:"shape"`
	Nodes   int     `json:"nodes"`
	Pattern string  `json:"pattern"`
	Curves  []Curve `json:"curves"`
}

// Sweep measures the spec's pattern under every policy and offered load.
// Each (policy, load) point runs with a seed derived from its position in
// the cell only, so a grid of cells decomposes freely across runner
// workers without changing a digit; points of one policy share one
// machine (reset between loads), which keeps the sweep's steady state
// allocation-free.
func Sweep(s Spec) SweepResult {
	r := SweepResult{
		Shape:   s.Shape.String(),
		Nodes:   s.Shape.Nodes(),
		Pattern: s.Pattern.Name,
		Curves:  make([]Curve, len(s.Policies)),
	}
	for pi, pol := range s.Policies {
		c := Curve{Policy: pol.Name()}
		h := NewHarness(s.Shape, pol, s.Shards)
		if s.Metrics {
			h.EnableMetrics()
		}
		if s.Trace != nil {
			h.AttachTrace(pol.Name())
		}
		for li, load := range s.Loads {
			c.Points = append(c.Points, h.RunPoint(
				s.Pattern, load, s.Packets, s.Warmup,
				s.Seed+uint64(pi)*1009+uint64(li)*9176,
			))
		}
		if s.Metrics {
			sum := h.Telemetry().Summary()
			c.Tel = &sum
		}
		if s.Trace != nil {
			h.DrainTrace(s.Trace)
		}
		r.Curves[pi] = c
	}
	return r
}

// Render formats the table: one row per offered load, an avg/p99 column
// pair per policy.
func (r SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Netsweep: pattern %s on %s (%d nodes) — one-way latency vs offered load\n",
		r.Pattern, r.Shape, r.Nodes)
	fmt.Fprintf(&b, "%6s", "load")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, " %12s %9s", c.Policy+" avg", "p99")
	}
	b.WriteByte('\n')
	if len(r.Curves) == 0 {
		return b.String()
	}
	for i := range r.Curves[0].Points {
		fmt.Fprintf(&b, "%6.2f", r.Curves[0].Points[i].Load)
		for _, c := range r.Curves {
			fmt.Fprintf(&b, " %12.1f %9.1f", c.Points[i].AvgNs, c.Points[i].P99Ns)
		}
		b.WriteByte('\n')
	}
	for _, c := range r.Curves {
		if c.Tel == nil {
			continue
		}
		b.WriteString(c.Tel.Line(c.Policy))
		b.WriteByte('\n')
	}
	return b.String()
}
