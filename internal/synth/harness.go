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

// RefPacketBits is the wire size of the standard 24-byte counted-write
// packet (two 96-bit flits), the unit the offered-load normalization is
// expressed in.
const RefPacketBits = 192

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

// Harness runs timed network-only measurements on one long-lived machine:
// one (shape, policy, shard count) triple serves any number of
// (pattern, load, seed) points via RunPoint. Reusing the machine is what
// makes a sweep allocation-free in steady state — the kernel event pools,
// packet free lists, injection schedule and latency buffers all persist
// across load points — and a reset machine is byte-identical to a fresh
// one, so reuse never changes a digit of output.
type Harness struct {
	m     *machine.Machine
	shape topo.Shape
	core  packet.CoreID // GC 0, the endpoint every packet uses
	base  sim.Time      // serialization time of RefPacketBits (load unit)

	total  int // packets per node including warmup, for the current point
	warmup int

	// sched is the pre-drawn offered process — intended injection instants,
	// destinations, and the machine's pre-drawn routing decisions — for the
	// current point, flat-indexed by node*total+k (see Schedule.Draw).
	sched Schedule
	injs  []injector

	// Per-shard measurement state: deliveries happen on the destination
	// node's shard, so each shard appends to its own buffers and the
	// point statistics reduce them afterwards.
	sinks []sink
	lats  [][]float64
	hops  []int64
	all   []float64 // merged latencies, reused across points

	// telAgg accumulates telemetry across every point run since the
	// harness was built (zero unless EnableMetrics armed the machine).
	telAgg telemetry.Shard
}

// NewHarness builds the measurement machine: compression off (network-only
// timing), the given routing policy, sharded across the given kernel
// count (0 or 1 = sequential).
func NewHarness(shape topo.Shape, policy route.Policy, shards int) *Harness {
	mcfg := machine.DefaultConfig(shape)
	mcfg.Compress = serdes.CompressConfig{} // raw wire timing
	mcfg.Policy = policy
	mcfg.Shards = shards
	m := machine.New(mcfg)
	refCh := m.Node(shape.CoordOf(0)).ChannelSpecs()[0]
	h := &Harness{
		m:     m,
		shape: shape,
		core:  m.GC(shape.CoordOf(0), 0).ID,
		base:  m.Node(shape.CoordOf(0)).Channel(refCh).SerializeTime(RefPacketBits),
	}
	P := m.NumShards()
	h.sinks = make([]sink, P)
	h.lats = make([][]float64, P)
	h.hops = make([]int64, P)
	for s := range h.sinks {
		h.sinks[s] = sink{h: h, shard: int32(s)}
	}
	return h
}

// EnableMetrics arms the telemetry collector on the harness machine
// (internal/telemetry): sharded counters and latency/park histograms,
// accumulated into Telemetry() across every subsequent RunPoint.
func (h *Harness) EnableMetrics() { h.m.EnableTelemetry() }

// AttachTrace arms packet-lifecycle tracing with the given track prefix;
// intervals accumulate until DrainTrace.
func (h *Harness) AttachTrace(prefix string) { h.m.AttachPacketTrace(prefix) }

// DrainTrace moves every recorded trace interval into dst.
func (h *Harness) DrainTrace(dst *trace.Recorder) { h.m.DrainPacketTrace(dst) }

// Telemetry returns the telemetry accumulated across every RunPoint since
// the harness was built (all zeros unless EnableMetrics was called).
func (h *Harness) Telemetry() *telemetry.Shard { return &h.telAgg }

// injector fires one scheduled injection: a setup-scheduled sim.Actor, so
// the steady-state schedule carries no closures and the injection events
// keep the setup sequence order the sequential kernel has always used.
type injector struct {
	h    *Harness
	flat int32
}

// Act builds the pre-routed packet for this injection slot and sends it.
func (ij *injector) Act() {
	h := ij.h
	p := h.sched.Packet(h.m, h.shape, h.core, int(ij.flat))
	h.m.Send(p, &h.sinks[h.m.ShardOf(p.DstNode)])
}

// sink records deliveries landing on one shard (packet.Deliverer).
type sink struct {
	h     *Harness
	shard int32
}

// Deliver records one delivered packet.
func (s *sink) Deliver(p *packet.Packet) {
	h := s.h
	if int(p.AtomID)%h.total < h.warmup {
		return
	}
	h.lats[s.shard] = append(h.lats[s.shard], (h.m.NodeKernel(p.DstNode).Now() - p.Injected).Nanoseconds())
	h.hops[s.shard] += int64(h.shape.HopDist(p.SrcNode, p.DstNode))
}

// RunPoint injects Pattern traffic at one offered load and returns the
// latency statistics of the measured window. The machine is reset to the
// given seed, runs with the kernel draining completely (queueing delay
// past saturation is fully charged to the packets that incurred it), and
// every random choice derives from seed alone — so results are byte-stable
// across hosts, worker counts, machine reuse, and shard counts.
//
// Routing randomness is pre-drawn at setup: injection events fire in
// (time, schedule-sequence) order, schedule sequence is node-major, so a
// stable sort of the schedule by time reproduces the exact order in which
// a sequential run's Sends would have consumed the machine rng. Each
// packet then carries its decisions (packet.PreRouted), which is what
// detaches the rng stream — and with lineage ordering, all of the output —
// from shard execution order.
func (h *Harness) RunPoint(pat Pattern, load float64, packets, warmup int, seed uint64) Point {
	if load <= 0 || packets <= 0 {
		panic("synth: load and packet count must be positive")
	}
	h.m.Reset(seed)
	h.total = warmup + packets
	h.warmup = warmup
	nodes := h.shape.Nodes()
	total := h.total
	flatN := nodes * total
	if cap(h.injs) < flatN {
		h.injs = make([]injector, flatN)
	}
	h.injs = h.injs[:flatN]
	for s := range h.lats {
		h.lats[s] = h.lats[s][:0]
		h.hops[s] = 0
	}

	// Draw the offered process — Poisson schedule, destinations, and the
	// machine's routing pre-draw in sequential injection-firing order.
	injectEnd := h.sched.Draw(h.m, h.shape, pat, float64(h.base)/load, total, seed)

	// Schedule the injections in node-major (setup sequence) order, each
	// on the kernel of the shard owning its source node. They go to the
	// kernel's staged lane — a sorted flat array, not the heap — so the
	// thousands of far-future injection slots never deepen the hot loop's
	// sift path; SealStage sorts each shard's lane into the exact
	// (time, setup-sequence) firing order the heap would have produced.
	for i := 0; i < nodes; i++ {
		kern := h.m.NodeKernel(h.shape.CoordOf(i))
		for k := 0; k < total; k++ {
			flat := i*total + k
			h.injs[flat] = injector{h: h, flat: int32(flat)}
			kern.StageActor(h.sched.Times[flat], &h.injs[flat])
		}
	}
	for s := 0; s < h.m.NumShards(); s++ {
		h.m.ShardKernel(s).SealStage()
	}

	drainEnd := h.m.Run()

	if c := h.m.Telemetry(); c != nil {
		h.m.CollectChannelBusy()
		h.telAgg.Merge(c.Merged())
	}

	h.all = h.all[:0]
	var hopSum int64
	for s := range h.lats {
		h.all = append(h.all, h.lats[s]...)
		hopSum += h.hops[s]
	}
	if len(h.all) != nodes*packets {
		panic(fmt.Sprintf("synth: delivered %d of %d measured packets", len(h.all), nodes*packets))
	}
	lats := h.all
	sort.Float64s(lats)
	var sum float64
	for _, l := range lats {
		sum += l
	}
	return Point{
		Load:    load,
		AvgNs:   sum / float64(len(lats)),
		P99Ns:   lats[len(lats)*99/100],
		AvgHops: float64(hopSum) / float64(len(lats)),
		TailNs:  (drainEnd - injectEnd).Nanoseconds(),
	}
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
// every node injects, on average, one RefPacketBits packet per
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
