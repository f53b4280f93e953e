// Package flow is the closed-loop network-evaluation subsystem: the
// classic interconnect saturation methodology (offered vs. accepted
// throughput under endpoint backpressure, with a located saturation knee)
// applied to the Anton 3 torus. It runs internal/synth's measurement rig
// on a machine with bounded per-VC ingress queues
// (machine.Config.VCQueueFlits) and finite source injection windows, so
// the network can refuse traffic — and the refusal, not just the latency,
// is the measurement.
//
// Every random choice, routes included, is pre-drawn from the cell seed by
// the rig, and all runtime actors carry lineage, so a sweep is
// byte-identical across worker counts, machine reuse, and kernel shard
// counts — the same guarantee netsweep has.
package flow

import (
	"math"
	"slices"

	"anton3/internal/fault"
	"anton3/internal/machine"
	"anton3/internal/resultstore"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/synth"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
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

// Harness runs closed-loop measurements on the synth rig: one (shape,
// policy, shard count, queue depths, fault plan) machine serves any number
// of (pattern, load, seed) points via RunPoint, allocation-free in steady
// state. The embedded rig provides the machine, telemetry and tracing.
type Harness struct {
	*synth.Harness

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
// machine (nil or empty = healthy, identical to NewHarness). Offered loads
// keep the healthy load unit (see synth.NewHarnessOn), so knee shifts are
// measured in a fixed unit.
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
	h := &Harness{
		keyCfg: pointKeyCfg{
			Shape:      shape.String(),
			Policy:     policy.Name(),
			QueueFlits: queueFlits,
			InjDepth:   injDepth,
		},
	}
	if !plan.Empty() {
		mcfg.Faults = plan
		h.faultCanon = plan.Canon()
	}
	h.Harness = synth.NewHarnessOn(mcfg, injDepth)
	return h
}

// RunPoint offers Pattern traffic at one nominal load through the
// closed-loop sources and measures what the network accepted. The machine
// is reset to the seed; every random choice derives from the seed alone
// (the rig's pre-draw, routes included), so results are byte-stable
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
		return closedPoint(h.runPoint(pat, load, packets, warmup, seed))
	}
	cfg := h.keyCfg
	cfg.Pattern = pat.Name
	cfg.Load = load
	cfg.Packets, cfg.Warmup = packets, warmup
	key := h.pointKey(seed, cfg)
	if h.Machine().Telemetry() != nil {
		// Metrics-on points store (Point, telemetry block) under the
		// "+tel" kind; a hit replays the block into the accumulator so
		// warm sweeps report identical telemetry.
		var rec telPoint
		if h.Cache.Get(key, &rec) {
			h.Telemetry().Merge(&rec.Tel)
			return rec.P
		}
		st := h.runPoint(pat, load, packets, warmup, seed)
		pt := closedPoint(st)
		h.Cache.Put(key, telPoint{P: pt, Tel: st.Tel})
		return pt
	}
	var pt Point
	if h.Cache.Get(key, &pt) {
		return pt
	}
	pt = closedPoint(h.runPoint(pat, load, packets, warmup, seed))
	h.Cache.Put(key, pt)
	return pt
}

// pointKey builds the cache key for one fully specified point: the plain
// pointKeyCfg on a healthy harness (byte-identical to every key minted
// before fault injection existed), the fault-carrying config otherwise.
func (h *Harness) pointKey(seed uint64, cfg pointKeyCfg) resultstore.Key {
	kind := "flow/point"
	if h.Machine().Telemetry() != nil {
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

// runPoint is the simulation body of RunPoint (cache misses land here):
// it scales the per-node budgets by the load and measures the point.
func (h *Harness) runPoint(pat synth.Pattern, load float64, packets, warmup int, seed uint64) synth.Sample {
	h.PointsRun++
	packets, warmup = scaleBudget(packets, warmup, load)
	return h.Measure(pat, load, packets, warmup, seed)
}

// scaleBudget scales a point's per-node packet budgets by its load, when
// above 1, so every point measures over about the same simulated horizon.
func scaleBudget(packets, warmup int, load float64) (int, int) {
	scale := math.Max(1, load)
	return int(math.Ceil(float64(packets) * scale)), int(math.Ceil(float64(warmup) * scale))
}

// HorizonFits reports whether every point a sweep over loads can run on
// shape keeps its injection schedule inside synth's sort key
// (synth.HorizonFits): each swept load and every knee probe up to the top
// of the bracket ladder, with budgets scaled as runPoint scales them.
func HorizonFits(shape topo.Shape, loads []float64, packets, warmup int) bool {
	top := math.Ldexp(slices.Max(loads), kneeDoublings)
	for _, load := range append(slices.Clip(loads), top) {
		p, w := scaleBudget(packets, warmup, load)
		if !synth.HorizonFits(shape, p+w, load) {
			return false
		}
	}
	return true
}

// closedPoint reads the closed-loop Point out of a rig sample.
func closedPoint(st synth.Sample) Point {
	return Point{
		Load:        st.Load,
		Offered:     st.Offered,
		Accepted:    st.Accepted,
		AvgNs:       st.AvgNs,
		P99Ns:       st.P99Ns,
		Undelivered: st.Undelivered,
	}
}
