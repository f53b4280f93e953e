package flow

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"anton3/internal/chip"
	"anton3/internal/fault"
	"anton3/internal/resultstore"
	"anton3/internal/route"
	"anton3/internal/sim"
	"anton3/internal/synth"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
)

// Spec is one saturate or faultsweep cell: the open-loop cell spec plus
// the closed-loop rig's per-VC ingress queue depth in flits and per-source
// injection window in packets (0 takes DefaultQueueFlits and
// DefaultInjDepth). Loads must be ascending. Packets and Warmup are per
// node at unit load (see RunPoint). Metrics accumulates telemetry across
// every point, swept loads and knee probes alike, and adds a
// channel-utilization heatmap at the knee; Trace prefixes each machine's
// tracks with its policy name (and severity, in a faultsweep).
type Spec struct {
	synth.Spec
	QueueFlits int
	InjDepth   int
	// Cache, when non-nil, memoizes every point — the swept loads and the
	// knee-search probes — so a re-run of the same cell, or a knee search
	// revisiting a load another invocation probed, short-circuits to the
	// recorded Point with bit-identical curves and knees. nil runs
	// everything.
	Cache *resultstore.Store
}

// withDefaults resolves zero queue depths to the package defaults.
func (s Spec) withDefaults() Spec {
	if s.QueueFlits <= 0 {
		s.QueueFlits = DefaultQueueFlits
	}
	if s.InjDepth <= 0 {
		s.InjDepth = DefaultInjDepth
	}
	return s
}

// harness builds one policy's machine for the cell under plan (nil =
// healthy), with the cache and the observability gates armed; trace
// tracks get the given prefix.
func (s Spec) harness(pol route.Policy, plan *fault.Plan, prefix string) *Harness {
	h := NewFaultHarness(s.Shape, pol, s.Shards, s.QueueFlits, s.InjDepth, plan)
	h.Cache = s.Cache
	if s.Metrics {
		h.EnableMetrics()
	}
	if s.Trace != nil {
		h.AttachTrace(prefix)
	}
	return h
}

// sweepKnee runs the cell's loads on h, then locates the saturation knee.
// Every load's seed derives from its position only, so all policies (and
// all severities) at one load face byte-identical offered traffic — a
// paired comparison.
func (s Spec) sweepKnee(h *Harness) (pts []Point, knee float64, lb bool) {
	for li, load := range s.Loads {
		pts = append(pts, h.RunPoint(s.Pattern, load, s.Packets, s.Warmup, s.Seed+uint64(li)*9176))
	}
	knee, lb = findKnee(h, s.Pattern, pts, s.Packets, s.Warmup, s.Seed)
	return pts, knee, lb
}

// SatRatio is the saturation detector: a point whose accepted/offered
// ratio falls below it (or that wedged) counts as saturated. Below
// saturation the closed-loop rig reproduces the offered schedule exactly
// and the ratio sits at 1.0, so the knee is sharp.
const SatRatio = 0.95

// KneeIters is the bisection depth of the saturation search; with it the
// knee is located to (hi-lo)/2^KneeIters of the initial bracket.
const KneeIters = 6

// kneeDoublings bounds the bracket expansion when no swept load saturated.
const kneeDoublings = 3

// Saturated reports whether a point is past the saturation knee.
func Saturated(pt Point) bool {
	return pt.Undelivered > 0 || pt.Accepted < SatRatio*pt.Offered
}

// Curve is one policy's closed-loop curve under one pattern, with the
// bisection-located saturation knee.
type Curve struct {
	Policy string `json:"policy"`
	// Knee is the saturation load located by bisection, in offered-load
	// units. KneeLB marks a lower bound: the search never found a
	// saturated load within its doubling budget.
	Knee   float64 `json:"knee"`
	KneeLB bool    `json:"knee_lb,omitempty"`
	Points []Point `json:"points"`
	// Tel is the per-(policy x pattern) telemetry digest over every
	// point of this curve; Heat the top-k hottest links at the knee.
	// Both nil unless the sweep ran with Spec.Metrics.
	Tel  *telemetry.Summary `json:"telemetry,omitempty"`
	Heat []ChannelHeat      `json:"heat,omitempty"`
}

// ChannelHeat is one link's utilization in the knee-probe heatmap.
type ChannelHeat struct {
	Node string  `json:"node"`
	Spec string  `json:"spec"`
	Util float64 `json:"util"`
}

// probeSeed scrambles a probe load into the cell seed so knee probes get
// streams disjoint from the sweep points and from each other.
func probeSeed(seed uint64, load float64) uint64 {
	x := math.Float64bits(load) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return seed ^ 0x73617475726174 ^ x // "saturat"
}

// findKnee locates the saturation knee given the swept points: a coarse
// geometric bracket stage followed by bisection. The bracket comes from
// the sweep (last unsaturated, first saturated load); if nothing swept
// saturated, the knee — if reachable at all — lies on the doubling ladder
// lo*2^1 .. lo*2^kneeDoublings, and the bracket stage binary-searches the
// ladder in log space instead of walking it bottom-up. The bottom-up walk
// spent one probe per rung and maxed out (kneeDoublings probes) exactly on
// the hardest-to-saturate cells; the log-space search pins the first
// saturated rung (or proves there is none) in ceil(log2(kneeDoublings+1))
// probes. Saturation is monotone in offered load, so the rung found is the
// same one the walk would have found — each probe load draws its own seed
// from the load value alone, the ladder rungs are exact power-of-two
// multiples, and the bisection stage then runs on an identical bracket:
// knee values are bit-for-bit unchanged, only the probe count drops.
func findKnee(h *Harness, pat synth.Pattern, pts []Point, packets, warmup int, seed uint64) (float64, bool) {
	probe := func(load float64) bool {
		return Saturated(h.RunPoint(pat, load, packets, warmup, probeSeed(seed, load)))
	}
	if len(pts) == 0 {
		return 0, true
	}
	var lo, hi float64
	for _, pt := range pts {
		if Saturated(pt) {
			hi = pt.Load
			break
		}
		lo = pt.Load
	}
	if hi == 0 {
		// Geometric bracket stage: find the first saturated rung
		// base*2^r, r in 1..kneeDoublings, by log-space binary search.
		base := lo
		first := -1
		loR, hiR := 1, kneeDoublings
		for loR <= hiR {
			mid := (loR + hiR) / 2
			if probe(math.Ldexp(base, mid)) {
				first = mid
				hiR = mid - 1
			} else {
				loR = mid + 1
			}
		}
		if first < 0 {
			// The whole ladder ran unsaturated: report its top as a
			// lower bound, as the exhausted bottom-up walk always did.
			return math.Ldexp(base, kneeDoublings), true
		}
		lo, hi = math.Ldexp(base, first-1), math.Ldexp(base, first)
	}
	for i := 0; i < KneeIters; i++ {
		mid := (lo + hi) / 2
		if probe(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2, false
}

// heatTopK bounds the hottest-links digest.
const heatTopK = 4

// kneeHeat runs one fresh (deliberately uncached — the heatmap reads
// machine channel state, not a Point) probe at the knee load and
// digests per-channel serialization busy time into the top-k hottest
// links, each normalized by the run's end timestamp. Deterministic:
// busy times are simulated integers and ties break on the dense
// (node, spec) walk order.
func kneeHeat(h *Harness, pat synth.Pattern, knee float64, packets, warmup int, seed uint64) []ChannelHeat {
	if knee <= 0 {
		return nil
	}
	end := h.runPoint(pat, knee, packets, warmup, probeSeed(seed, knee)).End
	if end <= 0 {
		return nil
	}
	var heats []ChannelHeat
	h.Machine().ChannelBusy(func(node topo.Coord, spec chip.ChannelSpec, busy sim.Time) {
		if busy > 0 {
			heats = append(heats, ChannelHeat{
				Node: node.String(),
				Spec: spec.String(),
				Util: float64(busy) / float64(end),
			})
		}
	})
	sort.SliceStable(heats, func(i, j int) bool { return heats[i].Util > heats[j].Util })
	if len(heats) > heatTopK {
		heats = heats[:heatTopK]
	}
	return heats
}

// Result is one pattern x shape table of the saturate experiment.
type Result struct {
	Shape      string  `json:"shape"`
	Nodes      int     `json:"nodes"`
	Pattern    string  `json:"pattern"`
	QueueFlits int     `json:"queue_flits"`
	InjDepth   int     `json:"inj_depth"`
	Curves     []Curve `json:"curves"`
}

// Sweep measures the cell's pattern under every policy and offered load,
// then locates each policy's saturation knee. Points of one policy share
// one machine (reset between loads), which keeps the sweep's steady state
// allocation-free.
func Sweep(s Spec) Result {
	s = s.withDefaults()
	r := Result{
		Shape:      s.Shape.String(),
		Nodes:      s.Shape.Nodes(),
		Pattern:    s.Pattern.Name,
		QueueFlits: s.QueueFlits,
		InjDepth:   s.InjDepth,
		Curves:     make([]Curve, len(s.Policies)),
	}
	for pi, pol := range s.Policies {
		c := Curve{Policy: pol.Name()}
		h := s.harness(pol, nil, pol.Name())
		c.Points, c.Knee, c.KneeLB = s.sweepKnee(h)
		if s.Metrics {
			// Snapshot the curve digest before the heatmap probe runs
			// (the probe's telemetry belongs to the heatmap, not the
			// curve totals).
			sum := h.Telemetry().Summary()
			c.Tel = &sum
			c.Heat = kneeHeat(h, s.Pattern, c.Knee, s.Packets, s.Warmup, s.Seed)
		}
		if s.Trace != nil {
			h.DrainTrace(s.Trace)
		}
		r.Curves[pi] = c
	}
	return r
}

// Render formats the table: one row per offered load with an
// accepted-throughput/p99 column pair per policy, the located saturation
// knees underneath, and any wedged (deadlocked) cells called out.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Saturate: pattern %s on %s (%d nodes) — closed-loop accepted throughput vs offered load (%d-flit VC queues, %d-slot sources)\n",
		r.Pattern, r.Shape, r.Nodes, r.QueueFlits, r.InjDepth)
	fmt.Fprintf(&b, "%8s", "offered")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, " %15s %9s", c.Policy+" acc", "p99")
	}
	b.WriteByte('\n')
	if len(r.Curves) == 0 {
		return b.String()
	}
	var wedged []string
	for i := range r.Curves[0].Points {
		fmt.Fprintf(&b, "%8.3f", r.Curves[0].Points[i].Offered)
		for _, c := range r.Curves {
			pt := c.Points[i]
			fmt.Fprintf(&b, " %15.3f %9.1f", pt.Accepted, pt.P99Ns)
			if pt.Undelivered > 0 {
				wedged = append(wedged, fmt.Sprintf("%s@%.3g(%d stuck)", c.Policy, pt.Load, pt.Undelivered))
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("saturation knee:")
	for _, c := range r.Curves {
		lb := ""
		if c.KneeLB {
			lb = ">="
		}
		fmt.Fprintf(&b, "  %s %s%.3f", c.Policy, lb, c.Knee)
	}
	b.WriteByte('\n')
	if len(wedged) > 0 {
		fmt.Fprintf(&b, "deadlocked cells: %s\n", strings.Join(wedged, ", "))
	}
	// Telemetry lines come last and always start with "telemetry" at
	// column 0, so a metrics-on run's primary output stays byte-identical
	// to a metrics-off run after `grep -v '^telemetry'`.
	for _, c := range r.Curves {
		if c.Tel == nil {
			continue
		}
		b.WriteString(c.Tel.Line(c.Policy))
		b.WriteByte('\n')
		if len(c.Heat) > 0 {
			fmt.Fprintf(&b, "telemetry hotlinks %s @ knee %.3f:", c.Policy, c.Knee)
			for _, hh := range c.Heat {
				fmt.Fprintf(&b, "  %s %s %.1f%%", hh.Node, hh.Spec, 100*hh.Util)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
