// Package experiments regenerates every table and figure of the paper's
// evaluation. Each function returns the rows/series the paper reports plus
// a text rendering; cmd/anton3, the root benchmarks, and EXPERIMENTS.md all
// drive these same entry points.
package experiments

import (
	"fmt"
	"strings"

	"anton3/internal/area"
	"anton3/internal/chip"
	"anton3/internal/machine"
	"anton3/internal/md"
	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/stats"
	"anton3/internal/topo"
	"anton3/internal/trace"
	"anton3/internal/traffic"
)

// Shape128 is the paper's measurement machine: 4 x 4 x 8 = 128 nodes.
var Shape128 = topo.Shape{X: 4, Y: 4, Z: 8}

// Shape8 is the compression benchmark machine: 2 x 2 x 2 = 8 nodes.
var Shape8 = topo.Shape{X: 2, Y: 2, Z: 2}

// ---------------------------------------------------------------- Figure 5

// Fig5Point is one hop-count sample of the latency curve.
type Fig5Point struct {
	Hops    int
	AvgNs   float64
	PaperNs float64 // 55.9 + 34.2*h (h >= 1)
}

// Fig5Result is the end-to-end latency experiment.
type Fig5Result struct {
	Points []Fig5Point
	Fit    stats.LinFit // fitted over hops >= 1
}

// Fig5 measures average one-way end-to-end latency versus inter-node hops
// on the 128-node machine with pairsPerHop sampled GC pairs per distance.
// rng picks the sampled pairs; the paper runs use sim.NewRand(Fig5Seed).
func Fig5(rng *sim.Rand, pairsPerHop int) Fig5Result {
	samples := fig5SamplePairs(rng, pairsPerHop)
	perHop := make([][]float64, len(samples))
	for h, pairs := range samples {
		perHop[h] = fig5MeasureHop(pairs)
	}
	return fig5Assemble(perHop)
}

// fig5Pair is one sampled GC pair of the Figure 5 sweep.
type fig5Pair struct {
	Src, Dst topo.Coord
	GCA, GCB int
}

// fig5SamplePairs draws the per-hop pair samples. The draw sequence (hop
// major; src, dst, both GC indices per pair) is pinned: it must consume
// rng exactly as the paper runs always have, so the sharded runner jobs
// reproduce the historical Fig5 numbers digit for digit.
func fig5SamplePairs(rng *sim.Rand, pairsPerHop int) [][]fig5Pair {
	gcs := chip.New(sim.NewClock(2800), chip.DefaultLatencies()).GCs()
	out := make([][]fig5Pair, Shape128.Diameter()+1)
	for h := range out {
		pairs := make([]fig5Pair, pairsPerHop)
		for p := range pairs {
			src := Shape128.CoordOf(rng.Intn(Shape128.Nodes()))
			dst := pickAtDistance(rng, Shape128, src, h)
			pairs[p] = fig5Pair{Src: src, Dst: dst, GCA: rng.Intn(gcs), GCB: rng.Intn(gcs)}
		}
		out[h] = pairs
	}
	return out
}

// fig5MeasureHop ping-pongs every sampled pair of one hop count, each on a
// private machine — the unit of work one runner sub-job performs.
func fig5MeasureHop(pairs []fig5Pair) []float64 {
	lats := make([]float64, 0, len(pairs))
	for _, pr := range pairs {
		m := machine.New(machine.DefaultConfig(Shape128))
		a := m.GC(pr.Src, pr.GCA)
		b := m.GC(pr.Dst, pr.GCB)
		r := m.PingPong(a, b, 12)
		lats = append(lats, r.OneWay.Nanoseconds())
	}
	return lats
}

// fig5Assemble folds per-hop latency samples into the figure.
func fig5Assemble(perHop [][]float64) Fig5Result {
	var res Fig5Result
	var xs, ys []float64
	for h, lats := range perHop {
		avg := stats.Mean(lats)
		paper := 0.0
		if h >= 1 {
			paper = 55.9 + 34.2*float64(h)
			xs = append(xs, float64(h))
			ys = append(ys, avg)
		}
		res.Points = append(res.Points, Fig5Point{Hops: h, AvgNs: avg, PaperNs: paper})
	}
	res.Fit = stats.Fit(xs, ys)
	return res
}

func pickAtDistance(rng *sim.Rand, s topo.Shape, src topo.Coord, h int) topo.Coord {
	candidates := s.WithinHops(src, h)
	var exact []topo.Coord
	for _, c := range candidates {
		if s.HopDist(src, c) == h {
			exact = append(exact, c)
		}
	}
	if len(exact) == 0 {
		panic(fmt.Sprintf("experiments: no node at distance %d", h))
	}
	return exact[rng.Intn(len(exact))]
}

// Render formats the figure as text.
func (r Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: average one-way end-to-end latency vs inter-node hops (128 nodes)\n")
	fmt.Fprintf(&b, "%4s %12s %12s\n", "hops", "measured ns", "paper fit ns")
	for _, p := range r.Points {
		paper := "-"
		if p.PaperNs > 0 {
			paper = fmt.Sprintf("%.1f", p.PaperNs)
		}
		fmt.Fprintf(&b, "%4d %12.1f %12s\n", p.Hops, p.AvgNs, paper)
	}
	fmt.Fprintf(&b, "fit: %s   (paper: y = 55.9 + 34.2*x)\n", r.Fit)
	return b.String()
}

// ---------------------------------------------------------------- Figure 6

// Fig6Stage is one component of the minimum-latency breakdown.
type Fig6Stage struct {
	Name string
	Ns   float64
}

// Fig6Result is the latency breakdown.
type Fig6Result struct {
	Stages     []Fig6Stage
	TotalNs    float64
	MeasuredNs float64 // ping-pong measurement of the same path
}

// Fig6 decomposes the minimum 1-hop end-to-end latency by component and
// cross-checks against a measured ping-pong on the same path.
func Fig6() Fig6Result {
	m := machine.New(machine.DefaultConfig(Shape128))
	g := m.Geom
	clk := m.Clock
	lat := m.Config().Lat
	cs := chip.ChannelSpec{Dim: topo.X, Dir: -1, Slice: 0}
	core := packet.CoreID{Tile: topo.MeshCoord{U: 0, V: g.EdgeRowFor(cs)}}

	cyc := func(n int64) float64 { return clk.Cycles(n).Nanoseconds() }
	edgeHopNs := cyc(lat.EdgeHopCycles)
	ser := 192.0 / (float64(chip.LanesPerSlice*topo.SerdesGbps) * 60 / 64) // ns for a 24B packet

	stages := []Fig6Stage{
		{"GC send (SW issue + inject)", cyc(lat.GCSendCycles)},
		{"Core network (1 U hop)", cyc(lat.CoreUCycles)},
		{"Row Adapter", cyc(lat.RACycles)},
		{"Edge Routers, source (2 hops)", 2 * edgeHopNs},
		{"Channel Adapter tx (INZ/frame)", cyc(lat.CATxCycles)},
		{"Serialization (2 flits)", ser},
		{"SERDES + wire", lat.ChannelFixed.Nanoseconds()},
		{"Channel Adapter rx", cyc(lat.CARxCycles)},
		{"Edge Routers, dest (2 hops)", 2 * edgeHopNs},
		{"Row Adapter", cyc(lat.RACycles)},
		{"Core network (1 U hop)", cyc(lat.CoreUCycles)},
		{"SRAM write + counter", cyc(lat.MemWriteCycles)},
		{"Blocking read wake", cyc(lat.WakeCycles)},
	}
	var total float64
	for _, s := range stages {
		total += s.Ns
	}

	a := m.GCAt(topo.Coord{X: 0}, core)
	b := m.GCAt(topo.Coord{X: 3}, core) // one X- wraparound hop
	r := m.PingPong(a, b, 16)
	return Fig6Result{Stages: stages, TotalNs: total, MeasuredNs: r.OneWay.Nanoseconds()}
}

// Render formats the breakdown.
func (r Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: breakdown of minimum inter-node end-to-end latency\n")
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "  %-34s %6.2f ns\n", s.Name, s.Ns)
	}
	fmt.Fprintf(&b, "  %-34s %6.2f ns (paper: 55 ns)\n", "TOTAL (model)", r.TotalNs)
	fmt.Fprintf(&b, "  %-34s %6.2f ns\n", "measured ping-pong one-way", r.MeasuredNs)
	return b.String()
}

// --------------------------------------------------------------- Figure 9a

// Fig9aPoint is one atom-count sample.
type Fig9aPoint struct {
	Atoms         int
	INZOnly       float64 // traffic reduction, 0..1
	INZPlusPcache float64
	PcacheHitRate float64
	PaperINZLo    float64
	PaperINZHi    float64
	PaperBothLo   float64
	PaperBothHi   float64
}

// Fig9a measures traffic reduction on the 8-node machine across atom
// counts, with warmup steps excluded from the measurement window.
func Fig9a(sizes []int, warm, measure int) []Fig9aPoint {
	var out []Fig9aPoint
	for _, n := range sizes {
		rs, st := replayTrajectory(n, 1234, warm, measure, []serdes.CompressConfig{
			{INZ: true},
			{INZ: true, Pcache: true},
		})
		out = append(out, Fig9aPoint{
			Atoms:         n,
			INZOnly:       st[0].Reduction(),
			INZPlusPcache: st[1].Reduction(),
			PcacheHitRate: rs[1].CacheStats().HitRate(),
			PaperINZLo:    0.32,
			PaperINZHi:    0.40,
			PaperBothLo:   0.45,
			PaperBothHi:   0.62,
		})
	}
	return out
}

// replayTrajectory integrates one water trajectory of the given size and
// seed for warm+measure steps and replays every step through one traffic
// replayer per compression config. It returns the replayers and each
// one's wire counters over the measured steps. ReplayStep only reads the
// system, so every config sees exactly the trajectory a private
// integration would have given it, at the cost of one.
func replayTrajectory(atoms int, seed uint64, warm, measure int, cfgs []serdes.CompressConfig) ([]*traffic.Replayer, []serdes.Stats) {
	sys := md.NewWater(atoms, 300, sim.NewRand(seed))
	rs := make([]*traffic.Replayer, len(cfgs))
	for i, cfg := range cfgs {
		rs[i] = traffic.NewReplayer(Shape8, sys.Box, cfg)
	}
	step := func() {
		for _, r := range rs {
			r.ReplayStep(sys)
		}
		sys.Step()
	}
	for i := 0; i < warm; i++ {
		step()
	}
	st := make([]serdes.Stats, len(rs))
	for i, r := range rs {
		st[i] = r.Stats()
	}
	for i := 0; i < measure; i++ {
		step()
	}
	for i, r := range rs {
		st[i] = traffic.Delta(r.Stats(), st[i])
	}
	return rs, st
}

// RenderFig9a formats the series.
func RenderFig9a(pts []Fig9aPoint) string {
	var b strings.Builder
	b.WriteString("Figure 9a: reduction in bits transmitted over channels (8 nodes, water)\n")
	fmt.Fprintf(&b, "%8s %10s %14s %10s   paper bands\n", "atoms", "inz", "inz+pcache", "hit rate")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8d %9.1f%% %13.1f%% %9.1f%%   inz %.0f-%.0f%%, both %.0f-%.0f%%\n",
			p.Atoms, 100*p.INZOnly, 100*p.INZPlusPcache, 100*p.PcacheHitRate,
			100*p.PaperINZLo, 100*p.PaperINZHi, 100*p.PaperBothLo, 100*p.PaperBothHi)
	}
	return b.String()
}

// --------------------------------------------------------------- Figure 9b

// Fig9bPoint is one atom-count speedup sample.
type Fig9bPoint struct {
	Atoms            int
	StepOffNs        float64
	StepOnNs         float64
	Speedup          float64
	PaperLo, PaperHi float64 // 1.18 - 1.62 across the paper's sizes
}

// Fig9b measures application-level speedup from compression: timestep
// pipeline time with compression off vs on, per atom count. shards runs
// each machine across that many kernel shards (machine.Config.Shards);
// output is byte-identical at every value, 0 or 1 is sequential.
func Fig9b(sizes []int, steps, shards int) []Fig9bPoint {
	var out []Fig9bPoint
	for _, n := range sizes {
		var offNs, onNs float64
		for _, comp := range []serdes.CompressConfig{{}, {INZ: true, Pcache: true}} {
			cfg := machine.DefaultConfig(Shape8)
			cfg.Compress = comp
			cfg.Shards = shards
			m := machine.New(cfg)
			sys := md.NewWater(n, 300, sim.NewRand(777))
			e := machine.NewEngine(m, sys, machine.DefaultTimestepConfig())
			var last machine.StepResult
			for i := 0; i < steps; i++ {
				last = e.RunStep()
			}
			if comp.Pcache {
				onNs = last.Duration.Nanoseconds()
			} else {
				offNs = last.Duration.Nanoseconds()
			}
		}
		out = append(out, Fig9bPoint{
			Atoms: n, StepOffNs: offNs, StepOnNs: onNs,
			Speedup: offNs / onNs, PaperLo: 1.18, PaperHi: 1.62,
		})
	}
	return out
}

// RenderFig9b formats the series.
func RenderFig9b(pts []Fig9bPoint) string {
	var b strings.Builder
	b.WriteString("Figure 9b: MD speedup with compression enabled (8 nodes, water)\n")
	fmt.Fprintf(&b, "%8s %12s %12s %9s\n", "atoms", "step off ns", "step on ns", "speedup")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8d %12.0f %12.0f %8.2fx   (paper band %.2f-%.2f)\n",
			p.Atoms, p.StepOffNs, p.StepOnNs, p.Speedup, p.PaperLo, p.PaperHi)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 11

// Fig11Point is one barrier sample.
type Fig11Point struct {
	Hops    int
	Ns      float64
	PaperNs float64
}

// Fig11Result is the fence barrier experiment.
type Fig11Result struct {
	Points []Fig11Point
	Fit    stats.LinFit // over hops >= 1
}

// Fig11 measures GC-to-GC fence barrier latency across hop counts on the
// 128-node machine.
func Fig11() Fig11Result {
	ns := make([]float64, Shape128.Diameter()+1)
	for h := range ns {
		ns[h] = fig11MeasureHop(h)
	}
	return fig11Assemble(ns)
}

// fig11MeasureHop runs one hop count's barrier on a private machine — the
// unit of work one runner sub-job performs.
func fig11MeasureHop(h int) float64 {
	m := machine.New(machine.DefaultConfig(Shape128))
	return m.Barrier(h).Latency.Nanoseconds()
}

// fig11Assemble folds per-hop barrier latencies into the figure.
func fig11Assemble(ns []float64) Fig11Result {
	var res Fig11Result
	var xs, ys []float64
	for h, v := range ns {
		paper := 51.5
		if h >= 1 {
			paper = 91.2 + 51.8*float64(h)
			xs = append(xs, float64(h))
			ys = append(ys, v)
		}
		res.Points = append(res.Points, Fig11Point{Hops: h, Ns: v, PaperNs: paper})
	}
	res.Fit = stats.Fit(xs, ys)
	return res
}

// Render formats the figure.
func (r Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 11: network fence barrier latency (128 nodes, GC-to-GC)\n")
	fmt.Fprintf(&b, "%4s %12s %12s\n", "hops", "measured ns", "paper ns")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%4d %12.1f %12.1f\n", p.Hops, p.Ns, p.PaperNs)
	}
	fmt.Fprintf(&b, "fit: %s   (paper: y = 91.2 + 51.8*x)\n", r.Fit)
	return b.String()
}

// ---------------------------------------------------------------- Figure 12

// Fig12Result is the machine activity experiment.
type Fig12Result struct {
	Atoms      int
	StepOffNs  float64
	StepOnNs   float64
	PlotOff    string
	PlotOn     string
	SummaryOff string
	SummaryOn  string
}

// Fig12 runs the paper's 32,751-atom water system on 8 nodes with
// compression off and on, recording machine activity. shards runs each
// machine across that many kernel shards with byte-identical output.
func Fig12(atoms, steps, shards int) Fig12Result {
	res := Fig12Result{Atoms: atoms}
	for _, comp := range []serdes.CompressConfig{{}, {INZ: true, Pcache: true}} {
		cfg := machine.DefaultConfig(Shape8)
		cfg.Compress = comp
		cfg.Shards = shards
		m := machine.New(cfg)
		sys := md.NewWater(atoms, 300, sim.NewRand(777))
		e := machine.NewEngine(m, sys, machine.DefaultTimestepConfig())
		for i := 0; i < steps-1; i++ {
			e.RunStep() // warm the caches, untraced
		}
		rec := trace.NewRecorder()
		e.AttachChannelTrace(rec)
		last := e.RunStep()
		if comp.Pcache {
			res.StepOnNs = last.Duration.Nanoseconds()
			res.PlotOn = rec.Render(40)
			res.SummaryOn = rec.Summary()
		} else {
			res.StepOffNs = last.Duration.Nanoseconds()
			res.PlotOff = rec.Render(40)
			res.SummaryOff = rec.Summary()
		}
	}
	return res
}

// Render formats the activity plots.
func (r Fig12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: machine activity, %d-atom water on 8 nodes\n", r.Atoms)
	fmt.Fprintf(&b, "\n(a) compression disabled — step %.0f ns (paper ~2000 ns)\n%s%s",
		r.StepOffNs, r.PlotOff, r.SummaryOff)
	fmt.Fprintf(&b, "\n(b) compression enabled — step %.0f ns (paper ~900 ns)\n%s%s",
		r.StepOnNs, r.PlotOn, r.SummaryOn)
	return b.String()
}

// -------------------------------------------------- MD backpressure sweep

// MDQueueDepths are the per-VC ingress queue depths (flits) of the MD
// backpressure sweep, deepest first. The first entry is the effectively
// unbounded baseline every inflation percentage is measured against:
// closed-loop with deep queues isolates the store-and-forward relay model
// from actual credit starvation, so the shallower rows show pure
// endpoint backpressure.
var MDQueueDepths = []int{256, 16, 4}

// MDSweepPoint is one (queue depth) cell of one policy's MD sweep.
type MDSweepPoint struct {
	Policy       string  `json:"policy"`
	QueueFlits   int     `json:"queue_flits"`
	StepNs       float64 `json:"step_ns"`
	ParkedPos    int64   `json:"parked_positions"`
	ParkedFrc    int64   `json:"parked_forces"`
	InflationPct float64 `json:"inflation_pct"` // step-time inflation vs the deep baseline
}

// MDSweepPolicy runs real MD timesteps closed-loop against bounded per-VC
// ingress queues under one routing policy, across MDQueueDepths. Where the
// saturate grid measures synthetic knees, this measures what the actual
// position-multicast and force-return phases of a timestep do to the same
// flow-control machinery: how many injections the network refuses
// (parked), and how much the step stretches when queues shrink. shards
// runs each machine sharded with byte-identical output.
func MDSweepPolicy(pol route.Policy, atoms, steps, shards int) []MDSweepPoint {
	out := make([]MDSweepPoint, 0, len(MDQueueDepths))
	var baseNs float64
	for _, depth := range MDQueueDepths {
		cfg := machine.DefaultConfig(Shape8)
		cfg.Policy = pol
		cfg.Shards = shards
		cfg.VCQueueFlits = depth
		m := machine.New(cfg)
		sys := md.NewWater(atoms, 300, sim.NewRand(777))
		e := machine.NewEngine(m, sys, machine.DefaultTimestepConfig())
		var last machine.StepResult
		var parkedPos, parkedFrc int64
		for i := 0; i < steps; i++ {
			last = e.RunStep()
			parkedPos += last.ParkedPositions
			parkedFrc += last.ParkedForces
		}
		pt := MDSweepPoint{
			Policy:     pol.Name(),
			QueueFlits: depth,
			StepNs:     last.Duration.Nanoseconds(),
			ParkedPos:  parkedPos,
			ParkedFrc:  parkedFrc,
		}
		if baseNs == 0 {
			baseNs = pt.StepNs
		}
		pt.InflationPct = 100 * (pt.StepNs/baseNs - 1)
		out = append(out, pt)
	}
	return out
}

// RenderMDSweep formats one policy's depth sweep.
func RenderMDSweep(atoms, steps int, pts []MDSweepPoint) string {
	var b strings.Builder
	if len(pts) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "MD backpressure: %s over %d-atom water, %d steps (8 nodes, closed loop)\n",
		pts[0].Policy, atoms, steps)
	fmt.Fprintf(&b, "%10s %12s %11s %12s %12s\n",
		"vcq flits", "step ns", "inflation", "parked pos", "parked frc")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10d %12.0f %10.1f%% %12d %12d\n",
			p.QueueFlits, p.StepNs, p.InflationPct, p.ParkedPos, p.ParkedFrc)
	}
	return b.String()
}

// ------------------------------------------------------------------ Tables

// Tables renders Tables I, II and III.
func Tables() string {
	var b strings.Builder
	b.WriteString("Table I: key features of the three Anton ASICs\n")
	b.WriteString(area.FormatTableI())
	b.WriteByte('\n')
	counts := area.ProductionCounts()
	b.WriteString(area.FormatComponents("Table II: network component die area", area.TableII(counts)))
	b.WriteByte('\n')
	b.WriteString(area.FormatComponents("Table III: network feature costs", area.TableIII(counts)))
	return b.String()
}
