package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"anton3/internal/flow"
	"anton3/internal/machine"
	"anton3/internal/md"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/synth"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
	"anton3/internal/traffic"
)

// instance is one workload after set-up: it runs ops and reports the
// counters its layers expose.
type instance interface {
	// op runs op i, folds its simulated result into w and returns the
	// simulated packets it moved. An error means an invariant failed.
	op(i int, w io.Writer, tr *tracer) (pkts int64, err error)
	// layer adds the instance's per-layer counters, measured since set-up,
	// to m. spans holds the traced phase's span totals by name.
	layer(m map[string]float64, ops int, spans map[string]spanStat)
}

// workload is one set of inputs the benchmark runs. BENCHMARK.json and
// README.md say why each exists.
type workload struct {
	name string
	// minOps ops always run, timed or not; their results make the digest.
	minOps int
	// pass is the number of ops in one pass over the workload's inputs. A
	// timed phase runs whole passes, so every run times the same mix.
	pass int
	// setup builds the workload's state from the seed. A non-nil tracer
	// records set-up spans and arms the layers' own counters.
	setup func(seed uint64, tiny bool, tr *tracer) instance
}

var workloads = []*workload{
	{name: "md_compress", minOps: 10, pass: 1, setup: newMDCompress},
	{name: "md_timestep", minOps: 10, pass: 1, setup: newMDTimestep},
	{name: "net_open", minOps: len(openGrid), pass: len(openGrid), setup: newNetOpen},
	{name: "net_closed", minOps: len(closedGrid), pass: len(closedGrid), setup: newNetClosed},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// tinyOps is the op count of a run at the tiny size the tests use.
const tinyOps = 3

// shape8 is the 8-node machine of the paper's MD figures.
var shape8 = topo.Shape{X: 2, Y: 2, Z: 2}

// warmSteps fill the particle caches before the timed phase.
const warmSteps = 2

// ------------------------------------------------------------ md_compress

type mdCompress struct {
	sys       *md.System
	inz, both *traffic.Replayer
	base      serdes.Stats // both's counters at the end of set-up
}

func newMDCompress(seed uint64, tiny bool, tr *tracer) instance {
	atoms := 16000 // the second Fig 9a size
	if tiny {
		atoms = 600
	}
	w := &mdCompress{}
	tr.span("setup.water", func() { w.sys = md.NewWater(atoms, 300, sim.NewRand(seed)) })
	tr.span("setup.machine", func() {
		w.inz = traffic.NewReplayer(shape8, w.sys.Box, serdes.CompressConfig{INZ: true})
		w.both = traffic.NewReplayer(shape8, w.sys.Box, serdes.CompressConfig{INZ: true, Pcache: true})
	})
	for i := 0; i < warmSteps; i++ {
		w.inz.ReplayStep(w.sys)
		w.both.ReplayStep(w.sys)
		w.sys.Step()
	}
	w.base = w.both.Stats()
	return w
}

func (w *mdCompress) op(_ int, out io.Writer, tr *tracer) (int64, error) {
	a0, b0 := w.inz.Stats(), w.both.Stats()
	tr.span("traffic.replay_inz", func() { w.inz.ReplayStep(w.sys) })
	tr.span("traffic.replay_pcache", func() { w.both.ReplayStep(w.sys) })
	tr.span("md.step", w.sys.Step)
	a, b := traffic.Delta(w.inz.Stats(), a0), traffic.Delta(w.both.Stats(), b0)
	fold(out, a.Packets, a.WireBits, b.Packets, b.WireBits, b.PcacheHits, math.Float64bits(w.sys.Potential))
	pkts := int64(a.Packets + b.Packets)
	if !w.inz.InSync() || !w.both.InSync() {
		return pkts, errors.New("particle cache pair out of sync")
	}
	for _, st := range []serdes.Stats{a, b} {
		if r := st.Reduction(); !(r > 0 && r < 1) {
			return pkts, fmt.Errorf("traffic reduction %v outside (0, 1)", r)
		}
	}
	return pkts, nil
}

func (w *mdCompress) layer(m map[string]float64, _ int, spans map[string]spanStat) {
	compressRatios(m, traffic.Delta(w.both.Stats(), w.base))
	// One pair count outside the spans: the trajectory is equilibrated,
	// so the count barely moves over the phase.
	if st := spans["md.step"]; st.n > 0 {
		m["md.ns_per_pair"] = float64(st.self.Nanoseconds()) / float64(st.n) / float64(w.sys.PairCount())
	}
}

// compressRatios reports the compression layer's outcome ratios, each
// with its base: hits+misses, baseline bits and packets.
func compressRatios(m map[string]float64, st serdes.Stats) {
	m["pcache.hit_rate"] = ratio(st.PcacheHits, st.PcacheHits+st.PcacheMisses)
	m["serdes.wire_ratio"] = ratio(st.WireBits, st.BaselineBits)
	m["inz.raw_fallback_ratio"] = ratio(st.RawINZPayloads, st.Packets)
}

// ------------------------------------------------------------ md_timestep

type mdTimestep struct {
	off, on       *machine.Engine
	mOff, mOn     *machine.Machine
	sysOff, sysOn *md.System
	baseOn        serdes.Stats
	baseEvents    uint64
}

func newMDTimestep(seed uint64, tiny bool, tr *tracer) instance {
	// The smallest Fig 9b size. Per step, event-kernel work grows more slowly
	// with the atom count than pair forces do, so a smaller system would
	// overstate sim's share of the served runs.
	atoms := 8000
	if tiny {
		atoms = 400
	}
	w := &mdTimestep{}
	build := func(comp serdes.CompressConfig) (*machine.Engine, *machine.Machine, *md.System) {
		var m *machine.Machine
		var sys *md.System
		var e *machine.Engine
		tr.span("setup.water", func() { sys = md.NewWater(atoms, 300, sim.NewRand(seed)) })
		tr.span("setup.machine", func() {
			cfg := machine.DefaultConfig(shape8)
			cfg.Compress = comp
			m = machine.New(cfg)
			e = machine.NewEngine(m, sys, machine.DefaultTimestepConfig())
		})
		return e, m, sys
	}
	w.off, w.mOff, w.sysOff = build(serdes.CompressConfig{})
	w.on, w.mOn, w.sysOn = build(serdes.CompressConfig{INZ: true, Pcache: true})
	for i := 0; i < warmSteps; i++ {
		w.off.RunStep()
		w.on.RunStep()
	}
	w.baseOn = w.mOn.TotalWireStats()
	w.baseEvents = w.events()
	return w
}

func (w *mdTimestep) events() uint64 {
	return w.mOff.ShardKernel(0).EventsFired() + w.mOn.ShardKernel(0).EventsFired()
}

func (w *mdTimestep) op(_ int, out io.Writer, tr *tracer) (int64, error) {
	p0 := w.mOff.TotalWireStats().Packets + w.mOn.TotalWireStats().Packets
	var off, on machine.StepResult
	tr.span("machine.runstep_off", func() { off = w.off.RunStep() })
	tr.span("machine.runstep_on", func() { on = w.on.RunStep() })
	pkts := int64(w.mOff.TotalWireStats().Packets + w.mOn.TotalWireStats().Packets - p0)
	fold(out, uint64(off.Duration), uint64(on.Duration), uint64(pkts),
		math.Float64bits(off.PPIMBusyMax), math.Float64bits(on.PPIMBusyMax), math.Float64bits(w.sysOn.Potential))
	for _, m := range []*machine.Machine{w.mOff, w.mOn} {
		if err := m.CheckChannelSync(); err != nil {
			return pkts, err
		}
	}
	// Compression is transparent to the endpoints, so both engines
	// integrate the same trajectory bit for bit.
	if w.sysOff.Potential != w.sysOn.Potential {
		return pkts, fmt.Errorf("trajectories diverged: potential %v with compression off, %v on",
			w.sysOff.Potential, w.sysOn.Potential)
	}
	if off.Duration <= 0 || on.Duration <= 0 {
		return pkts, fmt.Errorf("non-positive step time: off %v, on %v", off.Duration, on.Duration)
	}
	return pkts, nil
}

func (w *mdTimestep) layer(m map[string]float64, ops int, spans map[string]spanStat) {
	compressRatios(m, traffic.Delta(w.mOn.TotalWireStats(), w.baseOn))
	events := w.events() - w.baseEvents
	m["sim.events_per_op"] = float64(events) / float64(ops)
	busy := spans["machine.runstep_off"].self + spans["machine.runstep_on"].self
	m["sim.ns_per_event"] = ratio(uint64(busy.Nanoseconds()), events)
}

// --------------------------------------------------------------- net grids

// gridPoint is one (policy, pattern, load) cell of a network sweep.
type gridPoint struct {
	h    int // index of the harness serving the policy
	pat  synth.Pattern
	load float64
}

// grid lists the cells policy-fastest, so that any short prefix of ops
// already touches every policy. The heaviest cell comes last.
func grid(npol int, pats []synth.Pattern, loads []float64) []gridPoint {
	var g []gridPoint
	for _, load := range loads {
		for _, pat := range pats {
			for h := 0; h < npol; h++ {
				g = append(g, gridPoint{h: h, pat: pat, load: load})
			}
		}
	}
	return g
}

var (
	openPolicies = route.Policies()
	openGrid     = grid(len(openPolicies),
		[]synth.Pattern{synth.Uniform(), synth.BitComplement(), synth.Transpose(), synth.Tornado(), synth.HotSpot()},
		[]float64{0.5, 3})
	closedPolicies = route.SaturatePolicies()
	closedGrid     = grid(len(closedPolicies),
		[]synth.Pattern{synth.BitComplement(), synth.Uniform()},
		[]float64{0.5, 1, 1.5, 2})
)

// pointSeed derives op i's point seed from the run seed: every pass over
// the grid draws fresh traffic.
func pointSeed(seed uint64, i int) uint64 { return splitmix(splitmix(seed) + uint64(i)) }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// telemetrySince sums the counters the harnesses gathered since base.
func telemetrySince[H interface{ Telemetry() *telemetry.Shard }](hs []H, base []telemetry.Shard) telemetry.Summary {
	var d telemetry.Shard
	for i, h := range hs {
		for c := range d.Ctr {
			d.Ctr[c] += h.Telemetry().Ctr[c] - base[i].Ctr[c]
		}
	}
	return d.Summary()
}

// netRatios reports the flow-control counters, each with its base.
func netRatios(m map[string]float64, s telemetry.Summary, ops int) {
	m["net.park_events_per_op"] = float64(s.ParkEvents) / float64(ops)
	m["net.escape_vc_ratio"] = ratio(uint64(s.EscapeEntries), uint64(s.Delivered))
	if s.Delivered > 0 {
		m["net.credit_stall_ns_per_pkt"] = s.CreditStallNs / float64(s.Delivered)
	}
}

// --------------------------------------------------------------- net_open

type netOpen struct {
	hs              []*synth.Harness
	base            []telemetry.Shard
	seed            uint64
	packets, warmup int
	nodes           int
}

func newNetOpen(seed uint64, tiny bool, tr *tracer) instance {
	w := &netOpen{seed: seed, packets: 24, warmup: 8}
	shape := topo.Shape{X: 8, Y: 8, Z: 8}
	if tiny {
		shape, w.packets, w.warmup = topo.Shape{X: 2, Y: 2, Z: 4}, 4, 2
	}
	w.nodes = shape.Nodes()
	heavy := openGrid[len(openGrid)-1]
	for _, pol := range openPolicies {
		var h *synth.Harness
		tr.span("setup.machine", func() { h = synth.NewHarness(shape, pol, 1) })
		if tr != nil {
			h.EnableMetrics()
		}
		// The heaviest point sizes the harness's reusable buffers.
		h.RunPoint(heavy.pat, heavy.load, w.packets, w.warmup, splitmix(seed))
		w.hs = append(w.hs, h)
		w.base = append(w.base, *h.Telemetry())
	}
	return w
}

func (w *netOpen) op(i int, out io.Writer, tr *tracer) (int64, error) {
	g := openGrid[i%len(openGrid)]
	var pt synth.Point
	// RunPoint panics unless every measured packet is delivered.
	tr.span("synth.point", func() {
		pt = w.hs[g.h].RunPoint(g.pat, g.load, w.packets, w.warmup, pointSeed(w.seed, i))
	})
	fold(out, math.Float64bits(pt.AvgNs), math.Float64bits(pt.P99Ns), math.Float64bits(pt.AvgHops), math.Float64bits(pt.TailNs))
	pkts := int64(w.nodes * (w.packets + w.warmup))
	if !(pt.AvgNs > 0 && pt.P99Ns >= pt.AvgNs && pt.TailNs >= 0) {
		return pkts, fmt.Errorf("implausible point %+v", pt)
	}
	return pkts, nil
}

func (w *netOpen) layer(m map[string]float64, ops int, _ map[string]spanStat) {
	netRatios(m, telemetrySince(w.hs, w.base), ops)
}

// ------------------------------------------------------------- net_closed

type netClosed struct {
	hs                []*flow.Harness
	base              []telemetry.Shard
	seed              uint64
	packets, warmup   int
	nodes             int
	offered, accepted float64
}

func newNetClosed(seed uint64, tiny bool, tr *tracer) instance {
	w := &netClosed{seed: seed, packets: 96, warmup: 24}
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	if tiny {
		shape, w.packets, w.warmup = topo.Shape{X: 2, Y: 2, Z: 4}, 6, 2
	}
	w.nodes = shape.Nodes()
	heavy := closedGrid[len(closedGrid)-1]
	for _, pol := range closedPolicies {
		var h *flow.Harness
		tr.span("setup.machine", func() { h = flow.NewHarness(shape, pol, 1, 0, 0) })
		if tr != nil {
			h.EnableMetrics()
		}
		w.point(h, heavy.pat, heavy.load, splitmix(seed))
		w.hs = append(w.hs, h)
		w.base = append(w.base, *h.Telemetry())
	}
	return w
}

// point runs one closed-loop point and returns it with the number of
// packets offered. RunPoint scales per-node budgets by max(1, load) to keep
// the offered horizon fixed; point takes back the square root of that
// scale first, so op times stay within about 2x of each other.
func (w *netClosed) point(h *flow.Harness, pat synth.Pattern, load float64, seed uint64) (flow.Point, int) {
	scale := math.Max(1, load)
	packets := int(math.Ceil(float64(w.packets) / math.Sqrt(scale)))
	warmup := int(math.Ceil(float64(w.warmup) / math.Sqrt(scale)))
	pt := h.RunPoint(pat, load, packets, warmup, seed)
	return pt, w.nodes * int(math.Ceil(float64(packets)*scale)+math.Ceil(float64(warmup)*scale))
}

func (w *netClosed) op(i int, out io.Writer, tr *tracer) (int64, error) {
	g := closedGrid[i%len(closedGrid)]
	var pt flow.Point
	var offered int
	tr.span("flow.point", func() { pt, offered = w.point(w.hs[g.h], g.pat, g.load, pointSeed(w.seed, i)) })
	fold(out, math.Float64bits(pt.Offered), math.Float64bits(pt.Accepted), math.Float64bits(pt.AvgNs),
		math.Float64bits(pt.P99Ns), uint64(pt.Undelivered))
	w.offered += pt.Offered
	w.accepted += pt.Accepted
	pkts := int64(offered - pt.Undelivered)
	if pt.Undelivered != 0 {
		return pkts, fmt.Errorf("%d packets undelivered", pt.Undelivered)
	}
	if !(pt.Accepted > 0 && pt.Accepted <= pt.Offered*(1+1e-12)) {
		return pkts, fmt.Errorf("accepted %v outside (0, offered %v]", pt.Accepted, pt.Offered)
	}
	return pkts, nil
}

func (w *netClosed) layer(m map[string]float64, ops int, _ map[string]spanStat) {
	netRatios(m, telemetrySince(w.hs, w.base), ops)
	if w.offered > 0 {
		m["flow.accept_ratio"] = w.accepted / w.offered
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// fold writes vals into a digest.
func fold(w io.Writer, vals ...uint64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		w.Write(b[:])
	}
}
