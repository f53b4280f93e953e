package experiments

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"anton3/internal/fault"
	"anton3/internal/flow"
	"anton3/internal/resultstore"
	"anton3/internal/route"
	"anton3/internal/runner"
	"anton3/internal/sim"
	"anton3/internal/synth"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
	"anton3/internal/trace"
)

// Fig5Seed is the pair-sampling seed of the paper runs of Figure 5.
const Fig5Seed = 99

// Params sizes every experiment job. The zero value is not useful; start
// from DefaultParams (the sizes cmd/anton3 has always used) and override.
type Params struct {
	Fig5Pairs    int   // sampled GC pairs per hop count
	Fig9aSizes   []int // atom counts for the traffic-reduction sweep
	Fig9aWarm    int   // warmup steps excluded from the fig9a window
	Fig9aMeasure int   // measured steps in the fig9a window
	Fig9bSizes   []int // atom counts for the speedup sweep
	Fig9bSteps   int   // timesteps per fig9b sample
	Fig12Atoms   int   // the paper's activity-plot system size
	Fig12Steps   int   // timesteps for fig12 (last one is traced)

	AblPredictorAtoms int   // predictor-order ablation system size
	AblPcacheAtoms    int   // pcache size-sweep system size
	AblPcacheSizes    []int // pcache capacities swept
	AblINZAtoms       int   // INZ interleave ablation system size
	AblDimWrites      int   // writes per node in the dimension-order ablation

	// NetShapes, NetLoads, NetPackets and NetWarmup size the sweep grids
	// (netsweep, saturate, faultsweep): one cell per shape x pattern, each
	// sweeping its policies across the offered loads with that many
	// measured and warmup packets per node per run. The closed-loop grids
	// read the budgets at unit load (their harness scales them with the
	// load so the offered horizon stays load-independent).
	NetShapes  []topo.Shape
	NetLoads   []float64
	NetPackets int
	NetWarmup  int
	// Shards shards each sweep-cell and timestep-engine machine (netsweep,
	// saturate, faultsweep, fig9b, fig12, mdsweep) across that many kernels
	// (conservative-lookahead parallel simulation; see machine.Config.
	// Shards). Output is byte-identical at every value; 0 or 1 is the
	// sequential machine.
	Shards int

	// SatQueueFlits and SatInjDepth configure the closed-loop grids' per-VC
	// ingress queue depth and per-source injection window; 0 takes the
	// flow package defaults (bandwidth-delay-product queues, 8-slot
	// windows).
	SatQueueFlits int
	SatInjDepth   int

	// MDAtoms and MDSteps size each mdsweep cell.
	MDAtoms int
	MDSteps int

	// FaultSeed seeds the drawn fault-severity grid (fault.SeverityGrid):
	// which links each severity degrades or kills is a deterministic
	// function of (shape, FaultSeed).
	FaultSeed uint64
	// FaultPlan, when non-empty, replaces the drawn grid with two rows —
	// the healthy baseline and this custom plan (fault.Parse syntax). The
	// CLI validates it against every selected shape before jobs build.
	FaultPlan string

	// Cache, when non-nil, memoizes the grid cells (netsweep, saturate,
	// mdsweep) at two levels: whole cells short-circuit through
	// runner.Job.CacheKey, and the saturate cells additionally memoize
	// every closed-loop point — sweep loads and knee-search probes —
	// inside flow. Results are a pure function of (config, seed), so
	// caching changes wall time and the -json cache counters only, never
	// a byte of output. nil (the default) runs everything.
	Cache *resultstore.Store

	// Metrics arms the deterministic telemetry layer on the sweep cells
	// (netsweep, saturate, faultsweep): curves carry counter/histogram
	// summaries and renders append "telemetry" lines. Metrics-on cells
	// cache under "+tel" kinds, so they never share entries with plain
	// runs of the same configuration.
	Metrics bool
	// Trace, when non-nil, arms packet-lifecycle tracing on the same
	// cells; each cell drains its tracks into the sink under its job
	// name. Traced cells never cache — a hit would skip the simulated
	// work whose lifecycle the trace records.
	Trace *telemetry.TraceSink
}

// DefaultParams returns the paper-scale configuration.
func DefaultParams() Params {
	return Params{
		Fig5Pairs:    6,
		Fig9aSizes:   []int{8000, 16000, 32751, 65000, 131000},
		Fig9aWarm:    3,
		Fig9aMeasure: 4,
		Fig9bSizes:   []int{8000, 16000, 32751, 65000},
		Fig9bSteps:   3,
		Fig12Atoms:   32751,
		Fig12Steps:   3,

		AblPredictorAtoms: 8000,
		AblPcacheAtoms:    32751,
		AblPcacheSizes:    []int{256, 512, 1024, 2048, 4096},
		AblINZAtoms:       8000,
		AblDimWrites:      60,

		// The paper's 128-node measurement machine plus the 512-node
		// production scale; 8x8x16 (1024 nodes) is a -shapes flag away.
		NetShapes:  []topo.Shape{{X: 4, Y: 4, Z: 8}, {X: 8, Y: 8, Z: 8}},
		NetLoads:   []float64{0.5, 1, 2, 3, 4},
		NetPackets: 96,
		NetWarmup:  32,

		MDAtoms: 8000,
		MDSteps: 2,

		FaultSeed: 1,
	}
}

// fig5Jobs shards the Figure 5 hop sweep: pair samples are drawn in the
// historical rng order (lazily, once, on whichever worker needs them
// first), each hop count measures on its own worker (hidden sub-jobs),
// and a reducer assembles the figure — so the runner load-balances the
// sweep with output identical to the sequential run.
func fig5Jobs(p Params) []runner.Job {
	samples := sync.OnceValue(func() [][]fig5Pair {
		return fig5SamplePairs(sim.NewRand(Fig5Seed), p.Fig5Pairs)
	})
	hops := Shape128.Diameter() + 1
	jobs := make([]runner.Job, 0, hops+1)
	needs := make([]string, hops)
	for h := 0; h < hops; h++ {
		h := h
		name := fmt.Sprintf("fig5/h%d", h)
		needs[h] = name
		jobs = append(jobs, runner.Job{
			Name: name, Seed: Fig5Seed, Cost: 0.4, Hidden: true,
			Run: func() (runner.Output, error) {
				return runner.Output{Data: fig5MeasureHop(samples()[h])}, nil
			}})
	}
	jobs = append(jobs, runner.Job{
		Name: "fig5", Seed: Fig5Seed, Cost: 0.01, Needs: needs,
		Reduce: func(in []runner.Result) (runner.Output, error) {
			perHop := make([][]float64, len(in))
			for i, res := range in {
				if res.Err != "" {
					return runner.Output{}, fmt.Errorf("%s: %s", res.Name, res.Err)
				}
				perHop[i] = res.Data.([]float64)
			}
			r := fig5Assemble(perHop)
			return runner.Output{Text: r.Render(), Data: r}, nil
		}})
	return jobs
}

// fig11Jobs shards the Figure 11 barrier sweep the same way.
func fig11Jobs() []runner.Job {
	hops := Shape128.Diameter() + 1
	jobs := make([]runner.Job, 0, hops+1)
	needs := make([]string, hops)
	for h := 0; h < hops; h++ {
		h := h
		name := fmt.Sprintf("fig11/h%d", h)
		needs[h] = name
		jobs = append(jobs, runner.Job{
			Name: name, Seed: 5, Cost: 0.12, Hidden: true,
			Run: func() (runner.Output, error) {
				return runner.Output{Data: fig11MeasureHop(h)}, nil
			}})
	}
	jobs = append(jobs, runner.Job{
		Name: "fig11", Seed: 5, Cost: 0.01, Needs: needs,
		Reduce: func(in []runner.Result) (runner.Output, error) {
			ns := make([]float64, len(in))
			for i, res := range in {
				if res.Err != "" {
					return runner.Output{}, fmt.Errorf("%s: %s", res.Name, res.Err)
				}
				ns[i] = res.Data.(float64)
			}
			r := fig11Assemble(ns)
			return runner.Output{Text: r.Render(), Data: r}, nil
		}})
	return jobs
}

// fig9aJobs shards the Figure 9a sweep the same way, one hidden sub-job
// per atom count: each integrates and replays its own trajectory, and the
// reducer lists the points in size order. Costs split the figure's
// historical 30 by atom count, the replay and force work's scale.
func fig9aJobs(p Params) []runner.Job {
	return sizeJobs("fig9a", 3, 30, p.Fig9aSizes, func(job runner.Job, n int) runner.Job {
		job.Run = func() (runner.Output, error) {
			return runner.Output{Data: fig9aPoint(n, p.Fig9aWarm, p.Fig9aMeasure)}, nil
		}
		return job
	}, RenderFig9a)
}

// fig9bJobs shards Figure 9b likewise, each shardable sub-job timing its
// own pair of machines, with costs splitting the figure's historical 20.
func fig9bJobs(p Params) []runner.Job {
	return sizeJobs("fig9b", 4, 20, p.Fig9bSizes, func(job runner.Job, n int) runner.Job {
		return shardable(job, p.Shards, func(shards int) runner.Output {
			return runner.Output{Data: fig9bPoint(n, p.Fig9bSteps, shards)}
		})
	}, RenderFig9b)
}

// sizeJobs registers one hidden sub-job per atom count, named fig/<n>,
// whose cost is the figure's cost split by atom count; withRun sets the
// sub-job's body, whose Data is one point. A reducer named fig renders
// the points in size order.
func sizeJobs[T any](fig string, seed uint64, cost float64, sizes []int, withRun func(job runner.Job, n int) runner.Job, render func([]T) string) []runner.Job {
	total := 0
	for _, n := range sizes {
		total += n
	}
	jobs := make([]runner.Job, 0, len(sizes)+1)
	needs := make([]string, len(sizes))
	for i, n := range sizes {
		needs[i] = fmt.Sprintf("%s/%d", fig, n)
		jobs = append(jobs, withRun(runner.Job{
			Name: needs[i], Seed: seed, Cost: cost * float64(n) / float64(total), Hidden: true,
		}, n))
	}
	return append(jobs, runner.Job{
		Name: fig, Seed: seed, Cost: 0.01, Needs: needs,
		Reduce: func(in []runner.Result) (runner.Output, error) {
			pts := make([]T, len(in))
			for i, res := range in {
				if res.Err != "" {
					return runner.Output{}, fmt.Errorf("%s: %s", res.Name, res.Err)
				}
				pts[i] = res.Data.(T)
			}
			return runner.Output{Text: render(pts), Data: pts}, nil
		}})
}

// cellKey builds a grid cell's cache key under the observability gates:
// metrics-on cells move to a "+tel" kind (payload and stdout then carry
// telemetry), and traced cells don't cache at all — a cell hit would
// skip the simulation whose lifecycle the trace records.
func cellKey(p Params, kind string, seed uint64, cfg any) resultstore.Key {
	if p.Trace != nil {
		return resultstore.Key{}
	}
	if p.Metrics {
		kind += "+tel"
	}
	return resultstore.KeyFor(kind, seed, cfg)
}

// policyNames flattens a policy list into the cache-key config: the
// policy set is part of what a cell's output depends on.
func policyNames(pols []route.Policy) []string {
	names := make([]string, len(pols))
	for i, p := range pols {
		names[i] = p.Name()
	}
	return names
}

// sweepCellCfg is the canonical cache-key config of one open- or
// closed-loop grid cell. Shard and worker counts are deliberately
// absent: cell output is shard-invariant, so a result computed at any
// -shards/-jobs serves every other.
type sweepCellCfg struct {
	Shape    string
	Pattern  string
	Policies []string
	Loads    []float64
	Packets  int
	Warmup   int
	// QueueFlits/InjDepth only apply to closed-loop cells; they hold the
	// resolved depths, not the 0 the flags pass for "default", so a
	// default-depth run and an explicit -vcq 64 run share entries.
	QueueFlits int
	InjDepth   int
}

// faultCellCfg is sweepCellCfg plus a faultsweep cell's severity rows,
// each canonicalized as "<name>=<plan>", so a different -faultseed
// (different drawn links) or -faults plan can never collide with a cached
// cell. The fields stay flat: the key hashes field names, so nesting
// sweepCellCfg would change every faultsweep key.
type faultCellCfg struct {
	Shape      string
	Pattern    string
	Policies   []string
	Loads      []float64
	Packets    int
	Warmup     int
	QueueFlits int
	InjDepth   int
	Severities []string
}

// shardable sets a job's Run and ShardRun from one body parameterized by
// the kernel shard count. Run uses the configured count; when that count
// leaves the machine sequential, ShardRun lets the pool run the job across
// spare cores at dispatch (-autoshard). The simulators guarantee output
// byte-identical at every shard count, so either path prints the same.
func shardable(job runner.Job, shards int, run func(shards int) runner.Output) runner.Job {
	job.Run = func() (runner.Output, error) { return run(shards), nil }
	if shards <= 1 {
		job.ShardRun = func(n int) (runner.Output, error) { return run(n), nil }
	}
	return job
}

// sweepGrid is one shape x pattern grid of sweep cells (netsweep,
// saturate, faultsweep): each cell sweeps the grid's policies across
// Params.NetLoads on one shape under one synthetic pattern.
type sweepGrid struct {
	name     string  // job-name prefix and cell cache kind
	seed     uint64  // cell (shape si, pattern pi) runs with seed+100*si+pi
	cost     float64 // runtime hint per 16 nodes
	policies []route.Policy
	closed   bool // closed-loop cells: queue depths join the cache key
	faults   bool // faultsweep cells: a severity grid per shape
	// run simulates one cell; sevs is nil unless faults is set.
	run func(s flow.Spec, sevs []fault.Severity) runner.Output
}

// gridJobs registers one job per shape x pattern of a sweep grid. Seeds
// depend on position only, so the grid decomposes freely across workers,
// and cells are shardable. Each cell carries a content-addressed cache
// key (kind "cell/<grid>"), armed when the pool runs with a result store;
// on a cell miss, closed-loop cells also memoize every point — swept
// loads and knee probes — inside flow, so a knee search never
// re-simulates a probe any invocation has seen. Healthy faultsweep points
// share those entries with saturate's.
func gridJobs(p Params, g sweepGrid) []runner.Job {
	var qf, injd int
	if g.closed {
		qf, injd = p.SatQueueFlits, p.SatInjDepth
		if qf <= 0 {
			qf = flow.DefaultQueueFlits
		}
		if injd <= 0 {
			injd = flow.DefaultInjDepth
		}
	}
	// Traced cells skip the point cache too: hits would leave holes in
	// the trace.
	cache := p.Cache
	if p.Trace != nil {
		cache = nil
	}
	var jobs []runner.Job
	for si, shape := range p.NetShapes {
		var sevs []fault.Severity
		var canons []string
		if g.faults {
			sevs = faultSevs(p, shape)
			for _, sev := range sevs {
				canons = append(canons, sev.Name+"="+sev.Plan.Canon())
			}
		}
		for pi, pat := range synth.Patterns() {
			seed := g.seed + uint64(100*si+pi)
			name := fmt.Sprintf("%s/%s/%s", g.name, shape, pat.Name)
			cfg := sweepCellCfg{
				Shape:      shape.String(),
				Pattern:    pat.Name,
				Policies:   policyNames(g.policies),
				Loads:      p.NetLoads,
				Packets:    p.NetPackets,
				Warmup:     p.NetWarmup,
				QueueFlits: qf,
				InjDepth:   injd,
			}
			var key any = cfg
			if g.faults {
				key = faultCellCfg{cfg.Shape, cfg.Pattern, cfg.Policies, cfg.Loads, cfg.Packets, cfg.Warmup,
					cfg.QueueFlits, cfg.InjDepth, canons}
			}
			spec := flow.Spec{
				Spec: synth.Spec{Shape: shape, Policies: g.policies, Pattern: pat, Loads: p.NetLoads,
					Packets: p.NetPackets, Warmup: p.NetWarmup, Seed: seed, Metrics: p.Metrics},
				QueueFlits: qf,
				InjDepth:   injd,
				Cache:      cache,
			}
			job := runner.Job{
				Name:     name,
				Seed:     seed,
				Cost:     g.cost * float64(shape.Nodes()) / 16,
				CacheKey: cellKey(p, "cell/"+g.name, seed, key),
			}
			jobs = append(jobs, shardable(job, p.Shards, func(shards int) runner.Output {
				s := spec
				s.Shards = shards
				if p.Trace != nil {
					s.Trace = trace.NewRecorder()
				}
				out := g.run(s, sevs)
				if s.Trace != nil {
					p.Trace.Add(name, s.Trace)
				}
				return out
			}))
		}
	}
	return jobs
}

// mdsweepJobs registers the closed-loop MD backpressure grid: one job per
// routing policy (the saturate quartet), each sweeping the per-VC queue
// depths over real MD timesteps. Every cell pre-draws its randomness from
// the water seed alone, so the grid decomposes freely across workers and
// shards with byte-identical output.
func mdsweepJobs(p Params) []runner.Job {
	var jobs []runner.Job
	for pi, pol := range route.SaturatePolicies() {
		pol := pol
		seed := uint64(9500 + pi)
		job := runner.Job{
			Name: "mdsweep/" + pol.Name(),
			Seed: seed,
			// Each cell runs len(MDQueueDepths) full timestep pipelines
			// at the fig9b 8000-atom scale.
			Cost: 10,
			CacheKey: resultstore.KeyFor("cell/mdsweep", seed, struct {
				Policy string
				Atoms  int
				Steps  int
				Depths []int
			}{pol.Name(), p.MDAtoms, p.MDSteps, MDQueueDepths}),
		}
		jobs = append(jobs, shardable(job, p.Shards, func(shards int) runner.Output {
			pts := MDSweepPolicy(pol, p.MDAtoms, p.MDSteps, shards)
			return runner.Output{Text: RenderMDSweep(p.MDAtoms, p.MDSteps, pts), Data: pts}
		}))
	}
	return jobs
}

// faultSevs resolves the fault-severity grid one faultsweep cell runs: the
// custom [healthy, plan] pair when Params.FaultPlan is set (the CLI has
// already validated it against every selected shape — a parse failure here
// is a programming error), the drawn grid otherwise.
func faultSevs(p Params, shape topo.Shape) []fault.Severity {
	if shape.Nodes() == 1 {
		// No link to fault, and SeverityGrid would search for one forever.
		return []fault.Severity{{Name: "healthy"}}
	}
	if p.FaultPlan == "" {
		return fault.SeverityGrid(shape, p.FaultSeed)
	}
	plan, err := fault.Parse(p.FaultPlan)
	if err != nil {
		panic("experiments: unvalidated fault plan: " + err.Error())
	}
	return []fault.Severity{{Name: "healthy"}, {Name: "custom", Plan: *plan}}
}

// Jobs returns every table, figure and ablation of the paper as runner
// jobs, in the order cmd/anton3 has always printed them, followed by the
// sweep grids: netsweep, then the opt-in saturate, mdsweep and faultsweep
// grids that SelectJobs keeps out of "all". Each job owns a private
// machine and kernel, so the set can run on any worker count with
// byte-identical output. Cost hints come from measured paper-scale
// runtimes and only shape dispatch order, never output.
func Jobs(p Params) []runner.Job {
	jobs := []runner.Job{
		{Name: "tables", Seed: 1, Cost: 0.1,
			Run: func() (runner.Output, error) {
				return runner.Output{Text: Tables()}, nil
			}},
	}
	jobs = append(jobs, fig5Jobs(p)...)
	jobs = append(jobs, runner.Job{Name: "fig6", Seed: 2, Cost: 0.1,
		Run: func() (runner.Output, error) {
			r := Fig6()
			return runner.Output{Text: r.Render(), Data: r}, nil
		}})
	jobs = append(jobs, fig9aJobs(p)...)
	jobs = append(jobs, fig9bJobs(p)...)
	jobs = append(jobs, fig11Jobs()...)
	jobs = append(jobs,
		shardable(runner.Job{Name: "fig12", Seed: 6, Cost: 15}, p.Shards, func(shards int) runner.Output {
			r := Fig12(p.Fig12Atoms, p.Fig12Steps, shards)
			return runner.Output{Text: r.Render(), Data: r}
		}),
		runner.Job{Name: "ablation-predictor-order", Seed: 7, Cost: 2,
			Run: func() (runner.Output, error) {
				rows := AblationPredictorOrder(p.AblPredictorAtoms, 3, 3)
				return runner.Output{
					Text: RenderAblation(fmt.Sprintf("Ablation: pcache predictor order (%d atoms)", p.AblPredictorAtoms), rows),
					Data: rows,
				}, nil
			}},
		runner.Job{Name: "ablation-pcache-size", Seed: 8, Cost: 10,
			Run: func() (runner.Output, error) {
				rows := AblationPcacheSize(p.AblPcacheAtoms, 2, 2, p.AblPcacheSizes)
				return runner.Output{
					Text: RenderAblation(fmt.Sprintf("Ablation: pcache size sweep (%d atoms)", p.AblPcacheAtoms), rows),
					Data: rows,
				}, nil
			}},
		runner.Job{Name: "ablation-inz-interleave", Seed: 9, Cost: 0.5,
			Run: func() (runner.Output, error) {
				rows := AblationINZInterleave(p.AblINZAtoms)
				return runner.Output{
					Text: RenderAblation(fmt.Sprintf("Ablation: INZ interleave vs truncation (%d atoms)", p.AblINZAtoms), rows),
					Data: rows,
				}, nil
			}},
		runner.Job{Name: "ablation-fence-vs-pairwise", Seed: 10, Cost: 1,
			Run: func() (runner.Output, error) {
				rows := AblationFenceVsPairwise(topo.Shape{X: 4, Y: 4, Z: 8})
				return runner.Output{
					Text: RenderAblation("Ablation: fence vs pairwise barrier (128 nodes)", rows),
					Data: rows,
				}, nil
			}},
		runner.Job{Name: "ablation-dim-orders", Seed: 11, Cost: 1.5,
			Run: func() (runner.Output, error) {
				rows := AblationDimOrders(p.AblDimWrites)
				return runner.Output{
					Text: RenderAblation("Ablation: routing policy under uniform-random load", rows),
					Data: rows,
				}, nil
			}},
	)
	jobs = append(jobs, gridJobs(p, sweepGrid{name: "netsweep", seed: 7000, cost: 0.1, policies: route.Policies(),
		run: func(s flow.Spec, _ []fault.Severity) runner.Output {
			r := synth.Sweep(s.Spec)
			return runner.Output{Text: r.Render(), Data: r}
		}})...)
	// A saturate cell runs ~4 policies x (sweep + knee probes) of
	// load-scaled closed-loop points, roughly 5x a netsweep cell; a
	// faultsweep cell runs one such knee search per severity.
	jobs = append(jobs, gridJobs(p, sweepGrid{name: "saturate", seed: 9000, cost: 0.5,
		policies: route.SaturatePolicies(), closed: true,
		run: func(s flow.Spec, _ []fault.Severity) runner.Output {
			r := flow.Sweep(s)
			return runner.Output{Text: r.Render(), Data: r}
		}})...)
	jobs = append(jobs, mdsweepJobs(p)...)
	return append(jobs, gridJobs(p, sweepGrid{name: "faultsweep", seed: 9700, cost: 2.5,
		policies: route.SaturatePolicies(), closed: true, faults: true,
		run: func(s flow.Spec, sevs []fault.Severity) runner.Output {
			r := flow.FaultSweep(s, sevs)
			return runner.Output{Text: r.Render(), Data: r}
		}})...)
}

// optInGrids run only when selected by name: "all" leaves them out, so
// its output stays byte-stable across PRs.
var optInGrids = []string{"saturate", "mdsweep", "faultsweep"}

// SelectJobs filters jobs by subcommand name: a job matches itself or any
// job it was sharded into (name-prefix "<selector>/", which also selects
// the reducer and every netsweep cell), and "ablations" matches every
// ablation-* job. "all" matches every job outside the opt-in grids. It
// returns nil when nothing matches.
func SelectJobs(jobs []runner.Job, name string) []runner.Job {
	var out []runner.Job
	for _, j := range jobs {
		var ok bool
		if name == "all" {
			grid, _, _ := strings.Cut(j.Name, "/")
			ok = !slices.Contains(optInGrids, grid)
		} else {
			ok = j.Name == name || strings.HasPrefix(j.Name, name+"/") ||
				(name == "ablations" && strings.HasPrefix(j.Name, "ablation-"))
		}
		if ok {
			out = append(out, j)
		}
	}
	return out
}
