// Command anton3 regenerates the paper's tables and figures from the
// simulator and explores beyond them. Each subcommand prints measured
// values next to the published ones. Every experiment owns a private
// simulation kernel, so independent experiments fan out across cores
// (-jobs) with byte-identical output to a sequential run; -json records
// the runner's report for CI artifacts.
//
// Usage:
//
//	anton3 <tables|fig5|fig6|fig9a|fig9b|fig11|fig12|ablations|netsweep|saturate|mdsweep|faultsweep|all> [flags]
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"anton3/internal/experiments"
	"anton3/internal/fault"
	"anton3/internal/flow"
	"anton3/internal/packet"
	"anton3/internal/resultstore"
	"anton3/internal/runner"
	"anton3/internal/synth"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
)

// minMDAtoms is the smallest water system whose box spans two cutoffs
// (md.BoxForAtoms(n) >= 2*md.Cutoff): the thinnest the 8-node MD machine
// decomposes. Fewer atoms panic inside md.
const minMDAtoms = 195

func main() { os.Exit(run(os.Args[1:])) }

// run holds main's body so deferred cleanups (profile flushes) execute
// before the process exits. args is the command line after the program
// name; the result is the exit code.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	jobs := fs.Int("jobs", 0, "worker count and core budget for independent experiments (0 = all cores, divided by -shards above 1)")
	shards := fs.Int("shards", 0, "kernel shards per sweep-cell and timestep machine (0 = granted from idle cores)")
	jsonPath := fs.String("json", "", "write the runner report (timings, rows) to this file")
	quiet := fs.Bool("q", false, "suppress the runner summary on stderr")
	pairs := fs.Int("pairs", 6, "sampled GC pairs per hop count (fig5)")
	atoms := fs.Int("atoms", 32751, "atom count (fig12)")
	steps := fs.Int("steps", 3, "timestep count (fig9b, fig12)")
	warm := fs.Int("warm", 3, "warmup steps (fig9a)")
	measure := fs.Int("measure", 4, "measured steps (fig9a)")
	shapes := fs.String("shapes", "4x4x8,8x8x8", "netsweep/saturate torus shapes, comma-separated XxYxZ, 2 to 4096 nodes each")
	loads := fs.String("loads", "0.5,1,2,3,4", "netsweep/saturate offered loads, comma-separated, each >= 1e-6")
	npkts := fs.Int("npkts", 96, "netsweep/saturate measured packets per node (saturate: per unit load)")
	nwarm := fs.Int("nwarm", 32, "netsweep/saturate warmup packets per node")
	mdatoms := fs.Int("mdatoms", 8000, "atom count per mdsweep cell")
	mdsteps := fs.Int("mdsteps", 2, "timesteps per mdsweep cell")
	faults := fs.String("faults", "", "faultsweep custom fault plan, e.g. '0,0,0:x+:dead;1,0,0:z-:bw/2@3us' (default: drawn severity grid)")
	faultseed := fs.Uint64("faultseed", 1, "seed for the drawn faultsweep severity grid")
	vcq := fs.Int("vcq", 0, "saturate per-VC ingress queue depth in flits (0 = bandwidth-delay default)")
	injq := fs.Int("injq", 0, "saturate per-source injection window in packets (0 = default)")
	metrics := fs.Bool("metrics", false, "arm the telemetry layer on sweep cells: counters + latency/park histograms, 'telemetry' lines appended to each cell")
	traceEvents := fs.String("trace-events", "", "write a Chrome trace-event JSON of sweep-cell packet lifecycles to this file (implies uncached cells)")
	cache := cacheMode("off")
	fs.Var(&cache, "cache", "memoize sweep results in the content-addressed store: -cache (read/write), -cache=readonly; default off")
	cachedir := fs.String("cachedir", "", "result-cache directory (default <user cache dir>/anton3, e.g. ~/.cache/anton3)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (after the run) to this file")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Reject out-of-range sizes here, naming the flag, rather than as a
	// panic (or a silent row of zeros) deep inside a harness or the MD
	// model.
	for _, c := range []struct {
		flag   string
		v, min int
	}{
		{"jobs", *jobs, 0},
		{"shards", *shards, 0},
		{"pairs", *pairs, 1},
		{"steps", *steps, 1},
		{"measure", *measure, 1},
		{"npkts", *npkts, 1},
		{"mdsteps", *mdsteps, 1},
		{"warm", *warm, 0},
		{"nwarm", *nwarm, 0},
		{"injq", *injq, 0},
		{"atoms", *atoms, minMDAtoms},
		{"mdatoms", *mdatoms, minMDAtoms},
	} {
		if c.v < c.min {
			fmt.Fprintf(os.Stderr, "anton3: -%s must be >= %d (got %d)\n", c.flag, c.min, c.v)
			return 2
		}
	}
	if *vcq != 0 && *vcq < packet.MaxFlitsPerPkt {
		fmt.Fprintf(os.Stderr, "anton3: -vcq must be 0 (default depth) or >= %d flits, the largest packet (got %d)\n",
			packet.MaxFlitsPerPkt, *vcq)
		return 2
	}

	// The memprofile defer is registered before the cpuprofile one so that
	// (LIFO) the CPU profile stops first and its samples never include the
	// heap profile's forced GC and encoding.
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "anton3:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "anton3:", err)
			}
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anton3:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "anton3:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// A sharded machine runs shards goroutines at once: the default worker
	// count (runner.Run) keeps jobs x shards within the cores, and an
	// explicit -jobs is respected with a warning.
	if maxprocs := runtime.GOMAXPROCS(0); *jobs**shards > maxprocs {
		fmt.Fprintf(os.Stderr, "anton3: warning: jobs(%d) x shards(%d) exceeds GOMAXPROCS(%d); workers will contend\n",
			*jobs, *shards, maxprocs)
	}

	// Trace export reruns every traced cell uncached (a cache hit would
	// skip the simulation the trace observes), so combining it with the
	// result cache is a contradiction we reject rather than silently
	// resolve.
	if *traceEvents != "" && cache != "off" {
		fmt.Fprintln(os.Stderr, "anton3: -trace-events cannot be combined with -cache (traced cells always re-simulate)")
		return 2
	}

	// The result cache is off by default, so every command's output stays
	// byte-identical to an uncached tree; with it on, memoized cells and
	// probes short-circuit — same bytes on stdout, the hit/miss/stored
	// counters land in the -json report and the stderr summary.
	var store *resultstore.Store
	if cache != "off" {
		dir := *cachedir
		if dir == "" {
			base, err := os.UserCacheDir()
			if err != nil {
				fmt.Fprintln(os.Stderr, "anton3: -cache needs -cachedir (no user cache dir):", err)
				return 2
			}
			dir = filepath.Join(base, "anton3")
		}
		var err error
		if store, err = resultstore.Open(dir, cache == "readonly"); err != nil {
			fmt.Fprintln(os.Stderr, "anton3:", err)
			return 1
		}
	}

	p := experiments.DefaultParams()
	p.Cache = store
	p.Fig5Pairs = *pairs
	p.Fig12Atoms = *atoms
	p.Fig9bSteps = *steps
	p.Fig12Steps = *steps
	p.Fig9aWarm = *warm
	p.Fig9aMeasure = *measure
	p.NetPackets = *npkts
	p.NetWarmup = *nwarm
	p.FaultSeed = *faultseed
	p.FaultPlan = *faults
	p.MDAtoms = *mdatoms
	p.MDSteps = *mdsteps
	p.SatQueueFlits = *vcq
	p.SatInjDepth = *injq
	p.Metrics = *metrics
	var sink *telemetry.TraceSink
	if *traceEvents != "" {
		sink = &telemetry.TraceSink{}
		p.Trace = sink
	}
	var err error
	if p.NetShapes, err = parseShapes(*shapes); err != nil {
		fmt.Fprintln(os.Stderr, "anton3: -shapes:", err)
		return 2
	}
	if p.NetLoads, err = parseLoads(*loads); err != nil {
		fmt.Fprintln(os.Stderr, "anton3: -loads:", err)
		return 2
	}

	// Reject a grid whose injection schedules could outgrow the sort key
	// synth draws them into, which would otherwise panic inside a runner
	// worker. The longest open-loop schedule is the smallest load's;
	// closed-loop cells also scale their budgets with the load, up to the
	// top knee probe.
	grid, _, _ := strings.Cut(cmd, "/")
	closed := grid == "saturate" || grid == "faultsweep"
	for _, shape := range p.NetShapes {
		if !synth.HorizonFits(shape, *npkts+*nwarm, slices.Min(p.NetLoads)) ||
			closed && !flow.HorizonFits(shape, p.NetLoads, *npkts, *nwarm) {
			fmt.Fprintf(os.Stderr, "anton3: -npkts %d with -nwarm %d makes injection schedules on %s too long to order at -loads %s; lower -npkts\n",
				*npkts, *nwarm, shape, *loads)
			return 2
		}
	}

	// Validate a custom fault plan up front, against every selected shape:
	// a plan naming a channel outside a shape must die here with a readable
	// message, not as a panic deep inside machine construction.
	if *faults != "" {
		plan, perr := fault.Parse(*faults)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "anton3: -faults:", perr)
			return 2
		}
		for _, shape := range p.NetShapes {
			if verr := plan.Validate(shape); verr != nil {
				fmt.Fprintf(os.Stderr, "anton3: -faults plan does not fit shape %s: %v\n", shape, verr)
				return 2
			}
		}
	}

	selected := experiments.SelectJobs(experiments.Jobs(p), cmd)
	if len(selected) == 0 {
		usage()
		return 2
	}

	// Stream each result as soon as it and its predecessors finish:
	// long runs show figures incrementally, in the same byte-identical
	// order a sequential run would print them. Hidden results are the
	// sharded sub-jobs a reducer folds into one figure; their rows only
	// appear in the JSON report.
	opts := runner.Options{Shards: *shards, Cache: store}
	rep, err := runner.Run(selected, *jobs, opts, func(res runner.Result) {
		if !res.Hidden {
			fmt.Println(res.Text)
		}
	})
	if !*quiet {
		fmt.Fprintf(os.Stderr, "runner: %d jobs on %d workers in %.2fs wall, %.2fs CPU (CPU/wall %.2fx)\n",
			rep.Jobs, rep.Workers, float64(rep.WallNs)/1e9, float64(rep.CPUNs)/1e9, rep.Speedup)
		if rep.Cache != nil {
			fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d stored\n",
				rep.Cache.Hits, rep.Cache.Misses, rep.Cache.Stored)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "anton3:", err)
	}
	if sink != nil {
		f, werr := os.Create(*traceEvents)
		if werr == nil {
			werr = sink.Export(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "anton3:", werr)
			return 1
		}
	}
	if *jsonPath != "" {
		if werr := rep.WriteJSON(*jsonPath); werr != nil {
			fmt.Fprintln(os.Stderr, "anton3:", werr)
			return 1
		}
	}
	if err != nil {
		return 1
	}
	return 0
}

// cacheMode is the tri-state -cache flag: bool-like, so bare `-cache`
// means read/write and `-cache=readonly` consults without storing.
type cacheMode string

func (m *cacheMode) String() string { return string(*m) }

func (m *cacheMode) Set(v string) error {
	switch v {
	case "", "true", "on", "rw":
		*m = "on"
	case "false", "off":
		*m = "off"
	case "readonly", "ro":
		*m = "readonly"
	default:
		return fmt.Errorf("bad cache mode %q (want on, off or readonly)", v)
	}
	return nil
}

// IsBoolFlag lets bare `-cache` enable read/write mode.
func (m *cacheMode) IsBoolFlag() bool { return true }

// Grid input limits. maxShapeNodes bounds every dimension and every
// shape's node count: 8x the 512-node production machine, so 16x16x16
// still fits. minLoad is the smallest offered load: its mean injection gap
// (0.88 ms of simulated time) keeps a 128-packet schedule on a
// 4096-node grid over 100x inside the schedule's sort-key range.
const (
	maxShapeNodes = 4096
	minLoad       = 1e-6
)

func parseShapes(s string) ([]topo.Shape, error) {
	var out []topo.Shape
	for _, part := range strings.Split(s, ",") {
		dims := strings.Split(strings.TrimSpace(part), "x")
		if len(dims) != 3 {
			return nil, fmt.Errorf("bad shape %q (want XxYxZ)", part)
		}
		var v [3]int
		for i, d := range dims {
			n, err := strconv.Atoi(d)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad shape %q (want XxYxZ)", part)
			}
			if n > maxShapeNodes {
				return nil, fmt.Errorf("shape %q has a dimension above %d", part, maxShapeNodes)
			}
			v[i] = n
		}
		sh := topo.Shape{X: v[0], Y: v[1], Z: v[2]}
		if n := sh.Nodes(); n < 2 || n > maxShapeNodes {
			return nil, fmt.Errorf("shape %q has %d nodes, want 2 to %d", part, n, maxShapeNodes)
		}
		out = append(out, sh)
	}
	return out, nil
}

func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(f >= minLoad) || math.IsInf(f, 1) {
			return nil, fmt.Errorf("bad load %q (want a finite number >= %g)", part, minLoad)
		}
		out = append(out, f)
	}
	return out, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `anton3 — regenerate the tables and figures of
"The Specialized High-Performance Network on Anton 3" (HPCA 2022)

subcommands:
  tables     Tables I, II, III (ASIC comparison, component area, feature cost)
  fig5       end-to-end latency vs hops (128-node ping-pong)
  fig6       breakdown of the 55 ns minimum latency
  fig9a      traffic reduction from INZ and the particle cache
  fig9b      MD speedup from compression
  fig11      network fence barrier latency vs hops
  fig12      machine activity plots (compression off/on)
  ablations  design-choice ablations (predictor order, pcache size, INZ,
             fence vs pairwise sync, dimension orders)
  netsweep   synthetic-load latency sweep: routing policy x traffic pattern
             x torus shape (incl. 512 nodes; see -shapes/-loads)
  saturate   closed-loop saturation sweep: per-VC ingress queues + credit
             backpressure, offered vs accepted throughput, auto-located
             saturation knee, 4 policies (incl. credit-echo) x 6 patterns
  mdsweep    closed-loop MD backpressure: real timestep traffic against
             bounded per-VC queues, per routing policy x queue depth
  faultsweep link-fault knee-shift grid: saturation knee under degraded and
             dead links (drawn severity grid or a custom -faults plan),
             reported as percent shift vs the healthy baseline, 4 policies
             x 6 patterns with fault-aware escape rerouting
  all        everything above except saturate/mdsweep/faultsweep (kept
             byte-stable across PRs)

flags (after the subcommand):
  -jobs N    worker count and the run's core budget: independent experiments
             run in parallel, and kernel shards and the MD force and traffic
             replay helpers use only cores of the budget that no running
             job holds, so -jobs 1 runs on one core (0 = all cores, divided
             by -shards above 1)
  -shards N  kernel shards per machine for netsweep/saturate/faultsweep cells
             and the MD timestep jobs (fig9b, fig12, mdsweep): one simulated
             machine runs across N cores via conservative-lookahead parallel
             simulation, byte-identical to -shards 1; the default 0 runs a
             job on 2 or 4 shards when it starts while the budget has cores
             beyond the jobs waiting to run (running jobs never re-shard)
  -cache     memoize sweep results (netsweep/saturate/mdsweep cells and
             every closed-loop knee probe) in a content-addressed store
             keyed by (experiment, full config, seed, schema version):
             warm re-runs and revisited probe loads become cache hits
             with byte-identical stdout; -cache=readonly consults without
             storing; default off (output byte-identical to older trees)
  -cachedir P  store directory (default <user cache dir>/anton3)
  -metrics   arm the deterministic telemetry layer on sweep cells (netsweep/
             saturate/faultsweep): sharded counters and latency/park
             histograms, rendered as 'telemetry' lines after each table
             (plus hottest-links at the saturation knee); byte-identical
             at every -shards/-jobs, off by default (zero overhead)
  -trace-events P  write a Chrome trace-event JSON (Perfetto-loadable) of
             sweep-cell packet lifecycles to P: one process per cell, one
             track per node channel plus park/escape/detour phase tracks;
             traced cells always re-simulate, so -cache is rejected
  -json P    write the runner report (per-job rows and timings) to P
  -q         suppress the runner summary line on stderr
  -pairs, -atoms, -steps, -warm, -measure   experiment sizes (see -h)
  -shapes, -loads, -npkts, -nwarm           netsweep/saturate grid (see -h);
             shapes have 2 to 4096 nodes, loads are >= 1e-6
  -vcq N, -injq N                           saturate queue/window depths
  -mdatoms N, -mdsteps N                    mdsweep cell size
  -faults PLAN  faultsweep custom plan: ';'-separated link faults, each
             X,Y,Z:<dim><dir>[.<slice>]:<effect,...>[@trip] with effects
             dead, bw/K, lat*M and an optional trip time (ps/ns/us);
             default is the severity grid drawn from -faultseed
  -faultseed N  seed for the drawn faultsweep severity grid
  -cpuprofile P, -memprofile P              write pprof profiles of the run`)
}
