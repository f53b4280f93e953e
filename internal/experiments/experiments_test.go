package experiments

import (
	"fmt"
	"strings"
	"testing"

	"anton3/internal/runner"
	"anton3/internal/sim"
	"anton3/internal/stats"
	"anton3/internal/testutil"
	"anton3/internal/topo"
)

// sz picks the full-size or -short variant of a test parameter.
var sz = testutil.Size

func TestFig5ShapeMatchesPaper(t *testing.T) {
	r := Fig5(sim.NewRand(Fig5Seed), sz(3, 2))
	if len(r.Points) != 9 {
		t.Fatalf("expected hops 0..8, got %d points", len(r.Points))
	}
	// Slope within 10% of 34.2 ns/hop; linear (R2 high).
	if !stats.Within(r.Fit.Slope, 34.2, 0.10) {
		t.Errorf("slope = %.1f, want 34.2 +/- 10%%", r.Fit.Slope)
	}
	if r.Fit.R2 < 0.98 {
		t.Errorf("latency curve not linear: R2 = %.3f", r.Fit.R2)
	}
	// 0-hop distinctly lower than the h=1 average.
	if r.Points[0].AvgNs >= r.Points[1].AvgNs {
		t.Error("0-hop latency should be lowest")
	}
	if !strings.Contains(r.Render(), "paper: y = 55.9") {
		t.Error("render missing paper reference")
	}
}

func TestFig6BreakdownConsistent(t *testing.T) {
	r := Fig6()
	if !stats.Within(r.TotalNs, 55, 0.12) {
		t.Errorf("breakdown total = %.1f ns, want ~55", r.TotalNs)
	}
	// The sum of the stages must match what the simulator measures on the
	// same path.
	if !stats.Within(r.MeasuredNs, r.TotalNs, 0.05) {
		t.Errorf("measured %.1f ns vs breakdown %.1f ns", r.MeasuredNs, r.TotalNs)
	}
	if len(r.Stages) < 10 {
		t.Error("breakdown too coarse")
	}
}

func TestFig9aBands(t *testing.T) {
	pts := Fig9a([]int{sz(8000, 6000)}, 2, 2)
	p := pts[0]
	if p.INZOnly < 0.28 || p.INZOnly > 0.44 {
		t.Errorf("INZ reduction %.2f outside band", p.INZOnly)
	}
	if p.INZPlusPcache <= p.INZOnly {
		t.Errorf("pcache added nothing: %.2f vs %.2f", p.INZPlusPcache, p.INZOnly)
	}
	if p.INZPlusPcache < 0.40 || p.INZPlusPcache > 0.68 {
		t.Errorf("combined reduction %.2f outside plausible band", p.INZPlusPcache)
	}
	if !strings.Contains(RenderFig9a(pts), "inz+pcache") {
		t.Error("render broken")
	}
}

func TestFig9bSpeedupDirection(t *testing.T) {
	pts := Fig9b([]int{sz(8000, 6000)}, 2, 1)
	if pts[0].Speedup < 1.1 {
		t.Errorf("speedup %.2f, want > 1.1", pts[0].Speedup)
	}
	if !strings.Contains(RenderFig9b(pts), "speedup") {
		t.Error("render broken")
	}
}

func TestFig11MatchesPaper(t *testing.T) {
	r := Fig11()
	if !stats.Within(r.Fit.Slope, 51.8, 0.10) {
		t.Errorf("fence slope = %.1f, want 51.8 +/- 10%%", r.Fit.Slope)
	}
	if !stats.Within(r.Fit.Intercept, 91.2, 0.10) {
		t.Errorf("fence intercept = %.1f, want 91.2 +/- 10%%", r.Fit.Intercept)
	}
	if !stats.Within(r.Points[0].Ns, 51.5, 0.10) {
		t.Errorf("0-hop barrier = %.1f ns, want 51.5", r.Points[0].Ns)
	}
	global := r.Points[len(r.Points)-1]
	if !stats.Within(global.Ns, 504, 0.10) {
		t.Errorf("global barrier = %.1f ns, want ~504", global.Ns)
	}
}

func TestFig12SmallSystem(t *testing.T) {
	// Full 32751-atom runs live in the benchmarks; keep the test fast.
	r := Fig12(sz(6000, 4000), 2, 1)
	if r.StepOffNs <= r.StepOnNs {
		t.Errorf("compression did not speed up the step: %.0f vs %.0f", r.StepOffNs, r.StepOnNs)
	}
	out := r.Render()
	for _, want := range []string{"compression disabled", "compression enabled", "ppim"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTablesRender(t *testing.T) {
	out := Tables()
	for _, want := range []string{"Anton 3", "5914", "Core Routers", "Particle Cache", "14.1%", "1.8%"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q:\n%s", want, out)
		}
	}
}

func TestAblationPredictorOrderMonotone(t *testing.T) {
	// The quadratic predictor needs a full 3-step history before it can
	// beat linear, so short mode shrinks atoms but keeps the warmup.
	rows := AblationPredictorOrder(sz(4000, 3000), 3, 2)
	if len(rows) != 3 {
		t.Fatal("want 3 rows")
	}
	// Quadratic >= linear >= constant in achieved reduction.
	if rows[2].Value < rows[1].Value || rows[1].Value < rows[0].Value {
		t.Fatalf("predictor order not monotone: %+v", rows)
	}
}

func TestAblationPcacheSizeMonotone(t *testing.T) {
	rows := AblationPcacheSize(sz(8000, 5000), 2, 2, []int{64, 1024})
	if rows[1].Value <= rows[0].Value {
		t.Fatalf("bigger cache should reduce more: %+v", rows)
	}
}

func TestAblationINZBeatsTruncation(t *testing.T) {
	rows := AblationINZInterleave(3000)
	raw, trunc, inzb := rows[0].Value, rows[1].Value, rows[2].Value
	if !(inzb < trunc && trunc < raw) {
		t.Fatalf("expected inz < truncation < raw: %+v", rows)
	}
}

func TestAblationFenceBeatsPairwise(t *testing.T) {
	rows := AblationFenceVsPairwise(topo.Shape{X: 4, Y: 4, Z: 8})
	// At 128 nodes the fence wins outright on wire traffic (O(N) vs
	// O(N^2) thanks to in-network merging) and stays competitive or
	// better on latency.
	if rows[2].Value >= rows[3].Value {
		t.Fatalf("fence should use far less bandwidth: %+v", rows)
	}
	// Latency stays the same order (the wavefront is hop-serial while a
	// single pairwise write is pipelined; with all 1152 GCs per node
	// participating, pairwise latency would blow up while the fence's
	// would not change).
	if rows[0].Value > rows[1].Value*1.8 {
		t.Fatalf("fence latency uncompetitive: %+v", rows)
	}
}

func TestAblationDimOrdersHelps(t *testing.T) {
	rows := AblationDimOrders(40)
	// Randomized routing must not be slower than fixed XYZ under load.
	if rows[1].Value > rows[0].Value*1.02 {
		t.Fatalf("randomized orders slower than XYZ: %+v", rows)
	}
}

func TestJobsRegistryShardsAndNetsweep(t *testing.T) {
	p := DefaultParams()
	jobs := Jobs(p)
	names := map[string]bool{}
	for _, j := range jobs {
		names[j.Name] = true
	}
	// Fig5/Fig11 hop sweeps are sharded per hop count plus a reducer.
	for h := 0; h <= Shape128.Diameter(); h++ {
		for _, fig := range []string{"fig5", "fig11"} {
			if !names[fmt.Sprintf("%s/h%d", fig, h)] {
				t.Fatalf("missing shard %s/h%d", fig, h)
			}
		}
	}
	if !names["fig5"] || !names["fig11"] {
		t.Fatal("missing figure reducers")
	}
	// Netsweep covers every shape x pattern, including a 512-node shape.
	if !names["netsweep/8x8x8/tornado"] || !names["netsweep/4x4x8/uniform"] {
		t.Fatalf("missing netsweep jobs: %v", names)
	}

	sel := SelectJobs(jobs, "fig5")
	if len(sel) != Shape128.Diameter()+2 {
		t.Fatalf("SelectJobs(fig5) = %d jobs, want shards + reducer", len(sel))
	}
	if sel[len(sel)-1].Name != "fig5" {
		t.Fatal("reducer must follow its shards")
	}
	sel = SelectJobs(jobs, "netsweep")
	if len(sel) != len(p.NetShapes)*6 {
		t.Fatalf("SelectJobs(netsweep) = %d jobs, want %d", len(sel), len(p.NetShapes)*6)
	}
	if SelectJobs(jobs, "no-such-job") != nil {
		t.Fatal("unknown selector should select nothing")
	}
	// The opt-in grids are registered but run only when named.
	optIn := 0
	for _, g := range optInGrids {
		n := len(SelectJobs(jobs, g))
		if n == 0 {
			t.Fatalf("opt-in grid %s has no jobs", g)
		}
		optIn += n
	}
	if got, want := len(SelectJobs(jobs, "all")), len(jobs)-optIn; got != want {
		t.Fatalf("SelectJobs(all) = %d jobs, want %d (every job outside the opt-in grids)", got, want)
	}
	// Every command builds the faultsweep grid, so a shape with no link
	// to fault must still yield its cells instead of an endless draw.
	p.NetShapes = []topo.Shape{{X: 1, Y: 1, Z: 1}}
	if n := len(SelectJobs(Jobs(p), "faultsweep")); n != 6 {
		t.Fatalf("one-node faultsweep grid has %d cells, want 6", n)
	}
}

// TestFig5ShardedMatchesDirect pins the sharding refactor: running the
// fig5 sub-jobs + reducer through the runner must reproduce the direct
// Fig5 call digit for digit, at any worker count.
func TestFig5ShardedMatchesDirect(t *testing.T) {
	p := DefaultParams()
	p.Fig5Pairs = sz(2, 1)
	want := Fig5(sim.NewRand(Fig5Seed), p.Fig5Pairs).Render()
	for _, workers := range []int{1, 4} {
		rep, err := runner.Run(SelectJobs(Jobs(p), "fig5"), workers, runner.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.RenderAll(); got != want+"\n" {
			t.Fatalf("workers=%d: sharded fig5 diverged:\n--- sharded ---\n%s--- direct ---\n%s", workers, got, want)
		}
	}
}

// TestFig9bShardedMatchesDirect runs the fig9b sub-jobs and reducer
// through the runner, at one and two workers with spare cores granted to
// the sub-jobs, and holds the figure to the direct Fig9b call.
func TestFig9bShardedMatchesDirect(t *testing.T) {
	p := DefaultParams()
	p.Fig9bSizes, p.Fig9bSteps = []int{1000, 2000}, 1
	want := RenderFig9b(Fig9b(p.Fig9bSizes, p.Fig9bSteps, 1))
	jobs := SelectJobs(Jobs(p), "fig9b")
	if len(jobs) != 3 || jobs[2].Name != "fig9b" {
		t.Fatalf("SelectJobs(fig9b) = %d jobs, want one per size then the reducer", len(jobs))
	}
	for _, j := range jobs[:2] {
		if !j.Hidden || j.ShardRun == nil {
			t.Fatalf("%s: Hidden %v, ShardRun set %v; want a hidden shardable sub-job", j.Name, j.Hidden, j.ShardRun != nil)
		}
	}
	for _, workers := range []int{1, 2} {
		rep, err := runner.Run(jobs, workers, runner.Options{AutoShard: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.RenderAll(); got != want+"\n" {
			t.Fatalf("workers=%d: sharded fig9b diverged:\n--- sharded ---\n%s--- direct ---\n%s", workers, got, want)
		}
	}
}

// TestNetsweepSmoke keeps the synthetic-load harnesses green in the CI
// fast lane: a tiny full netsweep grid plus one saturate and one
// faultsweep cell through the runner, byte-identical across worker counts.
func TestNetsweepSmoke(t *testing.T) {
	p := DefaultParams()
	p.NetShapes = []topo.Shape{{X: 2, Y: 2, Z: 2}}
	p.NetLoads = []float64{0.5, 2}
	p.NetPackets, p.NetWarmup = sz(16, 8), 4
	all := Jobs(p)
	jobs := SelectJobs(all, "netsweep")
	if len(jobs) != 6 {
		t.Fatalf("want 6 pattern jobs, got %d", len(jobs))
	}
	jobs = append(jobs, SelectJobs(all, "saturate/2x2x2/tornado")...)
	jobs = append(jobs, SelectJobs(all, "faultsweep/2x2x2/tornado")...)
	if len(jobs) != 8 {
		t.Fatalf("want 6 netsweep + 2 closed-loop cells, got %d jobs", len(jobs))
	}
	seq, err := runner.Run(jobs, 1, runner.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runner.Run(jobs, 4, runner.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq.RenderAll() != par.RenderAll() {
		t.Fatal("sweep output depends on worker count")
	}
	out := seq.RenderAll()
	for _, want := range []string{"uniform", "bitcomp", "transpose", "tornado", "hotspot", "neighbor", "random", "xyz", "adaptive",
		"Saturate: pattern tornado", "saturation knee:", "Faultsweep: pattern tornado", "deadcut"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
}

// gridKeys lists "name seed cache-key" for every job the selectors pick;
// first keeps only the first job of each selector.
func gridKeys(p Params, first bool, sels ...string) string {
	var b strings.Builder
	for _, sel := range sels {
		jobs := SelectJobs(Jobs(p), sel)
		if first {
			jobs = jobs[:1]
		}
		for _, j := range jobs {
			fmt.Fprintf(&b, "%s %d %s\n", j.Name, j.Seed, j.CacheKey)
		}
	}
	return b.String()
}

// TestGridJobKeysGolden pins the name, seed and cell cache key of every
// sweep-grid job: the drawn fault grid, a custom fault plan, and a
// metrics-on cell of each grid. A change here orphans every cached cell
// and reseeds the grids, so it must be deliberate.
func TestGridJobKeysGolden(t *testing.T) {
	p := DefaultParams()
	// Two shapes, so the per-shape seed stride is pinned too.
	p.NetShapes = []topo.Shape{{X: 2, Y: 2, Z: 2}, {X: 2, Y: 2, Z: 4}}
	p.NetLoads = []float64{0.5, 2}
	p.NetPackets, p.NetWarmup = 8, 2
	p.MDAtoms, p.MDSteps = 2000, 1
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: grid jobs drifted:\n--- got ---\n%s--- want ---\n%s", what, got, want)
		}
	}
	check("drawn grid", gridKeys(p, false, "netsweep", "saturate", "faultsweep", "mdsweep"), goldenGridKeys)
	p.FaultPlan = "0,0,0:x+:dead"
	check("custom plan", gridKeys(p, false, "faultsweep"), goldenPlanKeys)
	p.FaultPlan, p.Metrics = "", true
	check("metrics on", gridKeys(p, true, "netsweep", "saturate", "faultsweep", "mdsweep"), goldenMetricsKeys)
}

const goldenGridKeys = `netsweep/2x2x2/uniform 7000 cell/netsweep/155466f49edee769d7719184e71917b06b775d2b51a92d157fa229c21fc43964
netsweep/2x2x2/bitcomp 7001 cell/netsweep/08e3b4eceb2b9c3088e1389ba26aa2ccf2447b19e529375c88f948bee72d1b0a
netsweep/2x2x2/transpose 7002 cell/netsweep/57d0b311cd9282f020e28a4fe84d4168a0a9292df44b9643578413799208b929
netsweep/2x2x2/tornado 7003 cell/netsweep/7f752a1908d44eb57136903363287b83c8ab52d9b77152337b98fe359119367e
netsweep/2x2x2/hotspot 7004 cell/netsweep/ca4e2dd93c26a2adcac98b8f3579c539554dc7f029830f94cfcda218b1a78fba
netsweep/2x2x2/neighbor 7005 cell/netsweep/ece1265147d1acceb505ada144abc5efa17e35289db3c182c07ba66637d92f02
netsweep/2x2x4/uniform 7100 cell/netsweep/f7a1199956bfc5137140ffb8593fa93f3d772eb9a6d4e54efc136b89f13bc63d
netsweep/2x2x4/bitcomp 7101 cell/netsweep/67a07a822c1975384e5a25408e14a996015747d0f6d6cb39985d0e966ce12ac6
netsweep/2x2x4/transpose 7102 cell/netsweep/acb8bcd43985cbc4a2154620346fb79d929495edd6703b18bb2d554e3e6f1f82
netsweep/2x2x4/tornado 7103 cell/netsweep/749e37f87bf62071f7ba1c3f0b3aa28f054bfcb8a64d4abd777f61b05e4c0d2e
netsweep/2x2x4/hotspot 7104 cell/netsweep/cb5d6c0c14837a036f0ee2a97eb6b3986bc543f6b8eb588075dc0496725b5b2a
netsweep/2x2x4/neighbor 7105 cell/netsweep/09722ab6dc91c85caaa7458125fe676f3b98642c97657257e9aaccccbc64f029
saturate/2x2x2/uniform 9000 cell/saturate/45c9eb19781b1f1ad3e9fe9e982fd1e4a1d9a785a3ed237ed7128e372bd4a9c4
saturate/2x2x2/bitcomp 9001 cell/saturate/ac561b3f610dd4a0e6f863465378030ae592690e232760a235b9649ca1508c15
saturate/2x2x2/transpose 9002 cell/saturate/ab368750db23003654edeeb61854e2d2b39582675153ce2ebc2f05506295dd87
saturate/2x2x2/tornado 9003 cell/saturate/21a077af6e351f5829e47cb8c082acb43d61e07e836ee23db8095273ab9ba1eb
saturate/2x2x2/hotspot 9004 cell/saturate/8abb411986ae402e64e66d522d72996b656c4188924ae5b23c781f862e68c082
saturate/2x2x2/neighbor 9005 cell/saturate/37f8ef3a25e52aea3ac3fa153303f6e7b758295c4126cb7f4ec63f4cff0d28b7
saturate/2x2x4/uniform 9100 cell/saturate/fb6cf23f07a5ca6ea0e61eefbbc9669859da50a46ef320b20896c1d8f3eaa0f4
saturate/2x2x4/bitcomp 9101 cell/saturate/9427e77491fe7e639dd10fcde78896ea83afd847d99ce10955b71a9da791c813
saturate/2x2x4/transpose 9102 cell/saturate/7ed5edc0c4b46244d2074027f1e81e24addd1acf1cf0b72bfec3096117e7d3a0
saturate/2x2x4/tornado 9103 cell/saturate/aa396779a69f2bd8a4ad2992d34d15c73e6072b230889bb1a73a9efeb2734ab6
saturate/2x2x4/hotspot 9104 cell/saturate/6d9d83e2e5c646504a60c6592b3fbdb803af6412a2f434f9376ec24cb0b87596
saturate/2x2x4/neighbor 9105 cell/saturate/7a9c70226d8d56e21e6739ff16f09376abc52d15e8ca49506cd8f5d6b64908fd
faultsweep/2x2x2/uniform 9700 cell/faultsweep/6d7ec56e4b7bb43ab5b9ab531175939702a239ae6954159f4e83cde56051975e
faultsweep/2x2x2/bitcomp 9701 cell/faultsweep/b8af190f276a08a814c61b9e1b492f02635c0499600efd70273cf1a6e49533c4
faultsweep/2x2x2/transpose 9702 cell/faultsweep/1361f474f4fe3acad06fec8d6f965e94f711d5214afa72709c6f168a38a54b27
faultsweep/2x2x2/tornado 9703 cell/faultsweep/b49e08fdb2b495eabf2c5d527bab7a2d0de2d4eb7be5ca79508be3dda95feb88
faultsweep/2x2x2/hotspot 9704 cell/faultsweep/bbbb90ea93ab4788404b691d0e837049f05cbd2cf058d25369f5ff121b294d06
faultsweep/2x2x2/neighbor 9705 cell/faultsweep/95ef84f81b484d0c979fdd8f2ff4c785a73aac97c81f3594fe11b8661b173994
faultsweep/2x2x4/uniform 9800 cell/faultsweep/10171e9333dc4b6490b1adca80a557b94fca3a4382e8fdcdc21b65ef6d14641e
faultsweep/2x2x4/bitcomp 9801 cell/faultsweep/b3b4e294cecd77edea4b539e35e06f4cc885fa8d6f670f18ed980f33ad91e76c
faultsweep/2x2x4/transpose 9802 cell/faultsweep/5cb477766faead6ca7f2c899d820d794a9ab85c85a1b3a08d5d699377259ae20
faultsweep/2x2x4/tornado 9803 cell/faultsweep/0f7c532451fba91f7fc8b3865f356f93eeb92723f379fbde8975bdf0786055c6
faultsweep/2x2x4/hotspot 9804 cell/faultsweep/bdaf773bb4e6babc4e2991dba0fe893753863b7e177d7769d2f8d2b225e4721d
faultsweep/2x2x4/neighbor 9805 cell/faultsweep/1ff49b5182011e9be6f3e2ddf79d798c310c0d062c52db3e4945bd38f36c14cd
mdsweep/random 9500 cell/mdsweep/46bed98e1e85c9eabec00a67876dd29cd0bd901e198daf5cf17eb4712cb35f28
mdsweep/xyz 9501 cell/mdsweep/c65f66e12f02ee2254aa3e2efb1073575a141c2e4eb91e3b0fc33175caee4957
mdsweep/adaptive 9502 cell/mdsweep/b9f526cdf7c92f8c16ad3fe9861ced2d92013d7a5ad87dfdeced1f5dafc30fed
mdsweep/credit-echo 9503 cell/mdsweep/ba72762987d3c1b17a723a7fe9f6043aa0d01984df97d5dd6efb20ad17cc5963
`

const goldenPlanKeys = `faultsweep/2x2x2/uniform 9700 cell/faultsweep/752e55c3f462d005b55cea23d0d45554567afeb96c8fcad91f15845a7d93e494
faultsweep/2x2x2/bitcomp 9701 cell/faultsweep/c569bd20e0659ffce80b0a43b28a0cd0b4605cf188e90e443b14c9916763813e
faultsweep/2x2x2/transpose 9702 cell/faultsweep/6a36e99e33668aa05aa583476bcb1a45c9bc9d49ae0a12e09ac791b3817c5226
faultsweep/2x2x2/tornado 9703 cell/faultsweep/478138ac7a4847797d625152ecb9c5f84f8101e9979cf5546c762fb338abb9de
faultsweep/2x2x2/hotspot 9704 cell/faultsweep/d01cb164b7a2f74e250475be72854630a90a844ea5be75be05a685fa39a056db
faultsweep/2x2x2/neighbor 9705 cell/faultsweep/c5099ec90905136c526854f363f2d4eacd2e6341c5fca77bb583db3fc9227bbc
faultsweep/2x2x4/uniform 9800 cell/faultsweep/e96598bf484031b8640c4e50c974ce37e2e019ec699078afa86ba3354ce8aeaf
faultsweep/2x2x4/bitcomp 9801 cell/faultsweep/75e2285c9c086a6aca12b9f7c9d0aef64711330cdec019f65b2af0b041191fee
faultsweep/2x2x4/transpose 9802 cell/faultsweep/4bbba632b200d2705258170a77b03f03dad4afc9d014f50a371a63f431f99fd5
faultsweep/2x2x4/tornado 9803 cell/faultsweep/75b35b0d500b6fc2fc748047daf0729cab768f1b1589fe6376499141f53bbf1c
faultsweep/2x2x4/hotspot 9804 cell/faultsweep/5ba99c98e204f047648596e05e66de8607b7b0a54abad8117b1033890d17c2b6
faultsweep/2x2x4/neighbor 9805 cell/faultsweep/05019633e2ab59f3f0bb9b998969a214be0c70e343222c269e7801b1a0e5e244
`

const goldenMetricsKeys = `netsweep/2x2x2/uniform 7000 cell/netsweep+tel/30bee98c159836625a9fbd5bb7b5b1c6f67719ce55901805f9f774ad4d19bc5a
saturate/2x2x2/uniform 9000 cell/saturate+tel/8f323a9c4748b68182d37b2366b39262433963890468cafd094e3a2dd7fb031e
faultsweep/2x2x2/uniform 9700 cell/faultsweep+tel/d6dec2bbd37d2846f14d1723bfafee46eea966a802624b25fb0e10b67cf75878
mdsweep/random 9500 cell/mdsweep/46bed98e1e85c9eabec00a67876dd29cd0bd901e198daf5cf17eb4712cb35f28
`
