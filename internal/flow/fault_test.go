package flow

import (
	"fmt"
	"reflect"
	"testing"

	"anton3/internal/fault"
	"anton3/internal/route"
	"anton3/internal/synth"
	"anton3/internal/testutil"
	"anton3/internal/topo"
)

// mustPlan parses a fault-plan spec or fails the test.
func mustPlan(t testing.TB, spec string) *fault.Plan {
	t.Helper()
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return plan
}

// TestFaultPointShardInvariance is the faulted half of the tier-1 shard
// guarantee: closed-loop points on a machine with dead links — static, and
// tripping mid-run — must be byte-identical at every shard count. The
// mid-run trip is the hard case: it fires as a kernel event on the shard
// owning the link and reroutes the packets parked there, so any wall-clock
// or shard-order dependence in the trip path would split the results.
func TestFaultPointShardInvariance(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	plans := map[string]*fault.Plan{
		"static":  mustPlan(t, "0,0,1:z+:dead;1,1,0:x-:bw/4,lat*2"),
		"mid-run": mustPlan(t, "0,0,1:z+:dead@200ns"),
	}
	pols := route.SaturatePolicies()
	if testing.Short() {
		pols = []route.Policy{route.Random(), route.CreditEcho()}
	}
	for name, plan := range plans {
		for _, pol := range pols {
			ref := NewFaultHarness(shape, pol, 1, 0, 0, plan).
				RunPoint(synth.Tornado(), 3, 12, 4, 77)
			for _, shards := range []int{2, 4} {
				h := NewFaultHarness(shape, pol, shards, 0, 0, plan)
				if got := h.RunPoint(synth.Tornado(), 3, 12, 4, 77); got != ref {
					t.Fatalf("%s/%s: point at %d shards %+v, want %+v",
						name, pol.Name(), shards, got, ref)
				}
			}
		}
	}
}

// TestFaultSweepShardInvariance runs a whole faultsweep cell — the severity
// grid, knee searches and shift table the runner executes — at several shard
// counts and requires identical results and identical rendered bytes.
func TestFaultSweepShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestFaultPointShardInvariance in short mode")
	}
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	sevs := []fault.Severity{
		{Name: "healthy"},
		{Name: "dead1", Plan: *mustPlan(t, "0,0,1:z+:dead")},
	}
	loads := []float64{0.5, 2}
	spec := Spec{Spec: synth.Spec{Shape: shape, Policies: route.SaturatePolicies(), Pattern: synth.Tornado(),
		Loads: loads, Packets: 16, Warmup: 4, Seed: 99, Shards: 1}}
	ref := FaultSweep(spec, sevs)
	refText := ref.Render()
	for _, shards := range []int{2, 4} {
		spec.Shards = shards
		got := FaultSweep(spec, sevs)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("faultsweep at %d shards differs:\n%s\nvs\n%s", shards, got.Render(), refText)
		}
		if got.Render() != refText {
			t.Fatalf("render at %d shards not byte-identical", shards)
		}
	}
}

// TestSeverityGridNeverWedges runs every severity of the drawn grid, under
// every policy, at a load past the healthy knee and requires zero
// undelivered packets: the grid's multi-link rows are constructed so a
// committed detour can never hit a second dead link, so a faultsweep knee
// always measures saturation, never a wedge.
func TestSeverityGridNeverWedges(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, sev := range fault.SeverityGrid(shape, seed) {
			plan := sev.Plan
			for _, pol := range route.SaturatePolicies() {
				h := NewFaultHarness(shape, pol, 1, 0, 0, &plan)
				pt := h.RunPoint(synth.BitComplement(), 3, 12, 4, 55)
				if pt.Undelivered != 0 {
					t.Errorf("seed %d %s/%s (%s): %d undelivered at load 3",
						seed, sev.Name, pol.Name(), plan.Canon(), pt.Undelivered)
				}
			}
		}
	}
}

// TestFaultSaturatePointAllocFree extends the steady-state alloc gate to
// the fault path: dead-link avoidance in every hop choice, escape-pair
// detours with direction commitments, and rerouted parked packets must all
// run off the machine's preallocated state — the faultsweep grid runs this
// loop thousands of times per cell.
func TestFaultSaturatePointAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	plan := mustPlan(t, "0,0,0:z+:dead;2,2,4:x+:bw/2")
	h := NewFaultHarness(topo.Shape{X: 4, Y: 4, Z: 8}, route.Random(), 1, 0, 0, plan)
	pat := synth.Tornado()
	point := func() {
		h.RunPoint(pat, 2, 16, 4, 7)
	}
	for i := 0; i < 3; i++ {
		point()
	}
	if n := testing.AllocsPerRun(5, point); n != 0 {
		t.Fatalf("faulted saturate point allocates %.1f times/op in steady state, want 0", n)
	}
}

// TestHealthyKeyUnchangedByFaultSupport pins the point cache keys from
// inside the flow package: a healthy harness must mint the exact key it
// minted before fault support existed (the same golden constant
// resultstore's own TestKeyGoldenStability pins), so every cached healthy
// point survives this feature, and a faulted harness the key it has
// minted since, so every cached faulted point survives too.
func TestHealthyKeyUnchangedByFaultSupport(t *testing.T) {
	for _, c := range []struct{ plan, golden string }{
		{"", "flow/point/2ce2d2a0e36d701bc1b44f82e5c614425bc72a2188f0e40ffc42c484e12365b2"},
		{"0,0,0:z+:dead", "flow/point/0b9e0d10f39f5bfd873e63451b5dd2bd192093c465a6970c2eebe0dd932f7a70"},
	} {
		var plan *fault.Plan
		if c.plan != "" {
			plan = mustPlan(t, c.plan)
		}
		h := NewFaultHarness(topo.Shape{X: 4, Y: 4, Z: 8}, route.XYZ(), 1, 0, 0, plan)
		cfg := h.keyCfg
		cfg.Pattern = "bitcomp"
		cfg.Load = 1.5
		cfg.Packets, cfg.Warmup = 96, 32
		if got := h.pointKey(21, cfg).String(); got != c.golden {
			t.Errorf("point key of plan %q drifted:\n got %s\nwant %s", c.plan, got, c.golden)
		}
	}
}

// TestFaultKeySensitivity requires the fault plan to be load-bearing in the
// cache key: a faulted harness must never share keys with a healthy one,
// and plans differing in a single link — or only in one link's trip time —
// must hash apart.
func TestFaultKeySensitivity(t *testing.T) {
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	specs := []string{
		"",                            // healthy
		"0,0,0:z+:dead",               // one dead link
		"0,0,1:z+:dead",               // same, one link over
		"0,0,0:z+:dead@100ns",         // same link, now a scheduled trip
		"0,0,0:z+:dead@101ns",         // one picosecond bucket later
		"0,0,0:z+:dead;1,0,0:x-:bw/2", // one extra degraded link
	}
	keys := make(map[string]string)
	for _, spec := range specs {
		var plan *fault.Plan
		if spec != "" {
			plan = mustPlan(t, spec)
		}
		h := NewFaultHarness(shape, route.XYZ(), 1, 0, 0, plan)
		cfg := h.keyCfg
		cfg.Pattern = "bitcomp"
		cfg.Load = 1.5
		cfg.Packets, cfg.Warmup = 96, 32
		key := h.pointKey(21, cfg).String()
		if prev, dup := keys[key]; dup {
			t.Fatalf("plans %q and %q share cache key %s", prev, spec, key)
		}
		keys[key] = spec
	}
}

// BenchmarkFaultKneeShift runs the committed faultsweep artifact: for every
// policy, the bit-complement saturation knee under the drawn severity grid,
// reported as absolute knees and percent shifts vs the healthy baseline.
// BENCH_faults.json carries these numbers — the graceful-degradation
// evidence next to BENCH_saturation.json's healthy knees.
func BenchmarkFaultKneeShift(b *testing.B) {
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	loads := []float64{0.5, 1, 2, 3, 4}
	sevs := fault.SeverityGrid(shape, 1)
	for _, pol := range route.SaturatePolicies() {
		b.Run(fmt.Sprintf("bitcomp/%s", pol.Name()), func(b *testing.B) {
			spec := Spec{Spec: synth.Spec{Shape: shape, Policies: []route.Policy{pol}, Pattern: synth.BitComplement(),
				Loads: loads, Packets: 96, Warmup: 32, Seed: 9700, Shards: 1}}
			var c FaultCurve
			for i := 0; i < b.N; i++ {
				c = FaultSweep(spec, sevs).Curves[0]
			}
			b.ReportMetric(c.Healthy, "healthy_knee")
			for _, row := range c.Rows {
				if row.Faults == "" {
					continue
				}
				b.ReportMetric(row.Knee, row.Severity+"_knee")
				b.ReportMetric(row.ShiftPct, row.Severity+"_shift_pct")
			}
		})
	}
}
