package flow

import (
	"testing"

	"anton3/internal/fault"
	"anton3/internal/resultstore"
	"anton3/internal/route"
	"anton3/internal/synth"
	"anton3/internal/telemetry"
	"anton3/internal/testutil"
	"anton3/internal/topo"
)

// telemetryPoint runs one metrics-armed closed-loop point and returns the
// merged telemetry block.
func telemetryPoint(shape topo.Shape, pol route.Policy, shards int, plan *fault.Plan) telemetry.Shard {
	h := NewFaultHarness(shape, pol, shards, 0, 0, plan)
	h.EnableMetrics()
	h.RunPoint(synth.Tornado(), 3, 12, 4, 77)
	return *h.Telemetry()
}

// TestTelemetryShardInvariance is the telemetry half of the tier-1 shard
// guarantee: every counter and every histogram bucket of a metrics-armed
// point must be identical at every shard count — healthy, and with a
// fault tripping mid-run (the hard case: the trip reroutes parked packets
// on one shard, so any shard-order dependence in the park/unpark/detour
// accounting would split the blocks). Shard is a comparable value type,
// so the assertion is plain ==.
func TestTelemetryShardInvariance(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	plans := map[string]*fault.Plan{
		"healthy": nil,
		"mid-run": mustPlan(t, "0,0,1:z+:dead@200ns"),
	}
	pols := route.SaturatePolicies()
	if testing.Short() {
		pols = []route.Policy{route.Random(), route.CreditEcho()}
	}
	for name, plan := range plans {
		for _, pol := range pols {
			ref := telemetryPoint(shape, pol, 1, plan)
			if ref.Ctr[telemetry.CtrInjected] == 0 {
				t.Fatalf("%s/%s: telemetry recorded no injections", name, pol.Name())
			}
			for _, shards := range []int{2, 4} {
				if got := telemetryPoint(shape, pol, shards, plan); got != ref {
					t.Fatalf("%s/%s: telemetry at %d shards differs:\n got %+v\nwant %+v",
						name, pol.Name(), shards, got, ref)
				}
			}
		}
	}
}

// TestTelemetrySweepShardInvariance runs a whole metrics-armed sweep cell —
// swept loads, knee search, telemetry summary, hottest-links heatmap — at
// several shard counts and requires byte-identical rendered output,
// "telemetry" lines included.
func TestTelemetrySweepShardInvariance(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	loads := []float64{0.5, 2}
	pols := []route.Policy{route.Random(), route.CreditEcho()}
	spec := Spec{Spec: synth.Spec{Shape: shape, Policies: pols, Pattern: synth.Tornado(),
		Loads: loads, Packets: 8, Warmup: 2, Seed: 42, Shards: 1, Metrics: true}}
	refText := Sweep(spec).Render()
	for _, shards := range []int{2, 4} {
		spec.Shards = shards
		got := Sweep(spec)
		if got.Render() != refText {
			t.Fatalf("metrics render at %d shards not byte-identical:\n%s\nvs\n%s",
				shards, got.Render(), refText)
		}
	}
}

// TestTelemetryCacheReplay pins the cache discipline of metrics-on points:
// a warm run must simulate nothing (the "+tel" record short-circuits) yet
// report the exact telemetry block of the cold run, because the hit
// replays the stored block into the harness accumulator.
func TestTelemetryCacheReplay(t *testing.T) {
	store, err := resultstore.Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	run := func() (*Harness, Point, telemetry.Shard) {
		h := NewHarness(shape, route.Random(), 1, 0, 0)
		h.Cache = store
		h.EnableMetrics()
		pt := h.RunPoint(synth.Tornado(), 2, 8, 2, 7)
		return h, pt, *h.Telemetry()
	}
	_, coldPt, coldTel := run()
	warm, warmPt, warmTel := run()
	if warm.PointsRun != 0 {
		t.Fatalf("warm run simulated %d points, want 0 (cache hit)", warm.PointsRun)
	}
	if warmPt != coldPt {
		t.Fatalf("warm point %+v != cold point %+v", warmPt, coldPt)
	}
	if warmTel != coldTel {
		t.Fatalf("replayed telemetry differs:\n got %+v\nwant %+v", warmTel, coldTel)
	}
	if coldTel.Ctr[telemetry.CtrInjected] == 0 {
		t.Fatal("cold run recorded no injections")
	}
}

// TestMetricsSaturatePointAllocFree extends the steady-state alloc gate to
// the metrics-armed point: counter bumps, histogram observes, park/unpark
// accounting and the per-point merge must all run off preallocated state,
// so -metrics never costs an allocation on the hot path.
func TestMetricsSaturatePointAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	h := NewHarness(topo.Shape{X: 4, Y: 4, Z: 8}, route.Random(), 1, 0, 0)
	h.EnableMetrics()
	pat := synth.Tornado()
	point := func() {
		h.RunPoint(pat, 2, 16, 4, 7)
	}
	for i := 0; i < 3; i++ {
		point()
	}
	if n := testing.AllocsPerRun(5, point); n != 0 {
		t.Fatalf("metrics-on saturate point allocates %.1f times/op in steady state, want 0", n)
	}
}
