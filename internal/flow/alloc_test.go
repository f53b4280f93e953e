package flow

import (
	"fmt"
	"testing"

	"anton3/internal/route"
	"anton3/internal/synth"
	"anton3/internal/testutil"
	"anton3/internal/topo"
)

// TestSaturatePointAllocFree pins a whole steady-state closed-loop point —
// reset the reused machine, draw the schedule, run sources against credit
// backpressure (parks, escape hops, credit messages, source revivals),
// reduce the statistics — at zero heap allocations once the harness's
// buffers, packet pools, credit-message pools and queue rings have grown
// to the point's size. This is the per-(shape, policy) loop anton3
// saturate runs per offered load.
func TestSaturatePointAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	h := NewHarness(topo.Shape{X: 4, Y: 4, Z: 8}, route.Random(), 1, 0, 0)
	pat := synth.Tornado() // saturating: the park/unpark/credit path is hot
	point := func() {
		h.RunPoint(pat, 2, 16, 4, 7)
	}
	for i := 0; i < 3; i++ {
		point()
	}
	if n := testing.AllocsPerRun(5, point); n != 0 {
		t.Fatalf("saturate point allocates %.1f times/op in steady state, want 0", n)
	}
}

// TestShardedSaturatePointAllocFree extends the steady-state gate to the
// sharded credit path: lineage-tracked credit messages crossing shard
// boundaries through the window outboxes, parked-packet revivals from
// foreign events, and the per-window batch drains all recycle through
// per-shard free lists (rebalanced between runs), so a warmed sharded
// closed-loop point allocates nothing. Tornado traffic is directional, so
// the per-shard pools drain asymmetrically mid-run — the hardest case for
// the free-list rebalancing; the warmup loop is long enough for the pool
// totals to grow to every shard's peak demand.
func TestShardedSaturatePointAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	pat := synth.Tornado()
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := NewHarness(topo.Shape{X: 4, Y: 4, Z: 8}, route.Random(), shards, 0, 0)
			point := func() {
				h.RunPoint(pat, 2, 16, 4, 7)
			}
			for i := 0; i < 16; i++ {
				point()
			}
			if n := testing.AllocsPerRun(5, point); n != 0 {
				t.Fatalf("sharded saturate point allocates %.1f times/op in steady state, want 0", n)
			}
		})
	}
}

// BenchmarkSaturatePoint times one closed-loop cell (128 nodes, tornado at
// 2x the knee, random policy) in sweep steady state on the reused machine,
// exactly as anton3 saturate runs one offered-load point.
func BenchmarkSaturatePoint(b *testing.B) {
	h := NewHarness(topo.Shape{X: 4, Y: 4, Z: 8}, route.Random(), 1, 0, 0)
	pat := synth.Tornado()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.RunPoint(pat, 2, 16, 4, 7)
	}
}

// BenchmarkSaturationKnee runs the full knee search per policy on the
// bit-complement pattern (adversarial with routing freedom, so policies
// genuinely differ) and reports the located knee as a custom metric. The
// committed BENCH_saturation.json artifact carries these knees: the
// policy-dependent spread is the head-of-line-blocking evidence the per-VC
// queue model exists to expose.
func BenchmarkSaturationKnee(b *testing.B) {
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	loads := []float64{0.5, 1, 2, 3, 4}
	for _, pol := range route.SaturatePolicies() {
		b.Run(fmt.Sprintf("bitcomp/%s", pol.Name()), func(b *testing.B) {
			spec := Spec{Spec: synth.Spec{Shape: shape, Policies: []route.Policy{pol}, Pattern: synth.BitComplement(),
				Loads: loads, Packets: 96, Warmup: 32, Seed: 7000, Shards: 1}}
			var knee float64
			for i := 0; i < b.N; i++ {
				knee = Sweep(spec).Curves[0].Knee
			}
			b.ReportMetric(knee, "knee_load")
		})
	}
}
