package flow

import (
	"reflect"
	"testing"

	"anton3/internal/route"
	"anton3/internal/synth"
	"anton3/internal/topo"
)

// TestSaturateShardCountInvariance is the tier-1 guarantee behind running
// `anton3 saturate` with -shards: a closed-loop grid must be byte-identical
// at every shard count. It is a harder case than the netsweep analog:
// besides same-picosecond channel ties, the closed loop's credit returns,
// head-of-line unparks and source revivals are all runtime events whose
// relative order lineage must pin. All four policies run, including the
// credit-steered one whose per-hop decisions read live credit state.
func TestSaturateShardCountInvariance(t *testing.T) {
	shape := topo.Shape{X: 4, Y: 4, Z: 4}
	pols := route.SaturatePolicies()
	// Transpose adds same-node packets (no routing draw); tornado at load 3
	// saturates, exercising parking, escape hops and source backpressure.
	pats := []synth.Pattern{synth.Uniform(), synth.Tornado(), synth.Transpose()}
	loads := []float64{1, 3}
	packets, warmup := 12, 4
	if testing.Short() {
		pols = []route.Policy{route.Random(), route.CreditEcho()}
		pats = pats[1:]
		loads = loads[1:]
	}
	for _, pol := range pols {
		for _, pat := range pats {
			ref := make([]Point, 0, len(loads))
			h := NewHarness(shape, pol, 1, 0, 0)
			for _, load := range loads {
				ref = append(ref, h.RunPoint(pat, load, packets, warmup, 77))
			}
			for _, shards := range []int{2, 4} {
				hs := NewHarness(shape, pol, shards, 0, 0)
				for li, load := range loads {
					if got := hs.RunPoint(pat, load, packets, warmup, 77); got != ref[li] {
						t.Fatalf("%s/%s load %.1f: point at %d shards %+v, want %+v",
							pol.Name(), pat.Name, load, shards, got, ref[li])
					}
				}
			}
		}
	}
}

// TestSaturateSweepShardInvariance runs the full sweep+knee pipeline (the
// saturate cell as the runner executes it) at several shard counts and
// requires identical results and identical rendered bytes.
func TestSaturateSweepShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestSaturateShardCountInvariance in short mode")
	}
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	pols := route.SaturatePolicies()
	loads := []float64{0.5, 2}
	spec := Spec{Spec: synth.Spec{Shape: shape, Policies: pols, Pattern: synth.Tornado(),
		Loads: loads, Packets: 16, Warmup: 4, Seed: 99, Shards: 1}}
	ref := Sweep(spec)
	refText := ref.Render()
	for _, shards := range []int{2, 4} {
		spec.Shards = shards
		got := Sweep(spec)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("sweep at %d shards differs:\n%s\nvs\n%s", shards, got.Render(), refText)
		}
		if got.Render() != refText {
			t.Fatalf("render at %d shards not byte-identical", shards)
		}
	}
}

// TestShardedSaturateStress drives the window/outbox protocol with uneven
// shard counts at a saturating load over several seeds; under -race it is
// the regression test for the credit messages' happens-before edges.
func TestShardedSaturateStress(t *testing.T) {
	shape := topo.Shape{X: 4, Y: 4, Z: 4}
	shardCounts := []int{2, 3, 5, 8}
	seeds := []uint64{1, 42}
	if testing.Short() {
		shardCounts = []int{3, 8}
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		ref := NewHarness(shape, route.Random(), 1, 0, 0).RunPoint(synth.Tornado(), 3, 16, 4, seed)
		for _, shards := range shardCounts {
			h := NewHarness(shape, route.Random(), shards, 0, 0)
			// Two points per harness so reuse and sharding compose.
			for i := 0; i < 2; i++ {
				if got := h.RunPoint(synth.Tornado(), 3, 16, 4, seed); got != ref {
					t.Fatalf("seed %d shards %d: %+v, want %+v", seed, shards, got, ref)
				}
			}
		}
	}
}
