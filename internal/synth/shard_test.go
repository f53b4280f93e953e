package synth

import (
	"reflect"
	"testing"

	"anton3/internal/route"
	"anton3/internal/topo"
)

// TestNetsweepShardCountInvariance is the tier-1 guarantee behind the
// -shards flag: a netsweep table must be byte-identical at every shard
// count. It exercises all three policies (including the adaptive one,
// whose per-hop decisions read live channel backlog) and an adversarial
// pattern at a saturating load, where same-picosecond channel contention
// ties — the case lineage ordering exists for — occur by the dozen.
func TestNetsweepShardCountInvariance(t *testing.T) {
	shape := topo.Shape{X: 4, Y: 4, Z: 4}
	pols := route.Policies()
	// Transpose matters: its same-node packets consume no routing draws,
	// the other stream-compatibility edge the pre-draw must reproduce.
	pats := []Pattern{Uniform(), Tornado(), Transpose()}
	loads := []float64{1, 3}
	packets, warmup := 12, 4
	if testing.Short() {
		pats = pats[1:]
		loads = loads[1:]
	}
	for _, pat := range pats {
		spec := Spec{Shape: shape, Policies: pols, Pattern: pat, Loads: loads, Packets: packets, Warmup: warmup, Seed: 77}
		ref := Sweep(spec)
		refText := ref.Render()
		for _, shards := range []int{2, 4} {
			spec.Shards = shards
			got := Sweep(spec)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("pattern %s: sweep at %d shards differs from 1 shard:\n%s\nvs\n%s",
					pat.Name, shards, got.Render(), refText)
			}
			if got.Render() != refText {
				t.Fatalf("pattern %s: render at %d shards not byte-identical", pat.Name, shards)
			}
		}
	}
}

// TestHarnessReuseMatchesFresh checks the machine-reuse path: points run
// on one long-lived harness must equal one-shot runs on private machines,
// including when seeds and loads change between points.
func TestHarnessReuseMatchesFresh(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	pol := route.Random()
	h := NewHarness(shape, pol, 1)
	cells := []struct {
		load float64
		seed uint64
	}{{1, 5}, {4, 6}, {1, 5}, {2, 9}}
	for _, cell := range cells {
		reused := h.RunPoint(Uniform(), cell.load, 10, 3, cell.seed)
		fresh := NewHarness(shape, pol, 1).RunPoint(Uniform(), cell.load, 10, 3, cell.seed)
		if reused != fresh {
			t.Fatalf("load %.1f seed %d: reused harness %+v, fresh machine %+v",
				cell.load, cell.seed, reused, fresh)
		}
	}
}

// TestShardedNetsweepStress drives the window/outbox protocol hard —
// uneven shard counts, saturating adversarial load, several seeds — and
// checks every result against the sequential run. Under -race this is the
// regression test for the barrier protocol's happens-before edges.
func TestShardedNetsweepStress(t *testing.T) {
	shape := topo.Shape{X: 4, Y: 4, Z: 4}
	shardCounts := []int{2, 3, 5, 8}
	seeds := []uint64{1, 42}
	if testing.Short() {
		shardCounts = []int{3, 8}
		seeds = seeds[:1]
	}
	pol := route.Random()
	for _, seed := range seeds {
		ref := NewHarness(shape, pol, 1).RunPoint(Tornado(), 3, 16, 4, seed)
		for _, shards := range shardCounts {
			h := NewHarness(shape, pol, shards)
			// Two points per harness so reuse and sharding compose.
			for i := 0; i < 2; i++ {
				if got := h.RunPoint(Tornado(), 3, 16, 4, seed); got != ref {
					t.Fatalf("seed %d shards %d: %+v, want %+v", seed, shards, got, ref)
				}
			}
		}
	}
}
