package flow

import (
	"reflect"
	"testing"

	"anton3/internal/resultstore"
	"anton3/internal/route"
	"anton3/internal/synth"
	"anton3/internal/topo"
)

// sweepThrough runs the reference saturate cell of these tests through
// Sweep with the given store (nil = uncached).
func sweepThrough(cache *resultstore.Store) []Curve {
	return Sweep(Spec{
		Spec: synth.Spec{
			Shape:    topo.Shape{X: 2, Y: 2, Z: 4},
			Policies: []route.Policy{route.XYZ(), route.Random()},
			Pattern:  synth.BitComplement(),
			Loads:    []float64{0.5, 1, 2, 4},
			Packets:  24,
			Warmup:   8,
			Seed:     21,
			Shards:   1,
		},
		Cache: cache,
	}).Curves
}

// TestWarmCacheProbeBudget pins the resultstore's payoff on a saturate
// cell: a warm-cache sweep must simulate at least 25% fewer points than
// the cold sweep (in fact zero — every swept load and every knee-search
// probe replays from the store), and its curves, knees included, must be
// bit-identical to both the cold run and an uncached run. The store is
// reopened between the cold and warm sweeps, so the hit rate also proves
// key stability across a process restart.
func TestWarmCacheProbeBudget(t *testing.T) {
	base := sweepThrough(nil)

	dir := t.TempDir()
	cold, err := resultstore.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	coldCurves := sweepThrough(cold)
	cs := cold.Stats()
	if cs.Misses == 0 || cs.Hits != 0 {
		t.Fatalf("cold run stats %+v, want misses>0 and hits==0", cs)
	}
	if cs.Stored != cs.Misses {
		t.Fatalf("cold run stored %d of %d misses; every miss must heal the store", cs.Stored, cs.Misses)
	}

	warm, err := resultstore.Open(dir, false) // fresh Store = simulated restart
	if err != nil {
		t.Fatal(err)
	}
	warmCurves := sweepThrough(warm)
	ws := warm.Stats()

	// The simulated-point count is the miss count: every miss runs the
	// machine, every hit replays a recorded Point.
	if 4*ws.Misses > 3*cs.Misses {
		t.Fatalf("warm run simulated %d points vs cold %d; want >=25%% fewer", ws.Misses, cs.Misses)
	}
	if ws.Misses != 0 {
		t.Errorf("warm run simulated %d points, want 0 (identical cell, fully recorded)", ws.Misses)
	}
	if ws.Hits != cs.Misses {
		t.Errorf("warm run hit %d entries, want every one of the cold run's %d", ws.Hits, cs.Misses)
	}

	if !reflect.DeepEqual(base, coldCurves) {
		t.Errorf("cold cached curves differ from uncached curves")
	}
	if !reflect.DeepEqual(base, warmCurves) {
		t.Errorf("warm cached curves differ from uncached curves")
	}
	for i := range base {
		if base[i].Knee != warmCurves[i].Knee || base[i].KneeLB != warmCurves[i].KneeLB {
			t.Errorf("policy %s: warm knee %v (lb=%v) != uncached %v (lb=%v)",
				base[i].Policy, warmCurves[i].Knee, warmCurves[i].KneeLB, base[i].Knee, base[i].KneeLB)
		}
	}
}

// TestCacheSharedAcrossLoadsWithinRun checks the fine grain of the
// memoization: within a single cold sweep, a knee probe landing on a load
// another invocation already recorded is a hit, not a re-simulation — the
// store keys on the point config, not on the sweep that asked.
func TestCacheSharedAcrossLoadsWithinRun(t *testing.T) {
	store := resultstore.OpenMemory()
	sweepThrough(store)
	first := store.Stats()
	sweepThrough(store)
	second := store.Stats()
	if got := second.Misses - first.Misses; got != 0 {
		t.Fatalf("second identical sweep simulated %d points, want 0", got)
	}
	if second.Hits-first.Hits != first.Misses {
		t.Fatalf("second sweep hits %d, want %d (one per recorded point)",
			second.Hits-first.Hits, first.Misses)
	}
}
