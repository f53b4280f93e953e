package machine

import (
	"fmt"
	"testing"

	"anton3/internal/md"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
	"anton3/internal/trace"
)

// timestepRun executes steps MD timesteps on a fresh machine with the
// given channel compression, shard count and flow-control depth (0 = open
// loop) and returns every step's result.
func timestepRun(t *testing.T, cc serdes.CompressConfig, atoms, steps, shards, vcqFlits int) []StepResult {
	t.Helper()
	cfg := DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
	cfg.Compress = cc
	cfg.Shards = shards
	cfg.VCQueueFlits = vcqFlits
	m := New(cfg)
	sys := md.NewWater(atoms, 300, sim.NewRand(21))
	e := NewEngine(m, sys, DefaultTimestepConfig())
	out := make([]StepResult, steps)
	for i := range out {
		out[i] = e.RunStep()
	}
	return out
}

func compareSteps(t *testing.T, label string, ref, got []StepResult, shards int) {
	t.Helper()
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s shards %d: step %d = %+v, want %+v",
				label, shards, i, got[i], ref[i])
		}
	}
}

// TestTimestepShardInvariant is the MD analogue of
// TestFenceWithTrafficShardInvariant: the full timestep pipeline —
// position multicast, PPIM streams, the GC-to-ICB fence riding the same
// channels, force returns, integration — produces identical step results
// at every shard count, over multiple chained steps (each step's start
// time is the previous step's end). The single-shard open-loop reference
// runs in schedule order and the sharded runs in lineage order, so this
// is the check that the two orders agree, with compression off (fig9b's
// baseline engine) and on.
func TestTimestepShardInvariant(t *testing.T) {
	atoms, steps := sz(3000, 2000), sz(3, 2)
	shardCounts := []int{2, 3, 4}
	if testing.Short() {
		shardCounts = shardCounts[:1]
	}
	for _, cc := range []serdes.CompressConfig{{}, {INZ: true, Pcache: true}} {
		t.Run(cc.EnabledString(), func(t *testing.T) {
			ref := timestepRun(t, cc, atoms, steps, 1, 0)
			for _, shards := range shardCounts {
				compareSteps(t, "open-loop", ref, timestepRun(t, cc, atoms, steps, shards, 0), shards)
			}
		})
	}
}

// TestTimestepClosedLoopShardInvariant runs the same check with bounded
// per-VC ingress queues shallow enough to actually park injections: the
// credit loop (parking, revival order, dateline VC switches) must also be
// a pure function of the seed, not of the shard count.
func TestTimestepClosedLoopShardInvariant(t *testing.T) {
	atoms, steps := sz(3000, 2000), 2
	shardCounts := []int{2, 4}
	if testing.Short() {
		shardCounts = shardCounts[:1]
	}
	cc := serdes.CompressConfig{INZ: true, Pcache: true}
	ref := timestepRun(t, cc, atoms, steps, 1, 8)
	var parked int64
	for _, r := range ref {
		parked += r.ParkedPositions + r.ParkedForces
	}
	if parked == 0 {
		t.Fatalf("8-flit queues parked nothing; backpressure path not exercised")
	}
	for _, shards := range shardCounts {
		compareSteps(t, "closed-loop", ref, timestepRun(t, cc, atoms, steps, shards, 8), shards)
	}
}

// TestTimestepRngDrawOrderShardInvariant pins the engine's rng discipline:
// all routing randomness is pre-drawn at setup from the machine's rng in
// flat atom-major order, so after any number of steps the machine rng
// stream sits at the same position regardless of shard count — the next
// draw is identical.
func TestTimestepRngDrawOrderShardInvariant(t *testing.T) {
	next := func(shards int) (topo.DimOrder, bool) {
		cfg := DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
		cfg.Shards = shards
		m := New(cfg)
		sys := md.NewWater(sz(2000, 1000), 300, sim.NewRand(21))
		e := NewEngine(m, sys, DefaultTimestepConfig())
		e.RunStep()
		e.RunStep()
		return m.DrawRoute()
	}
	refO, refT := next(1)
	for _, shards := range []int{2, 4} {
		o, tie := next(shards)
		if o != refO || tie != refT {
			t.Fatalf("shards %d: rng stream at (%v,%v) after 2 steps, want (%v,%v)",
				shards, o, tie, refO, refT)
		}
	}
}

// TestTimestepResetReuseMatchesFresh checks that a Machine.Reset between
// engines reproduces a fresh machine digit for digit — the property that
// lets experiment jobs reuse one machine across MD configurations.
func TestTimestepResetReuseMatchesFresh(t *testing.T) {
	atoms := sz(3000, 2000)
	cfg := DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
	cfg.Shards = 2
	cfg.VCQueueFlits = 8
	m := New(cfg)

	run := func(m *Machine) []StepResult {
		sys := md.NewWater(atoms, 300, sim.NewRand(21))
		e := NewEngine(m, sys, DefaultTimestepConfig())
		return []StepResult{e.RunStep(), e.RunStep()}
	}

	run(m) // dirty the machine: pools, credits, rng, kernel clocks
	m.Reset(cfg.Seed)
	reused := run(m)
	fresh := run(New(cfg))
	for i := range fresh {
		if reused[i] != fresh[i] {
			t.Fatalf("step %d after Reset = %+v, fresh machine = %+v", i, reused[i], fresh[i])
		}
	}
}

// TestTimestepObservabilityShardInvariant arms telemetry and packet
// tracing on a closed-loop, adaptive MD step. Multicast packets cross
// channels through the engine's walker, and acceptHop files their escape
// entries under p.CurIdx, so the run must keep CurIdx on the node the
// packet is at: otherwise every escape entry lands on node 0's track, and
// on a sharded machine a foreign shard writes into shard 0's recorder.
// Merged counters and per-node escape counts must match across shard
// counts, and no node may hold more than twice the mean.
func TestTimestepObservabilityShardInvariant(t *testing.T) {
	run := func(shards int) (telemetry.Shard, []int) {
		cfg := DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
		cfg.Shards = shards
		cfg.VCQueueFlits = 4
		cfg.Policy = route.MinimalAdaptive()
		m := New(cfg)
		m.EnableTelemetry()
		m.AttachPacketTrace("md")
		e := NewEngine(m, md.NewWater(2000, 300, sim.NewRand(777)), DefaultTimestepConfig())
		e.RunStep()
		rec := trace.NewRecorder()
		m.DrainPacketTrace(rec)
		esc := make([]int, len(m.Nodes()))
		for i, n := range m.Nodes() {
			esc[i] = len(rec.Intervals(fmt.Sprintf("md/%v/escape", n.Coord)))
		}
		return *m.Telemetry().Merged(), esc
	}
	refTel, refEsc := run(1)
	if refTel.Ctr[telemetry.CtrEscapeVCEntries] == 0 {
		t.Fatal("4-flit queues took no escape hop; escape path not exercised")
	}
	total := 0
	for _, c := range refEsc {
		total += c
	}
	for i, c := range refEsc {
		if c*len(refEsc) > 2*total {
			t.Fatalf("node %d holds %d of %d escape entries, over twice the per-node mean", i, c, total)
		}
	}
	tel, esc := run(2)
	if tel != refTel {
		t.Fatalf("shards 2: telemetry %+v, want %+v", tel.Summary(), refTel.Summary())
	}
	for i := range refEsc {
		if esc[i] != refEsc[i] {
			t.Fatalf("shards 2: escape entries per node %v, want %v", esc, refEsc)
		}
	}
}

// TestTimestepAllocBudget gates the steady-state timestep inner loop: once
// plan buffers, stream actors, packet pools and kernel event pools are
// warm, the per-atom machinery (position packets, stream phases, PPIM
// bookings, force returns) runs allocation-free — allocs per step must not
// scale with the atom count. The per-step residue (the fence wavefront's
// per-node round counts and completion closures) is independent of system
// size and budgeted absolutely. A single-shard open-loop machine keeps no
// lineage histories, so the budget also catches lineage creeping back onto
// it. The budgets hold with compression off and with INZ and the particle
// cache on: channel compression sizes payloads without encoding them and
// updates its caches in place.
func TestTimestepAllocBudget(t *testing.T) {
	perStep := func(cc serdes.CompressConfig, atoms int) float64 {
		cfg := DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
		cfg.Compress = cc
		m := New(cfg)
		sys := md.NewWater(atoms, 300, sim.NewRand(21))
		e := NewEngine(m, sys, DefaultTimestepConfig())
		for i := 0; i < 4; i++ { // warm pools and plan buffers
			e.RunStep()
		}
		return testing.AllocsPerRun(5, func() { e.RunStep() })
	}
	for _, cc := range []serdes.CompressConfig{{}, {INZ: true, Pcache: true}} {
		t.Run(cc.EnabledString(), func(t *testing.T) {
			small := perStep(cc, 2000)
			if small > 100 {
				t.Errorf("steady-state timestep allocates %.0f allocs/step, budget 100", small)
			}
			if testing.Short() {
				return
			}
			large := perStep(cc, 8000)
			// 4x the atoms must not mean more than ~1.2x the allocations.
			if large > 1.2*small+100 {
				t.Errorf("allocs/step scale with atoms: %.0f at 2000, %.0f at 8000", small, large)
			}
		})
	}
}
