package md

import (
	"math"
	"slices"
	"testing"

	"anton3/internal/fixp"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

func smallSystem(n int) *System {
	return NewWater(n, 300, sim.NewRand(42))
}

func TestBoxForAtoms(t *testing.T) {
	// 32751 atoms at water density: ~99 A box.
	box := BoxForAtoms(32751)
	if box < 95 || box > 103 {
		t.Fatalf("box = %.1f A, want ~99", box)
	}
}

func TestInitialTemperature(t *testing.T) {
	s := smallSystem(4096)
	temp := s.Temperature()
	if temp < 270 || temp > 330 {
		t.Fatalf("initial T = %.0f K, want ~300", temp)
	}
}

func TestInitialMomentumZero(t *testing.T) {
	s := smallSystem(2048)
	p := s.Momentum()
	if math.Abs(p.X)+math.Abs(p.Y)+math.Abs(p.Z) > 1e-9 {
		t.Fatalf("net momentum %v, want ~0", p)
	}
}

func TestMomentumConserved(t *testing.T) {
	s := smallSystem(512)
	s.Run(20)
	p := s.Momentum()
	if math.Abs(p.X)+math.Abs(p.Y)+math.Abs(p.Z) > 1e-9 {
		t.Fatalf("momentum drifted to %v", p)
	}
}

func TestEnergyConservation(t *testing.T) {
	// NVE drift over 200 steps must be a small fraction of kinetic energy.
	s := smallSystem(1000)
	// Brief equilibration to relax the lattice.
	for i := 0; i < 20; i++ {
		s.Step()
		s.Rescale(300, 0.5)
	}
	e0 := s.TotalEnergy()
	ke := s.KineticEnergy()
	s.Run(200)
	drift := math.Abs(s.TotalEnergy() - e0)
	if drift > 0.02*ke {
		t.Fatalf("energy drift %.3f kcal/mol (%.2f%% of KE) over 200 steps",
			drift, 100*drift/ke)
	}
}

func TestForcesSumToZero(t *testing.T) {
	s := smallSystem(512)
	var sum [3]float64
	for _, f := range s.Force {
		sum[0] += f.X
		sum[1] += f.Y
		sum[2] += f.Z
	}
	for _, c := range sum {
		if math.Abs(c) > 1e-8 {
			t.Fatalf("forces do not sum to zero: %v", sum)
		}
	}
}

func TestMinImageBounds(t *testing.T) {
	s := smallSystem(64)
	for i := 0; i < 50; i++ {
		a, b := s.Pos[i%64], s.Pos[(i*7+3)%64]
		d := MinImage(a, b, s.Box)
		if math.Abs(d.X) > s.Box/2+1e-9 || math.Abs(d.Y) > s.Box/2+1e-9 || math.Abs(d.Z) > s.Box/2+1e-9 {
			t.Fatalf("min image out of range: %v (box %f)", d, s.Box)
		}
	}
}

func TestPairCountReasonable(t *testing.T) {
	// Water-density LJ at 9 A cutoff: each atom sees ~100 neighbors, so
	// pairs ~ N*100/2.
	s := smallSystem(4096)
	pairs := s.PairCount()
	perAtom := 2 * float64(pairs) / float64(s.N)
	if perAtom < 70 || perAtom > 140 {
		t.Fatalf("neighbors per atom = %.0f, want ~100", perAtom)
	}
}

func TestNoOverlapsAfterDynamics(t *testing.T) {
	s := smallSystem(512)
	s.Run(50)
	rmin := s.Box
	for i := 0; i < s.N; i++ {
		for j := i + 1; j < s.N; j++ {
			d := MinImage(s.Pos[i], s.Pos[j], s.Box)
			if r := math.Sqrt(d.Norm2()); r < rmin {
				rmin = r
			}
		}
	}
	if rmin < 0.6*Sigma {
		t.Fatalf("atoms overlapped: min distance %.2f A", rmin)
	}
}

func TestPositionsStayInBox(t *testing.T) {
	s := smallSystem(512)
	s.Run(30)
	for i, p := range s.Pos {
		if p.X < 0 || p.X >= s.Box || p.Y < 0 || p.Y >= s.Box || p.Z < 0 || p.Z >= s.Box {
			t.Fatalf("atom %d escaped the box: %v", i, p)
		}
	}
}

func TestWrapStaysBelowBox(t *testing.T) {
	box := BoxForAtoms(16000)
	below := math.Nextafter(box, 0)
	for _, c := range []struct{ x, want float64 }{
		{-1e-18, 0}, // box - 1e-18 rounds to box
		{-5e-15, 0},
		{math.Copysign(0, -1), 0},
		{box, 0},
		{below, below},
		{-1, box - 1},
		{box + 1, 1},
	} {
		got := wrap(c.x, box)
		if got != c.want || got < 0 || got >= box {
			t.Errorf("wrap(%g, %g) = %g, want %g in [0, box)", c.x, box, got, c.want)
		}
	}
}

func TestRescalePullsTemperature(t *testing.T) {
	s := smallSystem(512)
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Scale(2) // heat to ~4x
	}
	for i := 0; i < 30; i++ {
		s.Rescale(300, 0.5)
	}
	if temp := s.Temperature(); temp < 250 || temp > 350 {
		t.Fatalf("rescale failed: T = %.0f", temp)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := NewWater(256, 300, sim.NewRand(7))
	b := NewWater(256, 300, sim.NewRand(7))
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] {
			t.Fatal("same seed built different systems")
		}
	}
}

// --- Decomposition tests ---

func TestHomeNodePartition(t *testing.T) {
	s := smallSystem(4096)
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	d := NewDecomposition(shape, s.Box)
	buckets := d.Assign(s.Pos)
	total := 0
	for _, b := range buckets {
		total += len(b)
		// Roughly equal split (lattice + jitter): each of 8 nodes ~512.
		if len(b) < 256 || len(b) > 1024 {
			t.Fatalf("unbalanced bucket: %d", len(b))
		}
	}
	if total != s.N {
		t.Fatalf("partition lost atoms: %d of %d", total, s.N)
	}
}

func TestDecompositionValidatesSlabWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("slab thinner than cutoff should panic")
		}
	}()
	NewDecomposition(topo.Shape{X: 8, Y: 1, Z: 1}, 40) // 5 A slabs
}

func TestExportTargetsCoverInteractions(t *testing.T) {
	// Completeness: for every in-cutoff pair with different homes, each
	// atom must be exported to the other's home node.
	s := smallSystem(2048)
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	d := NewDecomposition(shape, s.Box)
	rc2 := Cutoff * Cutoff
	var scratch []topo.Coord
	for i := 0; i < s.N; i += 7 { // sample
		hi := d.HomeNode(s.Pos[i])
		for j := 0; j < s.N; j++ {
			if i == j {
				continue
			}
			dd := MinImage(s.Pos[i], s.Pos[j], s.Box)
			if dd.Norm2() >= rc2 {
				continue
			}
			hj := d.HomeNode(s.Pos[j])
			if hi == hj {
				continue
			}
			scratch = d.ExportTargets(s.Pos[i], hi, scratch)
			found := false
			for _, tgt := range scratch {
				if tgt == hj {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("atom %d (home %v) interacts with %d (home %v) but is not exported there",
					i, hi, j, hj)
			}
		}
	}
}

func TestDistributedForcesMatchGolden(t *testing.T) {
	s := smallSystem(2048)
	s.Run(5)
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	d := NewDecomposition(shape, s.Box)
	dist := DistributedForces(s, d)
	for i := range dist {
		diff := dist[i].Sub(s.Force[i])
		if math.Abs(diff.X)+math.Abs(diff.Y)+math.Abs(diff.Z) > 1e-7 {
			t.Fatalf("atom %d: distributed %v != golden %v", i, dist[i], s.Force[i])
		}
	}
}

func TestMulticastEdgesDeduped(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	home := topo.Coord{}
	targets := []topo.Coord{
		{X: 1}, {Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1, Z: 1},
	}
	edges := MulticastEdges(shape, home, targets, true, nil)
	seen := map[ChannelEdge]bool{}
	for _, e := range edges {
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
	// XYZ tree: (0,0,0)-X->(1,0,0); (0,0,0)-Y->(0,1,0); (1,0,0)-Y->(1,1,0);
	// (1,1,0)-Z->(1,1,1): 4 edges.
	if len(edges) != 4 {
		t.Fatalf("tree has %d edges, want 4: %v", len(edges), edges)
	}
}

// TestPlanMatchesGeometry holds every plan to the targets and tree that
// ExportTargets and MulticastEdges give the position it was handed out
// for, and checks that a position's class keeps one plan with a dense ID.
// Half the positions sit on slab faces. In the box exactly four cutoffs
// wide, an atom on a face reaches the slab two over, a class no
// neighbour mask expresses.
func TestPlanMatchesGeometry(t *testing.T) {
	rng := sim.NewRand(3)
	wide := false
	for _, c := range []struct {
		shape topo.Shape
		box   float64
	}{
		{topo.Shape{X: 2, Y: 2, Z: 2}, 44},
		{topo.Shape{X: 3, Y: 1, Z: 2}, 30},
		{topo.Shape{X: 4, Y: 4, Z: 4}, 4 * Cutoff},
	} {
		d := NewDecomposition(c.shape, c.box)
		n := [3]int{c.shape.X, c.shape.Y, c.shape.Z}
		byID := map[int]*Plan{}
		for i := 0; i < 4000; i++ {
			var x [3]float64
			for k := range x {
				x[k] = rng.Float64() * c.box
				if i%2 == 0 {
					w := c.box / float64(n[k])
					x[k] = float64(int(x[k]/w)) * w
				}
			}
			p := fixp.Vec{X: x[0], Y: x[1], Z: x[2]}
			home := d.HomeNode(p)
			tie := i&2 != 0
			pl := d.Plan(p, home, tie)
			targets := d.ExportTargets(p, home, nil)
			edges := MulticastEdges(c.shape, home, targets, tie, nil)
			radius := 0
			for _, tgt := range targets {
				radius = max(radius, c.shape.HopDist(home, tgt))
				if (tgt.X-home.X+n[0])%n[0] == 2 && n[0] > 3 {
					wide = true
				}
			}
			if !slices.Equal(pl.Targets, targets) || !slices.Equal(pl.Edges, edges) || pl.Radius != radius {
				t.Fatalf("%v: plan at %v = %+v, want targets %v, edges %v, radius %d",
					c.shape, p, pl, targets, edges, radius)
			}
			if q := byID[pl.ID]; d.Plan(p, home, tie) != pl || q != nil && q != pl {
				t.Fatalf("%v: position %v does not keep plan %d", c.shape, p, pl.ID)
			}
			byID[pl.ID] = pl
		}
		for id := range byID {
			if id < 0 || id >= len(byID) {
				t.Fatalf("%v: plan IDs %d are not dense from 0", c.shape, id)
			}
		}
	}
	if !wide {
		t.Fatal("no position reached a slab two over")
	}
}

func TestRelativeFixedSmall(t *testing.T) {
	// Positions relative to the home box corner must fit well under 2^26
	// for the systems we simulate, giving INZ leading zeros to remove.
	s := smallSystem(4096)
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	d := NewDecomposition(shape, s.Box)
	for i, p := range s.Pos {
		home := d.HomeNode(p)
		f := d.RelativeFixed(p, home)
		for c := 0; c < 3; c++ {
			v := f.Coord(c)
			if v < 0 || v >= 1<<26 {
				t.Fatalf("atom %d relative coord %d out of range", i, v)
			}
		}
	}
}

func TestPerStepDisplacementFitsPcache(t *testing.T) {
	// The fixed-point per-step displacement must fit the particle cache's
	// 12-bit difference storage for typical thermal motion.
	s := smallSystem(512)
	s.Run(5)
	maxDelta := 0.0
	for _, v := range s.Vel {
		d := math.Sqrt(v.Norm2()) * DT
		if d > maxDelta {
			maxDelta = d
		}
	}
	units := maxDelta * (1 << 16)
	if units >= 2048 {
		t.Fatalf("per-step displacement %.0f units overflows 12-bit D1", units)
	}
}

// reportNsPerPair reports the mean time per in-cutoff pair of the last
// force evaluation; the count barely moves over a short run.
func reportNsPerPair(b *testing.B, s *System) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.PairCount()), "ns/pair")
}

func BenchmarkForces32k(b *testing.B) {
	s := NewWater(32768, 300, sim.NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeForces()
	}
	reportNsPerPair(b, s)
}

func BenchmarkStep4k(b *testing.B) {
	s := NewWater(4096, 300, sim.NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	reportNsPerPair(b, s)
}
