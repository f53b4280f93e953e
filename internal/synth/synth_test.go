package synth

import (
	"strings"
	"testing"

	"anton3/internal/route"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

var testShape = topo.Shape{X: 2, Y: 2, Z: 2}

func TestPatternsProduceValidCoords(t *testing.T) {
	shapes := []topo.Shape{{X: 2, Y: 2, Z: 2}, {X: 4, Y: 4, Z: 8}, {X: 8, Y: 8, Z: 8}, {X: 8, Y: 8, Z: 16}}
	rng := sim.NewRand(9)
	for _, s := range shapes {
		for _, pat := range Patterns() {
			for i := 0; i < s.Nodes(); i++ {
				src := s.CoordOf(i)
				for k := 0; k < 8; k++ {
					dst := pat.Dest(s, src, rng)
					if !s.Contains(dst) {
						t.Fatalf("%s on %v: dest %v outside shape (src %v)", pat.Name, s, dst, src)
					}
				}
			}
		}
	}
}

func TestUniformExcludesSelf(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	pat := Uniform()
	rng := sim.NewRand(3)
	src := s.CoordOf(17)
	for i := 0; i < 2000; i++ {
		if pat.Dest(s, src, rng) == src {
			t.Fatal("uniform pattern sent a packet to its own node")
		}
	}
}

func TestBitComplementAndTornadoDeterministic(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	if got := BitComplement().Dest(s, topo.Coord{X: 1, Y: 0, Z: 5}, nil); got != (topo.Coord{X: 2, Y: 3, Z: 2}) {
		t.Fatalf("bitcomp dest = %v", got)
	}
	// Tornado on a 4-ring moves +1, on an 8-ring +3.
	if got := Tornado().Dest(s, topo.Coord{X: 3, Y: 0, Z: 6}, nil); got != (topo.Coord{X: 0, Y: 1, Z: 1}) {
		t.Fatalf("tornado dest = %v", got)
	}
}

func TestHotSpotConcentrates(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	hot := topo.Coord{X: 2, Y: 2, Z: 4}
	rng := sim.NewRand(5)
	pat := HotSpot()
	hits := 0
	n := 5000
	for i := 0; i < n; i++ {
		if pat.Dest(s, s.CoordOf(i%s.Nodes()), rng) == hot {
			hits++
		}
	}
	// ~10% directed plus the uniform background; far above 1/128.
	if frac := float64(hits) / float64(n); frac < 0.06 || frac > 0.2 {
		t.Fatalf("hot node drew %.1f%% of traffic, want ~10%%", 100*frac)
	}
}

func TestNeighborIsOneHop(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	rng := sim.NewRand(6)
	pat := Neighbor()
	for i := 0; i < 500; i++ {
		src := s.CoordOf(rng.Intn(s.Nodes()))
		if d := s.HopDist(src, pat.Dest(s, src, rng)); d != 1 {
			t.Fatalf("neighbor dest at distance %d", d)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Point {
		return NewHarness(testShape, route.Random(), 1).RunPoint(Uniform(), 1, 20, 5, 42)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical configs disagreed: %+v vs %+v", a, b)
	}
	if a.AvgNs <= 0 || a.P99Ns < a.AvgNs || a.AvgHops <= 0 {
		t.Fatalf("implausible point %+v", a)
	}
}

func TestLatencyRisesTowardSaturation(t *testing.T) {
	mk := func(load float64) Point {
		return NewHarness(testShape, route.Random(), 1).RunPoint(Uniform(), load, 600, 100, 7)
	}
	lo, hi := mk(0.5), mk(24)
	if hi.AvgNs <= lo.AvgNs*1.1 {
		t.Fatalf("no congestion signal: %.1f ns at load 0.5 vs %.1f ns at load 24", lo.AvgNs, hi.AvgNs)
	}
	// Past saturation the drain tail explodes; below it, it stays near
	// the unloaded flight latency.
	if hi.TailNs <= lo.TailNs*1.4 {
		t.Fatalf("drain tail flat across saturation: %.1f vs %.1f ns", lo.TailNs, hi.TailNs)
	}
}

func TestSweepShapesAndRender(t *testing.T) {
	pols := []route.Policy{route.Random(), route.XYZ(), route.MinimalAdaptive()}
	res := Sweep(Spec{Shape: testShape, Policies: pols, Pattern: Tornado(),
		Loads: []float64{0.5, 1}, Packets: 8, Warmup: 2, Seed: 11})
	if len(res.Curves) != 3 {
		t.Fatalf("want 3 curves, got %d", len(res.Curves))
	}
	for _, c := range res.Curves {
		if len(c.Points) != 2 {
			t.Fatalf("curve %s has %d points", c.Policy, len(c.Points))
		}
	}
	out := res.Render()
	for _, want := range []string{"tornado", "2x2x2", "random", "xyz", "adaptive", "0.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPatternRegistry(t *testing.T) {
	ps := Patterns()
	if len(ps) < 5 {
		t.Fatalf("want >= 5 patterns, got %d", len(ps))
	}
	for _, p := range ps {
		got, ok := PatternByName(p.Name)
		if !ok || got.Name != p.Name {
			t.Fatalf("PatternByName(%q) broken", p.Name)
		}
	}
	if _, ok := PatternByName("warp"); ok {
		t.Fatal("unknown pattern should not resolve")
	}
}
