package route

import (
	"testing"
	"testing/quick"

	"anton3/internal/sim"
	"anton3/internal/topo"
)

// TestObliviousWalkMatchesRouteTie pins the bit-identity contract of the
// policy extraction: replaying Random/XYZ per hop must produce exactly the
// hop sequence machine.Send used to precompute via topo.RouteTie.
func TestObliviousWalkMatchesRouteTie(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	pols := []Policy{Random(), XYZ()}
	f := func(a, b uint16, oi uint8, tie bool) bool {
		src := s.CoordOf(int(a) % s.Nodes())
		dst := s.CoordOf(int(b) % s.Nodes())
		o := topo.AllDimOrders[int(oi)%6]
		want := topo.RouteTie(s, src, dst, o, tie)
		for _, p := range pols {
			got := Walk(p, s, src, dst, o, tie, nil)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomOrderMatchesPickOrder(t *testing.T) {
	// Random must consume exactly one draw per packet, identically to the
	// seed's route.PickOrder call — the rng-stream compatibility that keeps
	// Fig5/ping-pong numbers unchanged.
	a, b := sim.NewRand(7), sim.NewRand(7)
	p := Random()
	for i := 0; i < 1000; i++ {
		if p.Order(a) != PickOrder(b) {
			t.Fatal("Random.Order diverged from PickOrder")
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("Random.Order consumed a different amount of randomness")
	}
}

func TestXYZOrderDeterministicAndRngFree(t *testing.T) {
	p := XYZ()
	if p.Order(nil) != topo.OrderXYZ {
		t.Fatal("XYZ policy must always return OrderXYZ without touching rng")
	}
	if MinimalAdaptive().Order(nil) != topo.OrderXYZ {
		t.Fatal("adaptive policy must label packets XYZ without touching rng")
	}
}

func TestAdaptiveStaysMinimal(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	p := MinimalAdaptive()
	rng := sim.NewRand(11)
	// A hostile view (random loads) must never push the walk off minimal
	// routes: the walk terminates in exactly HopDist hops.
	view := LoadFunc(func(topo.Dim, int) int64 { return int64(rng.Intn(1000)) })
	f := func(a, b uint16) bool {
		src := s.CoordOf(int(a) % s.Nodes())
		dst := s.CoordOf(int(b) % s.Nodes())
		steps := Walk(p, s, src, dst, topo.OrderXYZ, true, view)
		if len(steps) != s.HopDist(src, dst) {
			return false
		}
		cur := src
		for _, st := range steps {
			cur = s.Neighbor(cur, st.Dim, st.Dir)
		}
		return cur == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveAvoidsLoadedDimension(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	p := MinimalAdaptive()
	// X+ is congested; the first hop must go Y+ instead.
	view := LoadFunc(func(d topo.Dim, dir int) int64 {
		if d == topo.X {
			return 100
		}
		return 0
	})
	st, ok := p.NextStep(s, topo.Coord{}, topo.Coord{X: 1, Y: 1}, topo.OrderXYZ, true, view, nil)
	if !ok || st.Dim != topo.Y {
		t.Fatalf("adaptive picked %v under X congestion, want Y+", st)
	}
	// Without a view it falls back to the XYZ preference.
	st, ok = p.NextStep(s, topo.Coord{}, topo.Coord{X: 1, Y: 1}, topo.OrderXYZ, true, nil, nil)
	if !ok || st.Dim != topo.X {
		t.Fatalf("adaptive without view picked %v, want X+", st)
	}
}

func TestPolicyRegistry(t *testing.T) {
	ps := Policies()
	if len(ps) < 3 || ps[0].Name() != "random" {
		t.Fatalf("Policies() = %v, want random first of >= 3", ps)
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name()] {
			t.Fatalf("duplicate policy name %q", p.Name())
		}
		seen[p.Name()] = true
	}
}
