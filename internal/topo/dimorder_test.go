package topo

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestAllDimOrdersValid(t *testing.T) {
	seen := make(map[DimOrder]bool)
	for i, o := range AllDimOrders {
		if !o.Valid() {
			t.Fatalf("order %d (%v) invalid", i, o)
		}
		if seen[o] {
			t.Fatalf("duplicate order %v", o)
		}
		seen[o] = true
		if o.Index() != i {
			t.Fatalf("Index(%v) = %d, want %d", o, o.Index(), i)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("expected 6 distinct orders, got %d", len(seen))
	}
}

func TestDimOrderInvalid(t *testing.T) {
	bad := DimOrder{X, X, Y}
	if bad.Valid() {
		t.Fatal("XXY should be invalid")
	}
	if bad.Index() != -1 {
		t.Fatal("invalid order should have Index -1")
	}
}

func TestDimOrderString(t *testing.T) {
	if OrderZYX.String() != "ZYX" {
		t.Fatalf("String = %q", OrderZYX.String())
	}
}

// checkRoutes holds f to every RouteTie on a 4x4x8 torus between random
// nodes, in a random order, with ties broken both ways.
func checkRoutes(t *testing.T, f func(s Shape, src, dst Coord, o DimOrder, steps []Step) bool) {
	t.Helper()
	s := Shape{4, 4, 8}
	g := func(a, b uint16, oi uint8) bool {
		src := s.CoordOf(int(a) % s.Nodes())
		dst := s.CoordOf(int(b) % s.Nodes())
		o := AllDimOrders[int(oi)%6]
		for _, tie := range []bool{true, false} {
			if !f(s, src, dst, o, RouteTie(s, src, dst, o, tie)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteReachesDestination(t *testing.T) {
	checkRoutes(t, func(s Shape, src, dst Coord, _ DimOrder, steps []Step) bool {
		cur := src
		for _, st := range steps {
			cur = s.Neighbor(cur, st.Dim, st.Dir)
		}
		return cur == dst
	})
}

func TestRouteMinimal(t *testing.T) {
	checkRoutes(t, func(s Shape, src, dst Coord, _ DimOrder, steps []Step) bool {
		return len(steps) == s.HopDist(src, dst)
	})
}

func TestRouteDimensionOrder(t *testing.T) {
	// Once a route leaves a dimension it must never return to it.
	checkRoutes(t, func(_ Shape, _, _ Coord, o DimOrder, steps []Step) bool {
		rank := map[Dim]int{o[0]: 0, o[1]: 1, o[2]: 2}
		last := -1
		for _, st := range steps {
			r := rank[st.Dim]
			if r < last {
				return false
			}
			last = r
		}
		return true
	})
}

func TestRouteSameDirectionPerDim(t *testing.T) {
	// Minimal routing never doubles back within a dimension.
	checkRoutes(t, func(_ Shape, _, _ Coord, _ DimOrder, steps []Step) bool {
		dir := map[Dim]int{}
		for _, st := range steps {
			if prev, ok := dir[st.Dim]; ok && prev != st.Dir {
				return false
			}
			dir[st.Dim] = st.Dir
		}
		return true
	})
}

func TestRouteExample(t *testing.T) {
	s := Shape{4, 4, 8}
	for _, c := range []struct {
		dst  Coord
		tie  bool
		want []Step
	}{
		// X: +1 (1 hop); Y: 0->3 is -1 with wraparound (1 hop); Z: +2 (2 hops).
		{Coord{1, 3, 2}, true, []Step{{X, 1}, {Y, -1}, {Z, 1}, {Z, 1}}},
		{Coord{1, 3, 2}, false, []Step{{X, 1}, {Y, -1}, {Z, 1}, {Z, 1}}},
		// X: 0->2 is a tie on the 4-ring; Z: 0->4 is a tie on the 8-ring.
		{Coord{2, 0, 4}, true, []Step{{X, 1}, {X, 1}, {Z, 1}, {Z, 1}, {Z, 1}, {Z, 1}}},
		{Coord{2, 0, 4}, false, []Step{{X, -1}, {X, -1}, {Z, -1}, {Z, -1}, {Z, -1}, {Z, -1}}},
	} {
		steps := RouteTie(s, Coord{0, 0, 0}, c.dst, OrderXYZ, c.tie)
		if !slices.Equal(steps, c.want) {
			t.Fatalf("route to %v (plusOnTie %v) = %v, want %v", c.dst, c.tie, steps, c.want)
		}
	}
}

func TestRouteZeroLength(t *testing.T) {
	s := Shape{4, 4, 8}
	c := Coord{2, 2, 2}
	for _, tie := range []bool{true, false} {
		if len(RouteTie(s, c, c, OrderXYZ, tie)) != 0 {
			t.Fatalf("self-route (plusOnTie %v) should be empty", tie)
		}
	}
}

func TestStepString(t *testing.T) {
	if (Step{X, 1}).String() != "X+" || (Step{Z, -1}).String() != "Z-" {
		t.Fatal("Step.String broken")
	}
}

func TestLegalNextStepsMinimal(t *testing.T) {
	s := Shape{4, 4, 8}
	f := func(a, b uint16) bool {
		cur := s.CoordOf(int(a) % s.Nodes())
		dst := s.CoordOf(int(b) % s.Nodes())
		steps := LegalNextSteps(s, cur, dst, nil)
		if cur == dst {
			return len(steps) == 0
		}
		if len(steps) == 0 {
			return false
		}
		h := s.HopDist(cur, dst)
		for _, st := range steps {
			next := s.Neighbor(cur, st.Dim, st.Dir)
			// Every candidate must strictly reduce the remaining distance.
			if s.HopDist(next, dst) != h-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLegalNextStepsTieReturnsBothDirections(t *testing.T) {
	s := Shape{4, 1, 1}
	steps := LegalNextSteps(s, Coord{0, 0, 0}, Coord{2, 0, 0}, nil)
	want := []Step{{X, 1}, {X, -1}}
	if len(steps) != 2 || steps[0] != want[0] || steps[1] != want[1] {
		t.Fatalf("tie candidates = %v, want %v", steps, want)
	}
}

func TestLegalNextStepsOrderedAndReusesBuf(t *testing.T) {
	s := Shape{4, 4, 8}
	buf := make([]Step, 0, 6)
	steps := LegalNextSteps(s, Coord{0, 0, 0}, Coord{1, 1, 1}, buf)
	want := []Step{{X, 1}, {Y, 1}, {Z, 1}}
	if len(steps) != 3 {
		t.Fatalf("steps = %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("steps = %v, want %v", steps, want)
		}
	}
	if &steps[0] != &buf[:1][0] {
		t.Fatal("LegalNextSteps should append into the caller's buffer")
	}
}
