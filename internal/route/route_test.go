package route

import (
	"testing"
	"testing/quick"

	"anton3/internal/sim"
	"anton3/internal/topo"
)

func TestVCProvisioning(t *testing.T) {
	// Section III-B2: five VCs total for the Edge Router.
	if NumVCs != 5 || NumRequestVCs != 4 || ResponseVC != 4 {
		t.Fatal("VC provisioning does not match the paper")
	}
}

func TestPickOrderUniform(t *testing.T) {
	r := sim.NewRand(1)
	counts := map[topo.DimOrder]int{}
	n := 60000
	for i := 0; i < n; i++ {
		counts[PickOrder(r)]++
	}
	for _, o := range topo.AllDimOrders {
		c := counts[o]
		if c < n/6-n/30 || c > n/6+n/30 {
			t.Fatalf("order %v picked %d of %d (not ~uniform)", o, c, n)
		}
	}
}

func TestResponseRouteNeverWraps(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	f := func(a, b uint16) bool {
		src := s.CoordOf(int(a) % s.Nodes())
		dst := s.CoordOf(int(b) % s.Nodes())
		cur := src
		for _, st := range ResponseRoute(s, src, dst, nil) {
			next := s.Neighbor(cur, st.Dim, st.Dir)
			// A wraparound hop changes the coordinate against the
			// direction of travel.
			if st.Dir > 0 && next.Get(st.Dim) < cur.Get(st.Dim) {
				return false
			}
			if st.Dir < 0 && next.Get(st.Dim) > cur.Get(st.Dim) {
				return false
			}
			cur = next
		}
		return cur == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResponseRouteCanBeNonMinimal(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	src, dst := topo.Coord{X: 0}, topo.Coord{X: 3}
	steps := ResponseRoute(s, src, dst, nil)
	if len(steps) != 3 {
		t.Fatalf("mesh-restricted 0->3 should take 3 hops, got %d", len(steps))
	}
	if s.HopDist(src, dst) != 1 {
		t.Fatal("sanity: torus distance should be 1")
	}
}

func TestResponseRouteXYZOrder(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	steps := ResponseRoute(s, topo.Coord{X: 0, Y: 3, Z: 5}, topo.Coord{X: 2, Y: 1, Z: 7}, nil)
	rank := map[topo.Dim]int{topo.X: 0, topo.Y: 1, topo.Z: 2}
	last := -1
	for _, st := range steps {
		if rank[st.Dim] < last {
			t.Fatalf("response route out of XYZ order: %v", steps)
		}
		last = rank[st.Dim]
	}
}
