package route

import (
	"testing"

	"anton3/internal/sim"
	"anton3/internal/topo"
)

func TestVCProvisioning(t *testing.T) {
	// Section III-B2: four request VCs for the Edge Router.
	if NumRequestVCs != 4 {
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
