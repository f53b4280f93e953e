package synth

import (
	"math"
	"testing"

	"anton3/internal/route"
	"anton3/internal/topo"
)

// TestPointGolden pins one netsweep point bit for bit, where the other
// harness tests only compare runs with each other: uniform traffic at
// load 2 on the 64-node torus, once per routing policy whose hop decisions
// differ — the random oblivious draw and the adaptive policy reading the
// serialization-backlog load view. Any change to the schedule draw, the
// injection order, the load view, the delivery timing or the reduction
// that moves a latency by one ulp fails here.
func TestPointGolden(t *testing.T) {
	cases := []struct {
		policy route.Policy
		want   [4]uint64 // AvgNs, P99Ns, AvgHops, TailNs bits
	}{
		{route.Random(), [4]uint64{0x406316308b43958b, 0x406f5e6666666666, 0x40080e0000000000, 0x407178083126e979}},
		{route.MinimalAdaptive(), [4]uint64{0x4062e8c31cac083b, 0x406e1fd70a3d70a4, 0x40080e0000000000, 0x4070ccac083126e9}},
	}
	for _, c := range cases {
		pt := NewHarness(topo.Shape{X: 4, Y: 4, Z: 4}, c.policy, 1).RunPoint(Uniform(), 2, 16, 4, 7)
		got := [4]uint64{
			math.Float64bits(pt.AvgNs),
			math.Float64bits(pt.P99Ns),
			math.Float64bits(pt.AvgHops),
			math.Float64bits(pt.TailNs),
		}
		if pt.Load != 2 || got != c.want {
			t.Errorf("%s: point %+v: avg/p99/hops/tail bits %#x, want %#x", c.policy.Name(), pt, got, c.want)
		}
	}
}

// TestPointEventsGolden pins the kernel's work for the TestPointGolden
// point: the number of events one open-loop point fires. Output can stay
// bit-identical while a change adds or drops events (a spare reschedule,
// a merged hop); this count moves with either.
func TestPointEventsGolden(t *testing.T) {
	h := NewHarness(topo.Shape{X: 4, Y: 4, Z: 4}, route.Random(), 1)
	h.RunPoint(Uniform(), 2, 16, 4, 7)
	if got, want := h.Machine().ShardKernel(0).EventsFired(), uint64(10292); got != want {
		t.Fatalf("point fired %d events, want %d", got, want)
	}
}
