package synth

import (
	"math"
	"testing"

	"anton3/internal/route"
	"anton3/internal/topo"
)

// TestPointGolden pins one netsweep point bit for bit, where the other
// harness tests only compare runs with each other: uniform traffic at
// load 2 on the 64-node torus under the random policy. Any change to the
// schedule draw, the injection order, the delivery timing or the
// reduction that moves a latency by one ulp fails here.
func TestPointGolden(t *testing.T) {
	pt := NewHarness(topo.Shape{X: 4, Y: 4, Z: 4}, route.Random(), 1).RunPoint(Uniform(), 2, 16, 4, 7)
	got := [...]uint64{
		math.Float64bits(pt.AvgNs),
		math.Float64bits(pt.P99Ns),
		math.Float64bits(pt.AvgHops),
		math.Float64bits(pt.TailNs),
	}
	want := [...]uint64{0x406316308b43958b, 0x406f5e6666666666, 0x40080e0000000000, 0x407178083126e979}
	if pt.Load != 2 || got != want {
		t.Fatalf("point %+v: avg/p99/hops/tail bits %#x, want %#x", pt, got, want)
	}
}
