package flow

import (
	"math"
	"testing"

	"anton3/internal/fault"
	"anton3/internal/route"
	"anton3/internal/synth"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
)

// TestPointGolden pins closed-loop points bit for bit, where the other
// flow tests only compare runs with each other or check bounds: a tornado
// point well past the knee, whose sources park, back up and are revived
// by credit arrivals, and a point whose link dies mid-run with packets
// parked on it. Any change to emission order, window accounting, entry
// or delivery timing or the reduction fails here.
func TestPointGolden(t *testing.T) {
	cases := []struct {
		name string
		plan string
		want [6]uint64 // Load, Offered, Accepted, AvgNs, P99Ns bits; Undelivered
	}{
		{"tornado past the knee", "", [6]uint64{
			0x4008000000000000, 0x40048becb3c2e143, 0x3ff5ab8b71ca5e67, 0x4081a7f2843ece31, 0x408bacd2f1a9fbe7, 0}},
		{"mid-run link trip", "0,0,1:z+:dead@300ns", [6]uint64{
			0x4008000000000000, 0x40048becb3c2e143, 0x3ff5ab8b71ca5e67, 0x40819de0e746508c, 0x408ba3fdf3b645a2, 0}},
	}
	for _, c := range cases {
		var plan *fault.Plan
		if c.plan != "" {
			plan = mustPlan(t, c.plan)
		}
		h := NewFaultHarness(topo.Shape{X: 4, Y: 4, Z: 8}, route.Random(), 1, 0, 0, plan)
		h.EnableMetrics()
		pt := h.RunPoint(synth.Tornado(), 3, 64, 16, 7)
		got := [6]uint64{
			math.Float64bits(pt.Load),
			math.Float64bits(pt.Offered),
			math.Float64bits(pt.Accepted),
			math.Float64bits(pt.AvgNs),
			math.Float64bits(pt.P99Ns),
			uint64(pt.Undelivered),
		}
		if got != c.want {
			t.Errorf("%s: point %+v: bits %#x, want %#x", c.name, pt, got, c.want)
		}
		tel := h.Telemetry()
		if !Saturated(pt) || tel.Ctr[telemetry.CtrParkEvents] == 0 {
			t.Errorf("%s: point %+v with %d parks does not exercise backpressure",
				c.name, pt, tel.Ctr[telemetry.CtrParkEvents])
		}
		if plan != nil && tel.Ctr[telemetry.CtrFaultReroutes] == 0 {
			t.Errorf("%s: the trip rerouted no parked packet", c.name)
		}
	}
}
