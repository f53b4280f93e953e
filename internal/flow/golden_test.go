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
// parked on it. Each runs under the random oblivious draw and under the
// adaptive policies, whose hops read the serialization backlog, the
// credit lookahead and the dead-link flags, so every load and health view
// is pinned too. Besides the point it pins the full telemetry counter
// array: a re-park that restarted the stall clock, counted a park event
// or moved an escape entry shows there even when the latencies do not
// move. Any change to emission order, window accounting, entry or
// delivery timing or the reduction fails here.
func TestPointGolden(t *testing.T) {
	const trip = "0,0,1:z+:dead@300ns"
	cases := []struct {
		name   string
		policy route.Policy
		plan   string
		want   [6]uint64 // Load, Offered, Accepted, AvgNs, P99Ns bits; Undelivered
		ctr    [telemetry.NumCounters]int64
	}{
		{"tornado past the knee", route.Random(), "", [6]uint64{
			0x4008000000000000, 0x40048becb3c2e143, 0x3ff5ab8b71ca5e67, 0x4081a7f2843ece31, 0x408bacd2f1a9fbe7, 0},
			[telemetry.NumCounters]int64{30720, 30720, 34441, 72110, 0, 130381284, 558864472, 135628800}},
		{"mid-run link trip", route.Random(), trip, [6]uint64{
			0x4008000000000000, 0x40048becb3c2e143, 0x3ff5ab8b71ca5e67, 0x40819de0e746508c, 0x408ba3fdf3b645a2, 0},
			[telemetry.NumCounters]int64{30720, 30720, 34410, 72511, 12, 130381284, 555267639, 136525928}},
		{"tornado past the knee", route.MinimalAdaptive(), "", [6]uint64{
			0x4008000000000000, 0x40048becb3c2e143, 0x3ff3f8d28c9d0ca8, 0x4082a1b087c3ed03, 0x408d77db22d0e560, 0},
			[telemetry.NumCounters]int64{30720, 30720, 29673, 61681, 0, 130439972, 557469265, 135628800}},
		{"tornado past the knee", route.CreditEcho(), "", [6]uint64{
			0x4008000000000000, 0x40048becb3c2e143, 0x3ff6182bd6a9e63a, 0x40821799e00aec35, 0x408cad0000000000, 0},
			[telemetry.NumCounters]int64{30720, 30720, 31232, 62988, 0, 127324598, 569172614, 135628800}},
		{"mid-run link trip", route.MinimalAdaptive(), trip, [6]uint64{
			0x4008000000000000, 0x40048becb3c2e143, 0x3ff3f8d28c9d0ca8, 0x4082a9f169eb8543, 0x408d801a9fbe76c9, 0},
			[telemetry.NumCounters]int64{30720, 30720, 29900, 62518, 10, 130439972, 554970478, 137048664}},
	}
	for _, c := range cases {
		var plan *fault.Plan
		if c.plan != "" {
			plan = mustPlan(t, c.plan)
		}
		h := NewFaultHarness(topo.Shape{X: 4, Y: 4, Z: 8}, c.policy, 1, 0, 0, plan)
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
		name := c.name + "/" + c.policy.Name()
		if got != c.want {
			t.Errorf("%s: point %+v: bits %#x, want %#x", name, pt, got, c.want)
		}
		tel := h.Telemetry()
		if tel.Ctr != c.ctr {
			t.Errorf("%s: telemetry counters %d, want %d", name, tel.Ctr, c.ctr)
		}
		if !Saturated(pt) || tel.Ctr[telemetry.CtrParkEvents] == 0 {
			t.Errorf("%s: point %+v with %d parks does not exercise backpressure",
				name, pt, tel.Ctr[telemetry.CtrParkEvents])
		}
		if plan != nil && tel.Ctr[telemetry.CtrFaultReroutes] == 0 {
			t.Errorf("%s: the trip rerouted no parked packet", name)
		}
	}
}

// TestPointEventsGolden pins the kernel's work for one closed-loop point
// past the knee, where sources park and credit arrivals revive them: the
// number of events the point fires. Output can stay bit-identical while a
// change adds or drops events; this count moves with either.
func TestPointEventsGolden(t *testing.T) {
	h := NewHarness(topo.Shape{X: 4, Y: 4, Z: 8}, route.Random(), 1, 0, 0)
	h.EnableMetrics()
	h.RunPoint(synth.Tornado(), 3, 32, 8, 7)
	if parks := h.Telemetry().Summary().ParkEvents; parks == 0 {
		t.Fatal("no packet parked; the point no longer exercises credit revival")
	}
	if got, want := h.Machine().ShardKernel(0).EventsFired(), uint64(261120); got != want {
		t.Fatalf("point fired %d events, want %d", got, want)
	}
}
