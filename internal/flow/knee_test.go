package flow

import (
	"math"
	"testing"

	"anton3/internal/route"
	"anton3/internal/synth"
	"anton3/internal/testutil"
	"anton3/internal/topo"
)

// TestKneeBracketProbeBudget pins the geometric bracket stage's probe
// budget: when no swept load saturated, the first saturated rung of the
// doubling ladder (or the proof that none exists) costs exactly
// ceil(log2(kneeDoublings+1)) probes — the log-space binary search — not
// the one-probe-per-rung bottom-up walk it replaced. The lower-bound value
// itself must be the ladder top, the same load the exhausted walk
// reported.
func TestKneeBracketProbeBudget(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	pat := synth.Uniform()
	h := NewHarness(shape, route.XYZ(), 1, 0, 0)
	packets, warmup := 8, 2
	loads := []float64{0.02, 0.04}
	var pts []Point
	for li, load := range loads {
		pts = append(pts, h.RunPoint(pat, load, packets, warmup, 21+uint64(li)*9176))
	}
	for _, pt := range pts {
		if Saturated(pt) {
			t.Fatalf("load %.3f saturated; the test needs an all-unsaturated sweep", pt.Load)
		}
	}
	before := h.PointsRun
	knee, lb := findKnee(h, pat, pts, packets, warmup, 21)
	probes := h.PointsRun - before
	if !lb {
		t.Fatalf("expected a knee lower bound, got located knee %.3f", knee)
	}
	if want := math.Ldexp(loads[len(loads)-1], kneeDoublings); knee != want {
		t.Fatalf("knee lower bound %.3f, want ladder top %.3f", knee, want)
	}
	if probes != 2 {
		t.Fatalf("bracket stage ran %d probes, want 2 (log-space search of the %d-rung ladder)", probes, kneeDoublings)
	}
}

// TestKneeProbeCountsGolden pins the knee search's work and results on
// one saturate cell, run the way Sweep runs it (Spec.harness, then
// sweepKnee): every policy's knee bits, its lower-bound flag and the
// points its harness simulated. The cell sweeps no saturated load, so
// each policy spends two probes on the doubling ladder and six on the
// bisection after its four swept loads. PointsRun is a work counter host
// noise cannot move: a search that spends one more probe, or a routing
// change that shifts a knee by one bisection step, fails here. It skips
// under -race, like the allocation tests: the detector stretches its 48
// points from under a second to about ten seconds and checks nothing a
// plain run does not.
func TestKneeProbeCountsGolden(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("a deterministic work counter; -race only slows it down")
	}
	s := Spec{Spec: synth.Spec{
		Shape:   topo.Shape{X: 2, Y: 2, Z: 4},
		Pattern: synth.BitComplement(),
		Loads:   []float64{0.5, 1, 1.5, 2},
		Packets: 24,
		Warmup:  6,
		Seed:    9001,
	}}.withDefaults()
	want := []struct {
		policy string
		knee   uint64 // 13.6875, 8.5625, 6.40625, 14.9375
		lb     bool
		points int
	}{
		{"random", 0x402b600000000000, false, 12},
		{"xyz", 0x4021200000000000, false, 12},
		{"adaptive", 0x4019a00000000000, false, 12},
		{"credit-echo", 0x402de00000000000, false, 12},
	}
	pols := route.SaturatePolicies()
	if len(pols) != len(want) {
		t.Fatalf("%d saturate policies, want %d", len(pols), len(want))
	}
	for i, pol := range pols {
		h := s.harness(pol, nil, pol.Name())
		_, knee, lb := s.sweepKnee(h)
		w := want[i]
		if pol.Name() != w.policy || math.Float64bits(knee) != w.knee || lb != w.lb || h.PointsRun != w.points {
			t.Errorf("%s: knee %v (bits %#x) lb %v after %d points, want %s knee bits %#x lb %v after %d points",
				pol.Name(), knee, math.Float64bits(knee), lb, h.PointsRun, w.policy, w.knee, w.lb, w.points)
		}
	}
}
