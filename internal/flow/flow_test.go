package flow

import (
	"testing"

	"anton3/internal/route"
	"anton3/internal/synth"
	"anton3/internal/topo"
)

// TestAcceptedNeverExceedsOffered is the load-conservation property of the
// closed-loop rig: sources can only delay traffic, never invent it, so at
// every cleanly drained load point the accepted rate is bounded by the
// realized offered rate. (Structurally: every network entry happens at or
// after its intended instant, so the entry horizon can only stretch.)
func TestAcceptedNeverExceedsOffered(t *testing.T) {
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	loads := []float64{0.5, 1, 2, 4}
	pats := []synth.Pattern{synth.Uniform(), synth.Tornado(), synth.BitComplement()}
	pols := route.SaturatePolicies()
	if testing.Short() {
		loads = []float64{0.5, 2}
		pats = pats[1:]
		pols = pols[:2]
	}
	for _, pol := range pols {
		h := NewHarness(shape, pol, 1, 0, 0)
		for _, pat := range pats {
			for _, load := range loads {
				pt := h.RunPoint(pat, load, 24, 8, 11)
				if pt.Undelivered != 0 {
					t.Errorf("%s/%s load %.1f: %d packets undelivered (escape channels should prevent wedging)",
						pol.Name(), pat.Name, load, pt.Undelivered)
					continue
				}
				if pt.Accepted > pt.Offered*(1+1e-12) {
					t.Errorf("%s/%s load %.1f: accepted %.6f exceeds offered %.6f",
						pol.Name(), pat.Name, load, pt.Accepted, pt.Offered)
				}
				if pt.Accepted <= 0 || pt.Offered <= 0 {
					t.Errorf("%s/%s load %.1f: non-positive rates %+v", pol.Name(), pat.Name, load, pt)
				}
			}
		}
	}
}

// TestAcceptedMonotoneToSaturation pins the shape of the accepted-
// throughput curve: below the knee the network keeps up exactly (ratio 1,
// so accepted tracks offered and is strictly increasing), and the first
// saturated point still accepts no less than the last unsaturated one
// would require... the classic curve rises to the knee.
func TestAcceptedMonotoneToSaturation(t *testing.T) {
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	loads := []float64{0.25, 0.5, 1, 2, 3}
	h := NewHarness(shape, route.Random(), 1, 0, 0)
	prev := 0.0
	for _, load := range loads {
		pt := h.RunPoint(synth.Uniform(), load, 24, 8, 11)
		if Saturated(pt) {
			break
		}
		if pt.Accepted < prev {
			t.Fatalf("accepted throughput fell below the knee: %.4f after %.4f at load %.2f",
				pt.Accepted, prev, load)
		}
		if pt.Ratio() < 0.999 {
			t.Fatalf("unsaturated point at load %.2f has ratio %.4f, want ~1", load, pt.Ratio())
		}
		prev = pt.Accepted
	}
	if prev == 0 {
		t.Fatal("every load point read as saturated; the sweep never sampled the linear region")
	}
}

// TestClosedLoopMatchesOpenLoopUncongested cross-validates the credit
// flow-control layer against the open-loop machine: with ingress queues
// too deep to ever refuse a packet, the closed-loop harness offers the
// exact same pre-drawn schedule as the netsweep harness and the per-VC
// queue machinery must add zero delay — identical packets, identical
// delivery times, so every field of the two samples is identical.
func TestClosedLoopMatchesOpenLoopUncongested(t *testing.T) {
	shape := topo.Shape{X: 4, Y: 4, Z: 4}
	pat := synth.Uniform()
	var seed uint64 = 7

	// runPoint scales its per-node budget by the load (2x here), so the
	// open-loop reference runs the scaled counts directly.
	closed := NewHarness(shape, route.Random(), 1, 1<<20, 0). // no queue ever fills
									runPoint(pat, 2, 24, 8, seed)
	open := synth.NewHarness(shape, route.Random(), 1).Measure(pat, 2, 48, 16, seed)

	if closed != open {
		t.Fatalf("closed loop with unbounded queues diverged from open loop:\n  closed %+v\n  open   %+v",
			closed, open)
	}
	if closed.Undelivered != 0 || closed.Accepted != closed.Offered {
		t.Fatalf("uncongested point %+v refused or lost packets", closed)
	}
}

// TestHarnessReuseMatchesFresh checks the machine-reuse path: points run
// on one long-lived harness must equal one-shot runs on private machines,
// including when seeds and loads change between points.
func TestHarnessReuseMatchesFresh(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	pol := route.Random()
	h := NewHarness(shape, pol, 1, 0, 0)
	cells := []struct {
		load float64
		seed uint64
	}{{1, 5}, {4, 6}, {1, 5}, {2, 9}}
	for _, cell := range cells {
		reused := h.RunPoint(synth.Uniform(), cell.load, 10, 3, cell.seed)
		fresh := NewHarness(shape, pol, 1, 0, 0).RunPoint(synth.Uniform(), cell.load, 10, 3, cell.seed)
		if reused != fresh {
			t.Fatalf("load %.1f seed %d: reused harness %+v, fresh machine %+v",
				cell.load, cell.seed, reused, fresh)
		}
	}
}

// TestKneeSearch checks the bisection: on a pattern/policy pair with a
// clear saturation point the knee lands inside the bracketing sweep loads,
// the bracket endpoints disagree about saturation, and the result is
// reproducible.
func TestKneeSearch(t *testing.T) {
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	loads := []float64{0.5, 1, 2, 4}
	// The offered span must cover several queue-fill times for saturation
	// to register, which sets the per-node packet budget's floor.
	packets, warmup := 96, 32
	spec := Spec{Spec: synth.Spec{Shape: shape, Policies: []route.Policy{route.XYZ()}, Pattern: synth.BitComplement(),
		Loads: loads, Packets: packets, Warmup: warmup, Seed: 21, Shards: 1}}
	c := Sweep(spec).Curves[0]
	if c.KneeLB {
		t.Fatalf("bitcomp/xyz reported knee lower bound %.3f; expected a located knee", c.Knee)
	}
	var lo, hi float64
	for _, pt := range c.Points {
		if Saturated(pt) {
			hi = pt.Load
			break
		}
		lo = pt.Load
	}
	if hi == 0 {
		t.Fatalf("sweep found no saturated point: %+v", c.Points)
	}
	if c.Knee <= lo || c.Knee >= hi {
		t.Fatalf("knee %.3f outside bracket (%.3f, %.3f)", c.Knee, lo, hi)
	}
	if testing.Short() {
		return
	}
	if again := Sweep(spec).Curves[0]; again.Knee != c.Knee {
		t.Fatalf("knee not reproducible: %.6f vs %.6f", again.Knee, c.Knee)
	}
}

// TestRenderStable pins the report shape: a header, one row per load, a
// knee footer.
func TestRenderStable(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	r := Sweep(Spec{Spec: synth.Spec{Shape: shape, Policies: route.SaturatePolicies()[:2], Pattern: synth.Uniform(),
		Loads: []float64{0.5, 2}, Packets: 6, Warmup: 2, Seed: 3, Shards: 1}})
	text := r.Render()
	for _, want := range []string{"Saturate: pattern uniform", "offered", "random acc", "xyz acc", "saturation knee:"} {
		if !contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
