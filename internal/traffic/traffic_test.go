package traffic

import (
	"testing"

	"anton3/internal/md"
	"anton3/internal/pcache"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/testutil"
	"anton3/internal/topo"
)

var shape8 = topo.Shape{X: 2, Y: 2, Z: 2}

// sz picks the full-size or -short variant of a test parameter.
var sz = testutil.Size

// run replays steps of a shared trajectory through a fresh replayer with
// the given compression config, measuring after warmup.
func run(t *testing.T, n, warm, measure int, cfg serdes.CompressConfig) serdes.Stats {
	t.Helper()
	s := md.NewWater(n, 300, sim.NewRand(11))
	r := NewReplayer(shape8, s.Box, cfg)
	for i := 0; i < warm; i++ {
		r.ReplayStep(s)
		s.Step()
	}
	before := r.Stats()
	for i := 0; i < measure; i++ {
		r.ReplayStep(s)
		s.Step()
	}
	if !r.InSync() {
		t.Fatal("channel caches desynchronized")
	}
	return Delta(r.Stats(), before)
}

func TestBaselineNoReduction(t *testing.T) {
	st := run(t, 3000, 1, 2, serdes.CompressConfig{})
	if st.Reduction() != 0 {
		t.Fatalf("baseline reduction = %v", st.Reduction())
	}
	if st.Packets == 0 {
		t.Fatal("no traffic generated")
	}
}

func TestINZAloneInPaperBand(t *testing.T) {
	// Figure 9a: INZ alone reduces off-chip traffic by 32-40%.
	st := run(t, sz(8000, 5000), 1, sz(3, 2), serdes.CompressConfig{INZ: true})
	red := st.Reduction()
	if red < 0.28 || red > 0.44 {
		t.Fatalf("INZ-only reduction = %.2f, want within ~32-40%% band", red)
	}
}

func TestINZPlusPcacheBeatsINZ(t *testing.T) {
	n, measure := sz(8000, 5000), sz(3, 2)
	inz := run(t, n, 2, measure, serdes.CompressConfig{INZ: true})
	both := run(t, n, 2, measure, serdes.CompressConfig{INZ: true, Pcache: true})
	if both.Reduction() <= inz.Reduction()+0.05 {
		t.Fatalf("pcache adds too little: inz=%.2f both=%.2f",
			inz.Reduction(), both.Reduction())
	}
	// Paper band at low atom counts: 45-62% total.
	if both.Reduction() < 0.40 || both.Reduction() > 0.68 {
		t.Fatalf("inz+pcache reduction = %.2f outside plausible band", both.Reduction())
	}
}

func TestPcacheBenefitShrinksWithAtomCount(t *testing.T) {
	// "The traffic reduction due to the particle cache decreases with
	// larger atom counts because more atoms per node result in a higher
	// cache miss rate." A channel's working set grows as N^(2/3) (it is a
	// boundary slab), so test-sized systems exercise the effect with a
	// proportionally smaller cache; the full-size experiment in
	// EXPERIMENTS.md uses the hardware 1024 entries with the paper's atom
	// counts.
	pc := pcache.Config{Entries: 256, Ways: 4, EvictThreshold: 2}
	small := run(t, sz(4000, 3000), 2, 2, serdes.CompressConfig{INZ: true, Pcache: true, PcacheConfig: pc})
	large := run(t, sz(24000, 16000), 2, 2, serdes.CompressConfig{INZ: true, Pcache: true, PcacheConfig: pc})
	if large.Reduction() >= small.Reduction()-0.02 {
		t.Fatalf("reduction should shrink with size: small=%.2f large=%.2f",
			small.Reduction(), large.Reduction())
	}
}

func TestHitRateDropsWithAtomCount(t *testing.T) {
	steps := sz(4, 3)
	s := md.NewWater(sz(8000, 6000), 300, sim.NewRand(3))
	r := NewReplayer(shape8, s.Box, serdes.CompressConfig{INZ: true, Pcache: true})
	for i := 0; i < steps; i++ {
		r.ReplayStep(s)
		s.Step()
	}
	hrSmall := r.CacheStats().HitRate()

	s2 := md.NewWater(sz(48000, 32000), 300, sim.NewRand(3))
	r2 := NewReplayer(shape8, s2.Box, serdes.CompressConfig{INZ: true, Pcache: true})
	for i := 0; i < steps; i++ {
		r2.ReplayStep(s2)
		s2.Step()
	}
	hrLarge := r2.CacheStats().HitRate()
	if hrSmall < 0.5 {
		t.Fatalf("small-system hit rate = %.2f, want high", hrSmall)
	}
	if hrLarge >= hrSmall {
		t.Fatalf("hit rate should drop with atom count: %.2f -> %.2f", hrSmall, hrLarge)
	}
}

func TestChannelsMatchTopology(t *testing.T) {
	s := md.NewWater(3000, 300, sim.NewRand(5))
	r := NewReplayer(shape8, s.Box, serdes.CompressConfig{})
	r.ReplayStep(s)
	// 8 nodes x 6 directions x 2 slices = 96 channel slices at most; a
	// 2x2x2 machine uses all directions.
	if r.Channels() != 96 {
		t.Fatalf("channels = %d, want 96", r.Channels())
	}
}

func TestPositionAndForceBitsBothPresent(t *testing.T) {
	st := run(t, 3000, 0, 2, serdes.CompressConfig{})
	if st.PositionBits == 0 || st.ForceBits == 0 {
		t.Fatalf("missing traffic class: pos=%d force=%d", st.PositionBits, st.ForceBits)
	}
	// Force returns outnumber position exports (point-to-point vs tree),
	// consistent with the machine activity plots showing both directions
	// busy.
	if st.ForceBits < st.PositionBits/2 {
		t.Fatalf("force bits %d implausibly small vs position bits %d",
			st.ForceBits, st.PositionBits)
	}
}

func TestDeltaArithmetic(t *testing.T) {
	a := serdes.Stats{Packets: 10, WireBits: 100, BaselineBits: 200}
	b := serdes.Stats{Packets: 4, WireBits: 40, BaselineBits: 80}
	d := Delta(a, b)
	if d.Packets != 6 || d.WireBits != 60 || d.BaselineBits != 120 {
		t.Fatalf("delta = %+v", d)
	}
}
