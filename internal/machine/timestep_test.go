package machine

import (
	"testing"

	"anton3/internal/md"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/testutil"
	"anton3/internal/topo"
	"anton3/internal/trace"
)

// sz picks the full-size or -short variant of a test parameter.
var sz = testutil.Size

func engineFor(t *testing.T, atoms int, comp serdes.CompressConfig) *Engine {
	t.Helper()
	cfg := DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
	cfg.Compress = comp
	m := New(cfg)
	sys := md.NewWater(atoms, 300, sim.NewRand(21))
	return NewEngine(m, sys, DefaultTimestepConfig())
}

func TestTimestepCompletes(t *testing.T) {
	e := engineFor(t, 4000, serdes.CompressConfig{})
	r := e.RunStep()
	if r.Duration <= 0 {
		t.Fatal("no step duration")
	}
	if r.PPIMBusyMax <= 0 || r.PPIMBusyMax > 1 {
		t.Fatalf("PPIM utilization = %v", r.PPIMBusyMax)
	}
}

func TestCompressionSpeedsUpStep(t *testing.T) {
	// Figure 9b: enabling compression speeds up the step (1.18-1.62x for
	// the paper's sizes). Direction and rough magnitude must hold.
	atoms := sz(8000, 6000)
	off := engineFor(t, atoms, serdes.CompressConfig{})
	on := engineFor(t, atoms, serdes.CompressConfig{INZ: true, Pcache: true})
	var tOff, tOn sim.Time
	for i := 0; i < sz(3, 2); i++ { // warm the caches, keep the last step
		tOff = off.RunStep().Duration
		tOn = on.RunStep().Duration
	}
	speedup := float64(tOff) / float64(tOn)
	if speedup < 1.1 || speedup > 2.0 {
		t.Fatalf("compression speedup = %.2f, want within ~1.18-1.62 band", speedup)
	}
}

func TestStepTimeScalesWithAtoms(t *testing.T) {
	small := engineFor(t, sz(4000, 3000), serdes.CompressConfig{})
	large := engineFor(t, sz(16000, 9000), serdes.CompressConfig{})
	ts := small.RunStep().Duration
	tl := large.RunStep().Duration
	if tl <= ts {
		t.Fatalf("4x atoms not slower: %v vs %v", ts, tl)
	}
}

func TestFig12Shape32751(t *testing.T) {
	if testing.Short() {
		t.Skip("full 32751-atom step in -short mode")
	}
	// Figure 12: the paper's 32,751-atom water system on 8 nodes takes
	// ~2000 ns per step uncompressed and ~900 ns compressed. Check the
	// shape: uncompressed/compressed ratio ~2.2x, absolute values within
	// a factor ~1.35.
	off := engineFor(t, 32751, serdes.CompressConfig{})
	on := engineFor(t, 32751, serdes.CompressConfig{INZ: true, Pcache: true})
	var tOff, tOn sim.Time
	for i := 0; i < 2; i++ {
		tOff = off.RunStep().Duration
		tOn = on.RunStep().Duration
	}
	offNs, onNs := tOff.Nanoseconds(), tOn.Nanoseconds()
	if offNs < 1480 || offNs > 2700 {
		t.Errorf("uncompressed step = %.0f ns, want ~2000", offNs)
	}
	if onNs < 670 || onNs > 1220 {
		t.Errorf("compressed step = %.0f ns, want ~900", onNs)
	}
	ratio := offNs / onNs
	if ratio < 1.6 || ratio > 2.9 {
		t.Errorf("step ratio = %.2f, want ~2.2", ratio)
	}
}

func TestActivityTraceRecorded(t *testing.T) {
	e := engineFor(t, 4000, serdes.CompressConfig{INZ: true, Pcache: true})
	rec := trace.NewRecorder()
	e.AttachChannelTrace(rec)
	e.RunStep()
	tracks := rec.Tracks()
	want := map[string]bool{"chan-pos": false, "chan-frc": false, "ppim": false, "gc-integ": false}
	for _, tr := range tracks {
		if _, ok := want[tr]; ok {
			want[tr] = true
		}
	}
	for tr, seen := range want {
		if !seen {
			t.Fatalf("track %q missing from activity trace (have %v)", tr, tracks)
		}
	}
	if out := rec.Render(20); len(out) < 100 {
		t.Fatalf("render too small:\n%s", out)
	}
}

func TestEngineChannelCachesStaySynced(t *testing.T) {
	e := engineFor(t, sz(4000, 3000), serdes.CompressConfig{INZ: true, Pcache: true})
	for i := 0; i < sz(3, 2); i++ {
		e.RunStep()
	}
	if err := e.m.CheckChannelSync(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() sim.Time {
		e := engineFor(t, sz(3000, 2000), serdes.CompressConfig{INZ: true})
		e.RunStep()
		return e.RunStep().Duration
	}
	if run() != run() {
		t.Fatal("engine not deterministic")
	}
}

// TestRunStepEventsGolden pins the kernel's work for two 2000-atom MD
// steps with compression off and on: the events fired after the first
// step and after the second. Output can stay bit-identical while a change
// adds or drops events (a spare keep-alive, a merged stream firing); this
// count moves with either.
func TestRunStepEventsGolden(t *testing.T) {
	for _, comp := range []serdes.CompressConfig{{}, {INZ: true, Pcache: true}} {
		e := engineFor(t, 2000, comp)
		for step, want := range []uint64{104468, 208740} {
			e.RunStep()
			if got := e.m.ShardKernel(0).EventsFired(); got != want {
				t.Errorf("compression %+v: %d events after step %d, want %d", comp, got, step+1, want)
			}
		}
	}
}
