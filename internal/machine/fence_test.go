package machine

import (
	"math"
	"testing"

	"anton3/internal/md"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

func TestBarrierZeroHopNear51ns(t *testing.T) {
	// Figure 11: the intra-node barrier takes about 51.5 ns.
	m := New(DefaultConfig(shape128))
	r := m.Barrier(0)
	ns := r.Latency.Nanoseconds()
	if ns < 46.4 || ns > 56.7 {
		t.Fatalf("0-hop barrier = %.1f ns, want 51.5 +/- 10%%", ns)
	}
}

func TestGlobalBarrierNear504ns(t *testing.T) {
	// Figure 11: the 8-hop global barrier on the 4x4x8 machine takes
	// about 504 ns.
	m := New(DefaultConfig(shape128))
	r := m.Barrier(m.Shape().Diameter())
	if r.Hops != 8 {
		t.Fatalf("diameter = %d, want 8", r.Hops)
	}
	ns := r.Latency.Nanoseconds()
	if ns < 453 || ns > 555 {
		t.Fatalf("global barrier = %.1f ns, want 504 +/- 10%%", ns)
	}
}

func TestBarrierScalesLinearly(t *testing.T) {
	// Fit hops 1..8 and check slope ~51.8 ns/hop, intercept ~91.2 ns.
	// The relationship is deterministic and linear, so the -short lane
	// samples every other hop without loosening the fit bounds.
	var xs, ys []float64
	for h := 1; h <= 8; h += sz(1, 2) {
		m := New(DefaultConfig(shape128))
		r := m.Barrier(h)
		xs = append(xs, float64(h))
		ys = append(ys, r.Latency.Nanoseconds())
	}
	slope, intercept := linfit(xs, ys)
	if slope < 46.6 || slope > 57 {
		t.Fatalf("barrier slope = %.1f ns/hop, want 51.8 +/- 10%%", slope)
	}
	if intercept < 82 || intercept > 100 {
		t.Fatalf("barrier intercept = %.1f ns, want 91.2 +/- 10%%", intercept)
	}
}

func linfit(xs, ys []float64) (slope, intercept float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	slope = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

func TestFenceSlowerPerHopThanMessage(t *testing.T) {
	// Section V-F: fence per-hop latency exceeds message per-hop latency
	// by ~17.6 ns because fences travel all valid paths at every hop.
	m1 := New(DefaultConfig(shape128))
	b1 := m1.Barrier(1)
	m2 := New(DefaultConfig(shape128))
	b4 := m2.Barrier(4)
	fencePerHop := (b4.Latency - b1.Latency).Nanoseconds() / 3
	if fencePerHop < 46 || fencePerHop > 58 {
		t.Fatalf("fence per-hop = %.1f ns, want ~51.8", fencePerHop)
	}
	extra := fencePerHop - 34.2
	if extra < 12 || extra > 23 {
		t.Fatalf("fence per-hop excess = %.1f ns, want ~17.6", extra)
	}
}

func TestBarrierIsOneWay(t *testing.T) {
	// The network fence is a one-way barrier: traffic sent after the
	// fence may arrive before it. Model check: a counted write issued
	// after StartFence still delivers while the barrier is in flight.
	m := New(DefaultConfig(shape128))
	a := m.GC(topo.Coord{}, 0)
	b := m.GC(topo.Coord{X: 1}, 0)
	var writeAt, barrierAt sim.Time
	id := m.StartFence(8, func(n *Node, at sim.Time) {
		if at > barrierAt {
			barrierAt = at
		}
	})
	b.BlockingRead(5, 1, func([4]uint32) { writeAt = m.K.Now() })
	a.CountedWrite(b, 5, [4]uint32{1})
	m.K.Run()
	m.FinishFence(id)
	if writeAt == 0 || barrierAt == 0 {
		t.Fatal("missing completion")
	}
	if writeAt >= barrierAt {
		t.Fatalf("1-hop write at %v should beat 8-hop barrier at %v", writeAt, barrierAt)
	}
}

func TestFenceFlushesPriorTraffic(t *testing.T) {
	// The core ordering guarantee: packets sent before the fence arrive
	// before the fence completes at their destination's node. Saturate a
	// channel with writes, then fence: barrier completion must come after
	// the last write delivery.
	m := New(DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2}))
	a := m.GC(topo.Coord{}, 0)
	b := m.GC(topo.Coord{X: 1}, 0)
	n := 200
	var lastWrite sim.Time
	b.BlockingRead(9, uint8(n), func([4]uint32) { lastWrite = m.K.Now() })
	for i := 0; i < n; i++ {
		a.CountedWrite(b, 9, [4]uint32{uint32(i), 0, 0, 0})
	}
	var barrier sim.Time
	id := m.StartFence(m.Shape().Diameter(), func(n *Node, at sim.Time) {
		if at > barrier {
			barrier = at
		}
	})
	m.K.Run()
	m.FinishFence(id)
	if lastWrite == 0 {
		t.Fatal("writes not delivered")
	}
	if barrier <= lastWrite {
		t.Fatalf("barrier at %v did not flush writes finishing at %v", barrier, lastWrite)
	}
}

func TestConcurrentFenceLimit(t *testing.T) {
	m := New(DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2}))
	done := func(*Node, sim.Time) {}
	ids := make([]int, 0, maxFences)
	for i := 0; i < maxFences; i++ {
		ids = append(ids, m.StartFence(1, done))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("15th concurrent fence should hit flow control")
			}
		}()
		m.StartFence(1, done)
	}()
	m.K.Run()
	for _, id := range ids {
		m.FinishFence(id)
	}
	if got := m.StartFence(0, done); got < 0 {
		t.Fatal("IDs not recycled")
	}
	m.K.Run()
}

func TestMaxFencesIsFourteen(t *testing.T) {
	if maxFences != 14 {
		t.Fatal("the paper says up to 14 concurrent fences")
	}
}

func TestFenceIDLimit(t *testing.T) {
	// The fence-ID table hands out maxFences distinct IDs, refuses one
	// more (Section V-D), and reissues an ID once its fence finishes.
	m := New(DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2}))
	done := func(*Node, sim.Time) {}
	ids := map[int]bool{}
	for i := 0; i < maxFences; i++ {
		id := m.StartFence(0, done)
		if id < 0 || id >= maxFences || ids[id] {
			t.Fatalf("bad id %d", id)
		}
		ids[id] = true
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("15th fence should be refused")
			}
		}()
		m.StartFence(0, done)
	}()
	m.FinishFence(3)
	if id := m.StartFence(0, done); id != 3 {
		t.Fatalf("ID after finishing 3 = %d, want 3", id)
	}
}

func TestFinishFenceReleaseValidation(t *testing.T) {
	m := New(DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2}))
	defer func() {
		if recover() == nil {
			t.Fatal("finishing a fence ID that is not in use should panic")
		}
	}()
	m.FinishFence(0)
}

func TestBarrierDeterministic(t *testing.T) {
	run := func() sim.Time {
		m := New(DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2}))
		return m.Barrier(3).Latency
	}
	if run() != run() {
		t.Fatal("barrier latency not deterministic")
	}
}

func TestBarrierWithCompressionEnabled(t *testing.T) {
	// Fence packets traverse compressing channels; the barrier must work
	// and the caches stay in sync (fences are header-only and untouched).
	cfg := DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
	cfg.Compress = serdes.CompressConfig{INZ: true, Pcache: true}
	m := New(cfg)
	r := m.Barrier(m.Shape().Diameter())
	if r.Latency <= 0 {
		t.Fatal("no barrier latency")
	}
	if err := m.CheckChannelSync(); err != nil {
		t.Fatal(err)
	}
}

func TestFenceHopsValidation(t *testing.T) {
	m := New(DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2}))
	defer func() {
		if recover() == nil {
			t.Fatal("hops beyond diameter should panic")
		}
	}()
	m.StartFence(99, func(*Node, sim.Time) {})
}

// TestFenceTimingGolden pins fence-driven times bit for bit, where the
// Figure 11 tests above only check +/-10% bands: the barrier latency at
// every hop count of the 4x4x8 machine, and a 1000-atom MD step (whose
// GC-to-ICB fence gates the force unload) open loop with compression off
// and on, and closed loop with 16-flit VC queues. Any change to fence
// merging, relay order or fence lineage that moves a simulated picosecond
// fails here.
func TestFenceTimingGolden(t *testing.T) {
	barrierPs := [...]sim.Time{51408, 143391, 195390, 247389, 299388, 351387, 403386, 455385, 507384}
	for h, want := range barrierPs {
		if got := New(DefaultConfig(shape128)).Barrier(h).Latency; got != want {
			t.Errorf("Barrier(%d) = %d ps, want %d", h, got, want)
		}
	}

	steps := []struct {
		name     string
		comp     serdes.CompressConfig
		vcqFlits int
		want     StepResult
		busyBits uint64
	}{
		{"open, compression off", serdes.CompressConfig{}, 0,
			StepResult{Duration: 403465}, 0x3f9a98a2699b6298},
		{"open, compression on", serdes.CompressConfig{INZ: true, Pcache: true}, 0,
			StepResult{Duration: 363989}, 0x3f9ce300e53ebf6d},
		{"closed loop, 16-flit queues", serdes.CompressConfig{}, 16,
			StepResult{Duration: 3089698, ParkedPositions: 4604, ParkedForces: 5327}, 0x3f7016a0d9c9df22},
	}
	for _, c := range steps {
		cfg := DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
		cfg.Compress = c.comp
		cfg.VCQueueFlits = c.vcqFlits
		e := NewEngine(New(cfg), md.NewWater(1000, 300, sim.NewRand(21)), DefaultTimestepConfig())
		e.RunStep() // warm step
		got := e.RunStep()
		if bits := math.Float64bits(got.PPIMBusyMax); bits != c.busyBits {
			t.Errorf("%s: PPIMBusyMax bits = %#x, want %#x", c.name, bits, c.busyBits)
		}
		got.PPIMBusyMax = 0
		if got != c.want {
			t.Errorf("%s: step = %+v, want %+v", c.name, got, c.want)
		}
	}
}
