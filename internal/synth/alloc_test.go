package synth

import (
	"testing"

	"anton3/internal/machine"
	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/testutil"
	"anton3/internal/topo"
)

// latSink is the minimal measurement endpoint for the inner-loop gate: a
// pre-sized latency buffer fed by Deliver, like a harness sink.
type latSink struct {
	m    *machine.Machine
	lats []float64
}

func (s *latSink) Deliver(p *packet.Packet) {
	s.lats = append(s.lats, (s.m.K.Now() - p.Injected).Nanoseconds())
}

// TestSynthInnerLoopAllocFree pins the harness's steady-state inner loop —
// pooled packet out of the machine, route draw, Send, walk, delivery into
// the pre-sized latency buffer — at zero heap allocations. This is the loop a
// netsweep cell runs nodes x (warmup+packets) times.
func TestSynthInnerLoopAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	mcfg := machine.DefaultConfig(shape)
	mcfg.Compress = serdes.CompressConfig{}
	mcfg.Policy = route.Random()
	m := machine.New(mcfg)
	sk := &latSink{m: m, lats: make([]float64, 0, 1<<16)}
	src, dst := topo.Coord{}, topo.Coord{X: 2, Y: 3, Z: 6}
	srcID, dstID := m.GC(src, 0).ID, m.GC(dst, 0).ID
	var atom uint32
	inner := func() {
		p := m.NewPacket()
		p.Type = packet.Position
		p.SrcNode, p.DstNode = src, dst
		p.SrcCore, p.DstCore = srcID, dstID
		p.AtomID = atom
		p.Order, _ = m.DrawRoute()
		p.Tie = atom&2 != 0
		p.SetQuad([4]uint32{atom, 0xfeed, 0xbeef, 0xcafe})
		m.Send(p, sk)
		atom++
		m.K.Run()
	}
	for i := 0; i < 32; i++ {
		inner()
	}
	if n := testing.AllocsPerRun(200, inner); n != 0 {
		t.Fatalf("synth inner loop allocates %.1f times/op, want 0", n)
	}
}

// TestNetsweepPointAllocFree pins a whole steady-state sweep point — reset
// the reused machine, draw the Poisson schedule, pre-route, run to drain,
// reduce the statistics — at zero heap allocations once the harness's
// buffers have grown to the point's size. This is the per-(shape, policy)
// loop anton3 netsweep runs per offered load.
func TestNetsweepPointAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	h := NewHarness(topo.Shape{X: 4, Y: 4, Z: 8}, route.Random(), 1)
	pat := Uniform()
	point := func() {
		h.RunPoint(pat, 2, 16, 4, 7)
	}
	for i := 0; i < 3; i++ {
		point()
	}
	if n := testing.AllocsPerRun(5, point); n != 0 {
		t.Fatalf("netsweep point allocates %.1f times/op in steady state, want 0", n)
	}
}

// BenchmarkNetsweep times one netsweep cell (128 nodes, uniform traffic,
// random policy, load 2) in sweep steady state: Poisson schedule,
// pre-routed injection, timed run, drain, statistics — on the reused
// machine a sweep holds per (shape, policy), exactly as anton3 netsweep
// runs one offered-load point.
func BenchmarkNetsweep(b *testing.B) {
	h := NewHarness(topo.Shape{X: 4, Y: 4, Z: 8}, route.Random(), 1)
	pat := Uniform()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.RunPoint(pat, 2, 16, 4, 7)
	}
}
