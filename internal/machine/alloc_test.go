package machine

import (
	"testing"

	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/testutil"
	"anton3/internal/topo"
)

// The allocation regression tests pin the tentpole property of the packet
// pipeline rewrite: once the pools (packet free list, kernel event pool)
// have warmed, a steady-state Send — inject, hop across channels, eject,
// apply, deliver — performs zero heap allocations, under oblivious and
// adaptive routing. CI runs these as its allocation gate (without -race;
// the detector's instrumentation allocates).

// allocMachine is a 128-node machine with compression off — the netsweep
// hot-path configuration.
func allocMachine() *Machine {
	cfg := DefaultConfig(topo.Shape{X: 4, Y: 4, Z: 8})
	cfg.Compress = serdes.CompressConfig{}
	return New(cfg)
}

func TestSendRequestSteadyStateAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	m := allocMachine()
	src, dst := topo.Coord{}, topo.Coord{X: 2, Y: 1, Z: 3}
	srcID, dstID := m.GC(src, 0).ID, m.GC(dst, 7).ID
	var atom uint32
	send := func() {
		p := m.NewPacket()
		p.Type = packet.Position
		p.SrcNode, p.DstNode = src, dst
		p.SrcCore, p.DstCore = srcID, dstID
		p.AtomID = atom
		p.Order, _ = m.DrawRoute()
		p.Tie = p.AtomID&2 != 0
		atom++
		p.SetQuad([4]uint32{atom, 2, 3, 4})
		m.Send(p, nil)
		m.K.Run()
	}
	for i := 0; i < 32; i++ {
		send() // warm the pools across both slices and several dim orders
	}
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Fatalf("steady-state request Send allocates %.1f times/op, want 0", n)
	}
}

func TestSendAdaptivePolicyAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	// The adaptive policy reads the per-node load views; they must not cost
	// a closure per decision.
	cfg := DefaultConfig(topo.Shape{X: 4, Y: 4, Z: 8})
	cfg.Compress = serdes.CompressConfig{}
	cfg.Policy = route.MinimalAdaptive()
	m := New(cfg)
	src, dst := topo.Coord{}, topo.Coord{X: 2, Y: 1, Z: 3}
	srcID, dstID := m.GC(src, 0).ID, m.GC(dst, 0).ID
	var atom uint32
	send := func() {
		p := m.NewPacket()
		p.Type = packet.Position
		p.SrcNode, p.DstNode = src, dst
		p.SrcCore, p.DstCore = srcID, dstID
		p.AtomID = atom
		p.Order, _ = m.DrawRoute()
		p.Tie = p.AtomID&2 != 0
		atom++
		m.Send(p, nil)
		m.K.Run()
	}
	for i := 0; i < 32; i++ {
		send()
	}
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Fatalf("steady-state adaptive Send allocates %.1f times/op, want 0", n)
	}
}

// BenchmarkSendHotPath times one steady-state request delivery (route
// draw, inject, ~3 hops, eject, apply) end to end, kernel included. Run
// with -benchmem: allocs/op is the pinned quantity.
func BenchmarkSendHotPath(b *testing.B) {
	m := allocMachine()
	src, dst := topo.Coord{}, topo.Coord{X: 2, Y: 1, Z: 3}
	srcID, dstID := m.GC(src, 0).ID, m.GC(dst, 7).ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.NewPacket()
		p.Type = packet.Position
		p.SrcNode, p.DstNode = src, dst
		p.SrcCore, p.DstCore = srcID, dstID
		p.AtomID = uint32(i)
		p.Order, _ = m.DrawRoute()
		p.Tie = p.AtomID&2 != 0
		p.SetQuad([4]uint32{uint32(i), 2, 3, 4})
		m.Send(p, nil)
		m.K.Run()
	}
}
