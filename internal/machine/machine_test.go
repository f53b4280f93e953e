package machine

import (
	"strings"
	"testing"

	"anton3/internal/chip"
	"anton3/internal/packet"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

var shape128 = topo.Shape{X: 4, Y: 4, Z: 8}

func smallMachine(comp serdes.CompressConfig) *Machine {
	cfg := DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
	cfg.Compress = comp
	return New(cfg)
}

// edgeCore returns a GC adjacent to the left edge on the X- channel row,
// the minimum-latency position of Figure 6.
func edgeCore(m *Machine) packet.CoreID {
	cs := chip.ChannelSpec{Dim: topo.X, Dir: -1, Slice: 0}
	row := m.Geom.EdgeRowFor(cs)
	return packet.CoreID{Tile: topo.MeshCoord{U: 0, V: row}}
}

// TestSendUnroutedPanics pins the routing contract: Send draws no route,
// so an inter-node packet whose caller never drew one — the zero Order,
// which would walk X three times — stops at Send with a message naming
// DrawRoute instead of silently misrouting.
func TestSendUnroutedPanics(t *testing.T) {
	m := smallMachine(serdes.CompressConfig{})
	core := m.GC(topo.Coord{}, 0).ID
	p := m.NewPacket()
	p.Type = packet.CountedWrite
	p.SrcNode, p.DstNode = topo.Coord{}, topo.Coord{X: 1, Y: 1}
	p.SrcCore, p.DstCore = core, core
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "DrawRoute") {
			t.Fatalf("Send of an unrouted packet recovered %q, want a panic naming DrawRoute", msg)
		}
	}()
	m.Send(p, nil)
	m.Run()
}

func TestCountedWriteArrives(t *testing.T) {
	m := smallMachine(serdes.CompressConfig{})
	a := m.GC(topo.Coord{X: 0}, 0)
	b := m.GC(topo.Coord{X: 1}, 5)
	var got [4]uint32
	b.BlockingRead(7, 1, func(q [4]uint32) { got = q })
	a.CountedWrite(b, 7, [4]uint32{1, 2, 3, 4})
	m.K.Run()
	if got != ([4]uint32{1, 2, 3, 4}) {
		t.Fatalf("remote counted write delivered %v", got)
	}
}

func TestCountedAccumSumsRemotely(t *testing.T) {
	m := smallMachine(serdes.CompressConfig{})
	b := m.GC(topo.Coord{X: 1, Y: 1, Z: 1}, 0)
	var got [4]uint32
	b.BlockingRead(3, 3, func(q [4]uint32) { got = q })
	for i := uint32(1); i <= 3; i++ {
		a := m.GC(topo.Coord{X: 0}, int(i))
		a.CountedAccum(b, 3, [4]uint32{i, 0, 10 * i, 0})
	}
	m.K.Run()
	if got != ([4]uint32{6, 0, 60, 0}) {
		t.Fatalf("accumulated %v, want {6,0,60,0}", got)
	}
}

func TestPingPongZeroHopFaster(t *testing.T) {
	m := New(DefaultConfig(shape128))
	a := m.GC(topo.Coord{}, 0)
	bSame := m.GC(topo.Coord{}, 500)
	r0 := m.PingPong(a, bSame, 8)
	m2 := New(DefaultConfig(shape128))
	a2 := m2.GC(topo.Coord{}, 0)
	bFar := m2.GC(topo.Coord{X: 1}, 500)
	r1 := m2.PingPong(a2, bFar, 8)
	if r0.Hops != 0 || r1.Hops != 1 {
		t.Fatalf("hops = %d,%d", r0.Hops, r1.Hops)
	}
	// Paper, Figure 5: the 0-hop case has distinctly lower latency because
	// packets skip the Edge Network and off-chip links.
	if r0.OneWay >= r1.OneWay {
		t.Fatalf("0-hop %v not faster than 1-hop %v", r0.OneWay, r1.OneWay)
	}
}

func TestMinOneHopLatencyNear55ns(t *testing.T) {
	// Figure 6: minimum inter-node end-to-end latency ~55 ns between
	// edge-adjacent cores on neighboring nodes.
	m := New(DefaultConfig(shape128))
	core := edgeCore(m)
	a := m.GCAt(topo.Coord{X: 0}, core)
	b := m.GCAt(topo.Coord{X: 3}, core) // X wraparound: 1 hop on X-
	r := m.PingPong(a, b, 16)
	if r.Hops != 1 {
		t.Fatalf("hops = %d, want 1", r.Hops)
	}
	ns := r.OneWay.Nanoseconds()
	if ns < 49.5 || ns > 60.5 {
		t.Fatalf("min 1-hop one-way = %.1f ns, want 55 +/- 10%%", ns)
	}
}

func TestPerHopLatencyNear34ns(t *testing.T) {
	// Figure 5: ~34.2 ns per additional inter-node hop. Compare long-Z
	// paths that differ only in hop count, same cores.
	m := New(DefaultConfig(shape128))
	core := edgeCore(m)
	lat := func(z int) sim.Time {
		mm := New(DefaultConfig(shape128))
		a := mm.GCAt(topo.Coord{}, core)
		b := mm.GCAt(topo.Coord{Z: z}, core)
		return mm.PingPong(a, b, 16).OneWay
	}
	_ = m
	perHop := (lat(4) - lat(1)).Nanoseconds() / 3
	if perHop < 30.8 || perHop > 37.6 {
		t.Fatalf("per-hop latency = %.1f ns, want 34.2 +/- 10%%", perHop)
	}
}

func TestPingPongDeterministic(t *testing.T) {
	run := func() sim.Time {
		m := New(DefaultConfig(shape128))
		a := m.GC(topo.Coord{}, 3)
		b := m.GC(topo.Coord{X: 2, Y: 1, Z: 3}, 77)
		return m.PingPong(a, b, 10).OneWay
	}
	if run() != run() {
		t.Fatal("identical configs produced different latencies")
	}
}

func TestCompressionTransparentToEndpoints(t *testing.T) {
	// Counted writes must deliver identical data with compression on.
	for _, comp := range []serdes.CompressConfig{
		{}, {INZ: true}, {INZ: true, Pcache: true},
	} {
		m := smallMachine(comp)
		a := m.GC(topo.Coord{}, 0)
		b := m.GC(topo.Coord{X: 1, Y: 1, Z: 1}, 100)
		var got [4]uint32
		b.BlockingRead(9, 1, func(q [4]uint32) { got = q })
		a.CountedWrite(b, 9, [4]uint32{123, ^uint32(455), 789, 0})
		m.K.Run()
		if got != ([4]uint32{123, ^uint32(455), 789, 0}) {
			t.Fatalf("comp %v corrupted data: %v", comp, got)
		}
		if err := m.CheckChannelSync(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTotalWireStatsAccumulate(t *testing.T) {
	m := smallMachine(serdes.CompressConfig{INZ: true})
	a := m.GC(topo.Coord{}, 0)
	b := m.GC(topo.Coord{X: 1}, 0)
	for i := 0; i < 10; i++ {
		a.CountedWrite(b, uint32(i), [4]uint32{1, 2, 3, 4})
	}
	m.K.Run()
	st := m.TotalWireStats()
	if st.Packets != 10 {
		t.Fatalf("packets = %d, want 10", st.Packets)
	}
	if st.Reduction() <= 0 {
		t.Fatal("INZ should reduce small-value counted writes")
	}
}

func TestPingPongItersValidation(t *testing.T) {
	m := smallMachine(serdes.CompressConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("iters > 120 should panic (counter wrap)")
		}
	}()
	m.PingPong(m.GC(topo.Coord{}, 0), m.GC(topo.Coord{X: 1}, 0), 121)
}
