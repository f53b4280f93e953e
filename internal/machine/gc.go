package machine

import (
	"anton3/internal/mem"
	"anton3/internal/packet"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// GC is a handle to one Geometry Core: the endpoint API that MD software
// (and the measurement harnesses) program against — counted remote writes,
// blocking reads, and fences.
type GC struct {
	m    *Machine
	Node *Node
	ID   packet.CoreID
}

// GC returns the handle for GC coreIdx (0..575 on a production chip) of the
// node at c.
func (m *Machine) GC(c topo.Coord, coreIdx int) *GC {
	return &GC{m: m, Node: m.Node(c), ID: m.Geom.CoreIDByIndex(coreIdx)}
}

// GCAt returns the handle for an explicit CoreID.
func (m *Machine) GCAt(c topo.Coord, id packet.CoreID) *GC {
	return &GC{m: m, Node: m.Node(c), ID: id}
}

// SRAM exposes this GC's memory block.
func (g *GC) SRAM() *mem.SRAM { return g.Node.sram(g.ID) }

// CountedWrite sends a counted remote write of quad to dst's SRAM at addr.
func (g *GC) CountedWrite(dst *GC, addr uint32, quad [4]uint32) {
	g.send(packet.CountedWrite, dst, addr, quad)
}

// CountedAccum sends an accumulating counted write (force summation form).
func (g *GC) CountedAccum(dst *GC, addr uint32, quad [4]uint32) {
	g.send(packet.CountedAccum, dst, addr, quad)
}

func (g *GC) send(t packet.Type, dst *GC, addr uint32, quad [4]uint32) {
	g.m.requireSingleShard("GC endpoint ops")
	p := g.m.pool.Get()
	p.Type = t
	p.SrcNode, p.DstNode = g.Node.Coord, dst.Node.Coord
	p.SrcCore, p.DstCore = g.ID, dst.ID
	p.Addr = addr
	p.SetQuad(quad)
	if p.SrcNode != p.DstNode {
		p.Order, p.Tie = g.m.DrawRoute()
	}
	g.m.Send(p, nil)
}

// BlockingRead issues a blocking read of the local quad at addr with the
// given counter threshold. fn runs with the quad contents once the
// threshold is met: immediately (after an ordinary read latency) if already
// satisfied, else when the satisfying counted write lands (plus the
// blocking-read wake latency) — the arrival-to-use path the hardware
// optimizes (Section III-A).
func (g *GC) BlockingRead(addr uint32, threshold uint8, fn func([4]uint32)) {
	g.m.requireSingleShard("GC endpoint ops")
	m := g.m
	readLat := m.Clock.Cycles(m.cfg.Lat.MemWriteCycles)
	wakeLat := m.Geom.WakeLatency()
	satisfiedNow := true
	g.SRAM().BlockingRead(addr, threshold, func(data [4]uint32) {
		if satisfiedNow {
			m.K.AfterActor(readLat, sim.Func(func() { fn(data) }))
		} else {
			m.K.AfterActor(wakeLat, sim.Func(func() { fn(data) }))
		}
	})
	satisfiedNow = false
}

// PingPongResult reports a latency measurement.
type PingPongResult struct {
	Iters  int
	Total  sim.Time
	OneWay sim.Time // Total / (2*Iters)
	Hops   int
}

// PingPong runs the Section III-C latency test between two GCs: a counted
// write of 16 bytes bounces back and forth; one-way end-to-end latency is
// half the average round trip. The kernel is run to completion.
func (m *Machine) PingPong(a, b *GC, iters int) PingPongResult {
	m.requireSingleShard("PingPong")
	if iters <= 0 || iters > 120 {
		panic("machine: ping-pong iters must be in 1..120 (8-bit quad counters)")
	}
	const addrA, addrB = 16, 17
	payload := [4]uint32{0xfeed, 0xbeef, 0xcafe, 0xf00d}
	start := m.K.Now()
	var end sim.Time

	var iter func(i int)
	iter = func(i int) {
		if i == iters {
			end = m.K.Now()
			return
		}
		a.CountedWrite(b, addrB, payload)
		b.BlockingRead(addrB, uint8(i+1), func([4]uint32) {
			b.CountedWrite(a, addrA, payload)
			a.BlockingRead(addrA, uint8(i+1), func([4]uint32) {
				iter(i + 1)
			})
		})
	}
	iter(0)
	m.Run()

	total := end - start
	return PingPongResult{
		Iters:  iters,
		Total:  total,
		OneWay: total / sim.Time(2*iters),
		Hops:   m.cfg.Shape.HopDist(a.Node.Coord, b.Node.Coord),
	}
}
