package machine

import (
	"testing"

	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// TestVCQUncongestedMatchesLegacy pins the credit layer's timing
// equivalence: with queues deep enough that no packet ever waits, per-VC
// flow control must add zero delay to any path — here the counted-write
// round trips of the ping-pong engine, which cross the torus both ways.
// The measurement must equal the legacy (infinite buffer) machine exactly.
func TestVCQUncongestedMatchesLegacy(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	legacy := New(DefaultConfig(shape))
	a, b := legacy.GC(topo.Coord{}, 0), legacy.GC(topo.Coord{X: 1, Y: 1, Z: 3}, 1)
	want := legacy.PingPong(a, b, 8)

	cfg := DefaultConfig(shape)
	cfg.VCQueueFlits = 1 << 20
	m := New(cfg)
	got := m.PingPong(m.GC(topo.Coord{}, 0), m.GC(topo.Coord{X: 1, Y: 1, Z: 3}, 1), 8)
	if got != want {
		t.Fatalf("ping-pong under unbounded per-VC queues = %+v, legacy machine %+v", got, want)
	}
}

// vcqDrainSink counts deliveries.
type vcqDrainSink struct{ n int }

func (s *vcqDrainSink) Deliver(*packet.Packet) { s.n++ }

// TestVCQCreditConservation checks the flow-control invariant: after a
// run drains, every credit the traffic consumed has returned — all
// counters back at full depth, no flits queued, nothing parked. A leak
// anywhere in the accept/park/unpark/eject paths would show up here as a
// drifted counter.
func TestVCQCreditConservation(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	cfg := DefaultConfig(shape)
	cfg.VCQueueFlits = 8 // shallow: force parking, escape hops and unparks
	m := New(cfg)
	nodes := shape.Nodes()
	core := m.GC(shape.CoordOf(0), 0).ID
	sink := &vcqDrainSink{}
	perNode := 64
	injs := make([]fenceMixInj, nodes*perNode)
	for i := 0; i < nodes; i++ {
		for k := 0; k < perNode; k++ {
			flat := i*perNode + k
			p := &packet.Packet{
				Type:    packet.Position,
				SrcNode: shape.CoordOf(i), DstNode: shape.CoordOf((i + nodes/2 + k) % nodes),
				SrcCore: core, DstCore: core,
				AtomID: uint32(flat),
				Inj:    uint64(flat),
			}
			if p.SrcNode != p.DstNode {
				p.Order, p.Tie = m.DrawRoute()
			}
			injs[flat] = fenceMixInj{m: m, p: p, done: sink}
			// 3 ps apart: saturating, so queues fill and heads park.
			m.NodeKernel(p.SrcNode).AtActor(sim.Time(100+3*flat), &injs[flat])
		}
	}
	m.Run()
	if sink.n != nodes*perNode {
		t.Fatalf("delivered %d of %d packets", sink.n, nodes*perNode)
	}
	for _, n := range m.Nodes() {
		for _, cs := range n.ChannelSpecs() {
			for vc := 0; vc < route.NumRequestVCs; vc++ {
				if c := n.OutCredits(cs, vc); c != cfg.VCQueueFlits {
					t.Errorf("node %v %v vc %d: credits %d after drain, want %d",
						n.Coord, cs, vc, c, cfg.VCQueueFlits)
				}
				if o := n.IngressOccupancy(cs, vc); o != 0 {
					t.Errorf("node %v %v vc %d: %d flits still queued", n.Coord, cs, vc, o)
				}
				if pk := n.ParkedFlits(cs, vc); pk != 0 {
					t.Errorf("node %v %v vc %d: %d flits still parked", n.Coord, cs, vc, pk)
				}
			}
		}
	}
}

// TestVCQConfigValidation: a queue that cannot hold a max-size packet is
// a configuration bug and must refuse to build.
func TestVCQConfigValidation(t *testing.T) {
	cfg := DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
	cfg.VCQueueFlits = 1
	defer func() {
		if recover() == nil {
			t.Fatal("VCQueueFlits=1 (below the max packet size) did not panic")
		}
	}()
	New(cfg)
}
