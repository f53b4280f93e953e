package machine

import (
	"testing"

	"anton3/internal/packet"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// fenceMixInj injects one pre-routed Position packet when its setup event
// fires (closure-free, like the synth harness's injectors).
type fenceMixInj struct {
	m    *Machine
	p    *packet.Packet
	done packet.Deliverer
}

func (i *fenceMixInj) Act() { i.m.Send(i.p, i.done) }

// fenceMixSink records delivery times by atom ID on the destination shard.
type fenceMixSink struct {
	m     *Machine
	times []sim.Time // indexed by AtomID; each written exactly once
}

func (s *fenceMixSink) Deliver(p *packet.Packet) {
	s.times[p.AtomID] = s.m.NodeKernel(p.DstNode).Now()
}

// runFenceMix runs a barrier wavefront concurrently with measured
// pre-routed traffic on a machine with the given shard count and returns
// every packet's delivery time plus every node's fence completion time.
func runFenceMix(t *testing.T, shape topo.Shape, shards, perNode int) ([]sim.Time, []sim.Time) {
	t.Helper()
	cfg := DefaultConfig(shape)
	cfg.Shards = shards
	m := New(cfg)
	nodes := shape.Nodes()
	core := m.GC(shape.CoordOf(0), 0).ID

	sink := &fenceMixSink{m: m, times: make([]sim.Time, nodes*perNode)}
	injs := make([]fenceMixInj, nodes*perNode)
	for i := 0; i < nodes; i++ {
		for k := 0; k < perNode; k++ {
			flat := i*perNode + k
			src := shape.CoordOf(i)
			// Deterministic all-to-mid pattern with distinct injection
			// instants: firing order equals flat order, so the routing
			// pre-draw below replays the sequential rng stream.
			dst := shape.CoordOf((i + nodes/2 + k) % nodes)
			p := &packet.Packet{
				Type:    packet.Position,
				SrcNode: src, DstNode: dst,
				SrcCore: core, DstCore: core,
				AtomID: uint32(flat),
				Inj:    uint64(flat),
			}
			p.SetQuad([4]uint32{uint32(flat), 1, 2, 3})
			injs[flat] = fenceMixInj{m: m, p: p, done: sink}
		}
	}
	// Pre-draw routing decisions in firing (= flat) order; same-node
	// packets take Send's on-chip shortcut and need no route.
	for flat := range injs {
		p := injs[flat].p
		if p.SrcNode != p.DstNode {
			p.Order, p.Tie = m.DrawRoute()
		}
	}
	for flat := range injs {
		m.NodeKernel(injs[flat].p.SrcNode).AtActor(sim.Time(1000+7*(flat+1)), &injs[flat])
	}

	// The barrier starts mid-traffic; its relays share channels with the
	// measured packets, so serialization order between the two is exactly
	// what fence lineage must pin.
	fenceDone := make([]sim.Time, nodes)
	id := m.StartFence(2, func(n *Node, at sim.Time) {
		fenceDone[m.Shape().Index(n.Coord)] = at
	})
	m.Run()
	m.FinishFence(id)

	for flat, at := range sink.times {
		if at == 0 {
			t.Fatalf("shards %d: packet %d never delivered", shards, flat)
		}
	}
	return sink.times, fenceDone
}

// TestFenceWithTrafficShardInvariant closes the ROADMAP caveat about
// mixing fences with measured traffic under shards: fence packets carry
// content-based lineage, so a barrier running concurrently with pre-routed
// traffic yields byte-identical delivery times AND fence completion times
// at every shard count.
func TestFenceWithTrafficShardInvariant(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	perNode := 96
	shardCounts := []int{2, 3, 4}
	if testing.Short() {
		shardCounts = shardCounts[:1]
	}
	refPkts, refFence := runFenceMix(t, shape, 1, perNode)
	for _, shards := range shardCounts {
		pkts, fenceAt := runFenceMix(t, shape, shards, perNode)
		for flat := range refPkts {
			if pkts[flat] != refPkts[flat] {
				t.Fatalf("shards %d: packet %d delivered at %v, want %v",
					shards, flat, pkts[flat], refPkts[flat])
			}
		}
		for n := range refFence {
			if fenceAt[n] != refFence[n] {
				t.Fatalf("shards %d: node %d fence completed at %v, want %v",
					shards, n, fenceAt[n], refFence[n])
			}
		}
	}
}
