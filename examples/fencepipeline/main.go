// Fencepipeline demonstrates the Section II-C dataflow primitives directly:
// counted writes carry data, blocking reads consume it as it arrives, and a
// hop-limited GC-to-GC network fence closes the phase — the same
// fence-then-unload pattern the PPIM pipeline uses every time step.
package main

import (
	"fmt"

	"anton3/internal/machine"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

func main() {
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	m := machine.New(machine.DefaultConfig(shape))
	const accAddr = 100

	// Step 1: every node's GC 0 sends an accumulating counted write to
	// GC 1 of each 1-hop neighbor (stand-ins for stream-set forces being
	// summed into a remote quad). In a 2x2x2 torus each node has 3
	// distinct neighbors, each reachable by two physical channels.
	start := m.K.Now()
	for i := 0; i < shape.Nodes(); i++ {
		src := m.GC(shape.CoordOf(i), 0)
		for j := 0; j < shape.Nodes(); j++ {
			if shape.HopDist(shape.CoordOf(i), shape.CoordOf(j)) != 1 {
				continue
			}
			dst := m.GC(shape.CoordOf(j), 1)
			src.CountedAccum(dst, accAddr, [4]uint32{1, uint32(i), 0, 0})
		}
	}

	// Step 2: receivers use blocking reads with a known threshold where
	// the count is predictable (each node expects 3 neighbor writes)...
	for j := 0; j < shape.Nodes(); j++ {
		node := shape.CoordOf(j)
		gc := m.GC(node, 1)
		gc.BlockingRead(accAddr, 3, func(q [4]uint32) {
			fmt.Printf("node %v: accumulated %d writes at %7.1f ns (sum=%d)\n",
				node, q[0], m.K.Now().Nanoseconds(), q[1])
		})
	}

	// Step 3: ...and a 1-hop GC-to-GC network fence closes the phase for
	// flows where the packet count is NOT predictable — once the fence
	// completes at a node, everything its neighbors sent before their
	// fences has landed (and, per Section V-E, all remote SRAM writes are
	// complete: the barrier is also a memory fence).
	var barrierDone sim.Time
	id := m.StartFence(1, func(n *machine.Node, at sim.Time) {
		if at > barrierDone {
			barrierDone = at
		}
	})
	m.Run()
	m.FinishFence(id)
	fmt.Printf("1-hop fence closed the phase at %.1f ns after issue\n",
		(barrierDone - start).Nanoseconds())
}
