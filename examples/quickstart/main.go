// Quickstart: build a small Anton 3 machine, measure a counted-write
// ping-pong and a network fence barrier — the two latency primitives the
// paper's evaluation leads with.
package main

import (
	"fmt"

	"anton3/internal/machine"
	"anton3/internal/topo"
)

func main() {
	// The 2x2x2 torus; production defaults (2.8 GHz clock, calibrated
	// latencies, compression on).
	shape := topo.Shape{X: 2, Y: 2, Z: 2}
	m := machine.New(machine.DefaultConfig(shape))

	// A counted write of 16 bytes bounces between GCs on opposite corners
	// of the torus; blocking reads provide the synchronization.
	a := m.GC(shape.CoordOf(0), 0)
	b := m.GC(shape.CoordOf(7), 0)
	pp := m.PingPong(a, b, 16)
	fmt.Printf("ping-pong: %d hop(s), one-way end-to-end latency %.1f ns\n",
		pp.Hops, pp.OneWay.Nanoseconds())

	// A GC-to-GC network fence at the machine diameter is a global
	// barrier that also acts as a memory fence (Section V-E).
	bar := m.Barrier(shape.Diameter())
	fmt.Printf("global barrier (%d hops): %.1f ns\n", bar.Hops, bar.Latency.Nanoseconds())

	// On the 128-node machine of the paper the same calls reproduce
	// Figure 5 and Figure 11; see cmd/anton3.
}
