// Watersim runs a parallel water MD simulation on an 8-node machine and
// reports per-step wall-clock time with compression off and on, plus the
// wire-traffic statistics behind the speedup — the Figure 9 experiment as a
// library user would run it.
package main

import (
	"fmt"

	"anton3/internal/machine"
	"anton3/internal/md"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/topo"
	"anton3/internal/traffic"
)

func main() {
	const atoms = 16000
	const steps = 3
	shape := topo.Shape{X: 2, Y: 2, Z: 2}

	for _, comp := range []serdes.CompressConfig{
		{},
		{INZ: true},
		{INZ: true, Pcache: true},
	} {
		cfg := machine.DefaultConfig(shape)
		cfg.Compress = comp
		m := machine.New(cfg)
		sys := md.NewWater(atoms, 300, sim.NewRand(42))
		e := machine.NewEngine(m, sys, machine.DefaultTimestepConfig())
		var last float64
		for i := 0; i < steps; i++ {
			last = e.RunStep().Duration.Nanoseconds()
		}
		st := m.TotalWireStats()
		fmt.Printf("%-12s step %6.0f ns   wire %6.2f Mbit   reduction %5.1f%%\n",
			comp.EnabledString(), last, float64(st.WireBits)/1e6, 100*st.Reduction())
		if err := m.CheckChannelSync(); err != nil {
			panic(err)
		}
	}

	// The untimed replayer measures compression alone, at any scale.
	sys := md.NewWater(atoms, 300, sim.NewRand(7))
	r := traffic.NewReplayer(shape, sys.Box, serdes.CompressConfig{INZ: true, Pcache: true})
	for i := 0; i < 4; i++ {
		r.ReplayStep(sys)
		sys.Step()
	}
	fmt.Printf("replayer: %d channels, hit rate %.1f%%, reduction %.1f%%\n",
		r.Channels(), 100*r.CacheStats().HitRate(), 100*r.Stats().Reduction())

	// Validate the decomposition against the golden model while we're at
	// it: forces computed the distributed way must match exactly.
	d := md.NewDecomposition(shape, sys.Box)
	dist := md.DistributedForces(sys, d)
	worst := 0.0
	for i := range dist {
		dd := dist[i].Sub(sys.Force[i])
		if e := dd.Norm2(); e > worst {
			worst = e
		}
	}
	fmt.Printf("distributed-vs-golden force error: %.2e (should be ~1e-20)\n", worst)
}
