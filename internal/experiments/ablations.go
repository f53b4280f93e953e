package experiments

import (
	"fmt"
	"strings"

	"anton3/internal/fixp"
	"anton3/internal/inz"
	"anton3/internal/machine"
	"anton3/internal/md"
	"anton3/internal/pcache"
	"anton3/internal/route"
	"anton3/internal/serdes"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// The ablation experiments quantify the paper's design choices against
// their obvious alternatives.
// Each returns measured rows plus a rendering; the root benchmark file
// exposes one bench per ablation.

// AblationRow is a generic (label, value) result.
type AblationRow struct {
	Label string
	Value float64
	Unit  string
}

// RenderAblation formats rows.
func RenderAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %10.2f %s\n", r.Label, r.Value, r.Unit)
	}
	return b.String()
}

// AblationPredictorOrder compares particle cache predictor orders by
// achieved traffic reduction (quadratic is the hardware choice).
func AblationPredictorOrder(atoms, warm, measure int) []AblationRow {
	names := []string{"constant predictor", "linear predictor", "quadratic predictor (hw)"}
	var cfgs []serdes.CompressConfig
	for _, pred := range []pcache.Predictor{pcache.PredictConstant, pcache.PredictLinear, pcache.PredictQuadratic} {
		cfgs = append(cfgs, serdes.CompressConfig{INZ: true, Pcache: true,
			PcacheConfig: pcache.Config{Entries: 1024, Ways: 4, EvictThreshold: 2, Predictor: pred}})
	}
	_, st := replayTrajectory(atoms, 55, warm, measure, cfgs)
	var rows []AblationRow
	for i, name := range names {
		rows = append(rows, AblationRow{name, 100 * st[i].Reduction(), "% reduction"})
	}
	return rows
}

// AblationPcacheSize sweeps particle cache capacity.
func AblationPcacheSize(atoms, warm, measure int, sizes []int) []AblationRow {
	var cfgs []serdes.CompressConfig
	for _, entries := range sizes {
		cfgs = append(cfgs, serdes.CompressConfig{INZ: true, Pcache: true,
			PcacheConfig: pcache.Config{Entries: entries, Ways: 4, EvictThreshold: 2}})
	}
	_, st := replayTrajectory(atoms, 55, warm, measure, cfgs)
	var rows []AblationRow
	for i, entries := range sizes {
		rows = append(rows, AblationRow{fmt.Sprintf("%d entries", entries), 100 * st[i].Reduction(), "% reduction"})
	}
	return rows
}

// AblationINZInterleave compares bit-interleaved INZ against per-word
// leading-zero truncation on real MD payloads (forces and box-relative
// positions from a thermalized system).
func AblationINZInterleave(atoms int) []AblationRow {
	sys := md.NewWater(atoms, 300, sim.NewRand(55))
	sys.Run(3)
	d := md.NewDecomposition(Shape8, sys.Box)
	var inzBytes, truncBytes, rawBytes int
	for i := 0; i < sys.N; i++ {
		home := d.HomeNode(sys.Pos[i])
		pq := d.RelativeFixed(sys.Pos[i], home).Words()
		fq := fixp.ForceToFixed(sys.Force[i]).Words()
		for _, q := range [][4]uint32{pq, fq} {
			n, _ := inz.Size(q)
			inzBytes += n
			truncBytes += inz.TruncateBytes(q)
			rawBytes += inz.RawBytes
		}
	}
	return []AblationRow{
		{"raw payloads", float64(rawBytes) / 1024, "KiB"},
		{"per-word truncation", float64(truncBytes) / 1024, "KiB"},
		{"INZ (interleaved)", float64(inzBytes) / 1024, "KiB"},
	}
}

// AblationFenceVsPairwise compares a network-fence global barrier against a
// naive software barrier built from pairwise counted writes (every node
// writes to every other node, then blocks on N-1 arrivals). The fence's
// decisive advantage is bandwidth — in-network merging makes its cost grow
// with N, not N^2 — which is exactly the paper's motivation for merging
// (Section V-B); latency is reported too.
func AblationFenceVsPairwise(shape topo.Shape) []AblationRow {
	mf := machine.New(machine.DefaultConfig(shape))
	fenceNs := mf.Barrier(shape.Diameter()).Latency.Nanoseconds()
	fenceBits := mf.TotalWireStats().WireBits

	mp := machine.New(machine.DefaultConfig(shape))
	nodes := shape.Nodes()
	var last sim.Time
	remaining := nodes
	for i := 0; i < nodes; i++ {
		self := mp.GC(shape.CoordOf(i), 0)
		self.BlockingRead(40, uint8(nodes-1), func([4]uint32) {
			remaining--
			if t := mp.K.Now(); t > last {
				last = t
			}
		})
	}
	for i := 0; i < nodes; i++ {
		src := mp.GC(shape.CoordOf(i), 0)
		for j := 0; j < nodes; j++ {
			if i == j {
				continue
			}
			dst := mp.GC(shape.CoordOf(j), 0)
			src.CountedWrite(dst, 40, [4]uint32{1})
		}
	}
	mp.Run()
	if remaining != 0 {
		panic("experiments: pairwise barrier incomplete")
	}
	pairBits := mp.TotalWireStats().WireBits
	return []AblationRow{
		{"fence barrier latency", fenceNs, "ns"},
		{"pairwise barrier latency", last.Nanoseconds(), "ns"},
		{"fence wire traffic", float64(fenceBits) / 8192, "KiB"},
		{"pairwise wire traffic", float64(pairBits) / 8192, "KiB"},
	}
}

// AblationDimOrders compares the routing policies under a hot
// uniform-random write load on the 128-node machine: time to drain the
// same traffic with fixed XYZ, the paper's randomized six orders, and
// minimal-adaptive routing.
func AblationDimOrders(writesPerNode int) []AblationRow {
	run := func(pol route.Policy) float64 {
		cfg := machine.DefaultConfig(Shape128)
		cfg.Policy = pol
		m := machine.New(cfg)
		rng := sim.NewRand(4242)
		nodes := Shape128.Nodes()
		for i := 0; i < nodes; i++ {
			src := m.GC(Shape128.CoordOf(i), 0)
			for w := 0; w < writesPerNode; w++ {
				dst := m.GC(Shape128.CoordOf(rng.Intn(nodes)), 1)
				src.CountedWrite(dst, uint32(w%1024), [4]uint32{uint32(w), 1, 2, 3})
			}
		}
		return m.Run().Nanoseconds()
	}
	return []AblationRow{
		{"fixed XYZ order", run(route.XYZ()), "ns drain"},
		{"randomized 6 orders (hw)", run(route.Random()), "ns drain"},
		{"minimal adaptive", run(route.MinimalAdaptive()), "ns drain"},
	}
}
