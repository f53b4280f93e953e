// Package anton3bench regenerates every table and figure of the paper as a
// testing.B benchmark. Run with:
//
//	go test -bench=. -benchmem
//
// Each bench executes the experiment once per iteration and logs the rows
// the paper reports; EXPERIMENTS.md records a captured run.
package anton3bench

import (
	"testing"

	"anton3/internal/experiments"
	"anton3/internal/runner"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// BenchmarkRunnerAll runs every table, figure and ablation through the
// parallel runner at reduced sizes — the orchestration path cmd/anton3
// `all` uses — and logs the pool's wall/CPU/speedup line. The CI bench
// lane regenerates the full-scale BENCH_runner.json artifact with
// `go run ./cmd/anton3 all -json BENCH_runner.json`.
func BenchmarkRunnerAll(b *testing.B) {
	p := experiments.DefaultParams()
	p.Fig5Pairs = 2
	p.Fig9aSizes = []int{8000}
	p.Fig9aWarm, p.Fig9aMeasure = 2, 2
	p.Fig9bSizes = []int{8000}
	p.Fig9bSteps = 2
	p.Fig12Atoms, p.Fig12Steps = 8000, 2
	p.AblPredictorAtoms = 4000
	p.AblPcacheAtoms = 8000
	p.AblPcacheSizes = []int{256, 1024}
	p.AblINZAtoms = 3000
	p.AblDimWrites = 40
	p.NetShapes = []topo.Shape{{X: 2, Y: 2, Z: 4}}
	p.NetLoads = []float64{0.5, 2}
	p.NetPackets, p.NetWarmup = 16, 4
	var rep runner.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = runner.Run(experiments.SelectJobs(experiments.Jobs(p), "all"), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("%d jobs on %d workers: %.2fs wall, %.2fs CPU, speedup %.2fx",
		rep.Jobs, rep.Workers, float64(rep.WallNs)/1e9, float64(rep.CPUNs)/1e9, rep.Speedup)
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Tables()
	}
	b.Log("\n" + experiments.Tables())
}

func BenchmarkTable2(b *testing.B) {
	// Table II is part of the Tables rendering; benchmarked separately so
	// every paper artifact has a named bench target.
	for i := 0; i < b.N; i++ {
		_ = experiments.Tables()
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Tables()
	}
}

func BenchmarkFig5_LatencyVsHops(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Fig5(sim.NewRand(experiments.Fig5Seed), 4).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkFig6_LatencyBreakdown(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Fig6().Render()
	}
	b.Log("\n" + out)
}

func BenchmarkFig9a_TrafficReduction(b *testing.B) {
	sizes := []int{8000, 16000, 32751}
	if testing.Short() {
		sizes = []int{8000}
	}
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.RenderFig9a(experiments.Fig9a(sizes, 2, 3))
	}
	b.Log("\n" + out)
}

func BenchmarkFig9b_CompressionSpeedup(b *testing.B) {
	sizes := []int{8000, 16000, 32751}
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.RenderFig9b(experiments.Fig9b(sizes, 2, 1))
	}
	b.Log("\n" + out)
}

func BenchmarkFig11_FenceBarrier(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Fig11().Render()
	}
	b.Log("\n" + out)
}

func BenchmarkFig12_MachineActivity(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Fig12(32751, 2, 1).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkAblationPredictorOrder(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.RenderAblation("pcache predictor order",
			experiments.AblationPredictorOrder(8000, 3, 2))
	}
	b.Log("\n" + out)
}

func BenchmarkAblationPcacheSize(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.RenderAblation("pcache size sweep",
			experiments.AblationPcacheSize(32751, 2, 2, []int{256, 1024, 4096}))
	}
	b.Log("\n" + out)
}

func BenchmarkAblationINZInterleave(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.RenderAblation("INZ vs per-word truncation",
			experiments.AblationINZInterleave(8000))
	}
	b.Log("\n" + out)
}

func BenchmarkAblationFenceVsPairwise(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.RenderAblation("fence vs pairwise barrier (128 nodes)",
			experiments.AblationFenceVsPairwise(topo.Shape{X: 4, Y: 4, Z: 8}))
	}
	b.Log("\n" + out)
}

func BenchmarkAblationDimOrders(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.RenderAblation("randomized vs fixed dimension orders",
			experiments.AblationDimOrders(60))
	}
	b.Log("\n" + out)
}
