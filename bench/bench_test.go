package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// benchSpec is BENCHMARK.json, which declares the workloads and metrics.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestSpecDeclaresEveryWorkloadAndMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp benchSpec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %v, benchmark default %v", sp.RunSeconds, defaultSeconds)
	}
	var got, want []string
	for _, w := range sp.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit, Better string }
		defs     []metricDef
	}{{sp.EndToEnd, endToEnd}, {sp.PerLayer, perLayer}} {
		var got, want []metricDef
		for _, d := range c.declared {
			got = append(got, metricDef{d.Name, d.Unit, d.Better})
		}
		want = c.defs
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json declares\n%v\nbenchmark reports\n%v", got, want)
		}
	}
}

// layerMetrics are the per-layer metrics each workload exercises even at
// the tiny size; the traced run must report them as nonzero.
var layerMetrics = map[string][]string{
	"md_compress": {"md.step_ms", "md.ns_per_pair", "traffic.replay_inz_ms", "traffic.replay_pcache_ms",
		"pcache.hit_rate", "serdes.wire_ratio", "setup.water_ms", "setup.machine_ms", "runtime.allocs_per_op", "cpu.md"},
	"md_timestep": {"machine.runstep_off_ms", "machine.runstep_on_ms", "sim.events_per_op", "sim.ns_per_event",
		"pcache.hit_rate", "serdes.wire_ratio", "setup.water_ms", "setup.machine_ms", "runtime.allocs_per_op", "cpu.sim"},
	"net_open":   {"synth.point_ms", "setup.machine_ms", "cpu.sim"},
	"net_closed": {"flow.point_ms", "flow.accept_ratio", "setup.machine_ms", "cpu.sim"},
}

// TestWorkloads runs every workload at the tiny size, untraced and traced.
func TestWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		plain, err := run(w, config{seed: 1, tiny: true})
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, plain, endToEnd, tinyOps)
		for _, d := range endToEnd {
			if plain.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, plain.Metrics[d.name].Value)
			}
		}

		// Long enough for the CPU profile to take samples.
		tr, err := run(w, config{seed: 1, tiny: true, traced: true, seconds: 0.3, traceDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, tr, perLayer, 2*tinyOps)
		for _, name := range layerMetrics[w.name] {
			if tr.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, tr.Metrics[name].Value)
			}
		}
		sum := 0.0
		for _, name := range []string{"cpu.md", "cpu.compress", "cpu.serdes", "cpu.sim", "cpu.machine",
			"cpu.route", "cpu.harness", "cpu.runtime_gc", "cpu.other"} {
			sum += tr.Metrics[name].Value
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s: CPU shares sum to %v%%, want 100", w.name, sum)
		}

		// The traced run set up afresh and digested the same ops.
		if tr.Digest != plain.Digest {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, plain.Digest, tr.Digest)
		}
		other, err := run(w, config{seed: 2, tiny: true})
		if err != nil {
			t.Fatal(err)
		}
		if other.Digest == plain.Digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, plain.Digest)
		}
	}
}

func checkRun(t *testing.T, r runRecord, defs []metricDef, minOps int) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < minOps {
		t.Errorf("%s: correct %v, %d of %d ops failed, want at least %d ops", r.Workload, r.Correct, r.Failed, r.Attempted, minOps)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", r.Workload, d.name, m, d.unit)
		}
	}
}

func TestCompareRefusesMixedRunLengths(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seconds float64) string {
		r := runRecord{Workload: "net_open", Seed: 1, Seconds: seconds, Digest: "d",
			result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"ops_per_s": {Value: 10, Unit: "1/s"}}}}
		b, err := json.Marshal(resultsFile{Runs: []runRecord{r}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, longer := write("base.json", 15), write("same.json", 15), write("longer.json", 20)
	if code := compareMain([]string{"-spec", "../BENCHMARK.json", base, same}); code != 0 {
		t.Errorf("compare of equal runs exited %d, want 0", code)
	}
	if code := compareMain([]string{"-spec", "../BENCHMARK.json", base, longer}); code != 2 {
		t.Errorf("compare of 15 s and 20 s runs exited %d, want 2", code)
	}
}

func TestP90LeavesTenOfHundredBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	p90 := percentile(xs, 90)
	beyond := 0
	for _, x := range xs {
		if x > p90 {
			beyond++
		}
	}
	if p90 != 90 || beyond != 10 {
		t.Errorf("p90 = %v with %d samples beyond, want 90 with 10", p90, beyond)
	}
	if p50 := percentile(xs, 50); p50 != 50 {
		t.Errorf("p50 = %v, want 50", p50)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([3, 1, 2], n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "op", parent: -1, start: ms(0), end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(30)},
		{name: "b", parent: 0, start: ms(20), end: ms(50)}, // overlaps a
		{name: "c", parent: 2, start: ms(25), end: ms(35)},
		{name: "d", parent: 0, start: ms(90), end: ms(100)},
	}
	// op: 100 minus [10,50] and [90,100]; b: 30 minus c's 10.
	want := []time.Duration{ms(50), ms(20), ms(20), ms(10), ms(10)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
