// Command bench is the repository's benchmark. It drives the simulator's
// layers through their public functions on four workloads, times every op
// in host time with tracing off, and checks the simulated results. A traced
// run (-trace 1) attributes host time to layers with spans, a CPU profile
// and the layers' own counters. README.md describes the workloads and
// metrics; BENCHMARK.json fixes their bounds and the run length.
//
//	bench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-repeat N] [-out FILE]
//	bench compare [-spec BENCHMARK.json] BASE.json CHANGE.json...
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit, better string }

// endToEnd metrics are measured in host time with tracing off.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"sim_pkts_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// perLayer metrics come from the traced run. A metric a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"op_ms_p90", "ms", "lower"},
	{"md.step_ms", "ms", "lower"},
	{"md.ns_per_pair", "ns", "lower"},
	{"traffic.replay_inz_ms", "ms", "lower"},
	{"traffic.replay_pcache_ms", "ms", "lower"},
	{"pcache.hit_rate", "ratio", "higher"},
	{"serdes.wire_ratio", "ratio", "lower"},
	{"inz.raw_fallback_ratio", "ratio", "lower"},
	{"machine.runstep_off_ms", "ms", "lower"},
	{"machine.runstep_on_ms", "ms", "lower"},
	{"sim.events_per_op", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"synth.point_ms", "ms", "lower"},
	{"flow.point_ms", "ms", "lower"},
	{"net.park_events_per_op", "count", "lower"},
	{"net.escape_vc_ratio", "ratio", "lower"},
	{"net.credit_stall_ns_per_pkt", "ns", "lower"},
	{"flow.accept_ratio", "ratio", "higher"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_kb_per_op", "KiB", "lower"},
	{"runtime.gc_per_op", "count", "lower"},
	{"runtime.gc_pause_ms_per_op", "ms", "lower"},
	{"setup.water_ms", "ms", "lower"},
	{"setup.machine_ms", "ms", "lower"},
	{"trace_overhead_pct", "%", "lower"},
	{"cpu.md", "%", "lower"},
	{"cpu.md.pairforce", "%", "lower"},
	{"cpu.compress", "%", "lower"},
	{"cpu.serdes", "%", "lower"},
	{"cpu.sim", "%", "lower"},
	{"cpu.sim.lineage", "%", "lower"},
	{"cpu.machine", "%", "lower"},
	{"cpu.route", "%", "lower"},
	{"cpu.harness", "%", "lower"},
	{"cpu.runtime_gc", "%", "lower"},
	{"cpu.other", "%", "lower"},
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median, since one set-up is short and noisy.
const setupReps = 3

const defaultSeed = 1

// defaultSeconds is the timed phase's length, BENCHMARK.json's run_seconds.
// -seconds is a flag because a BENCHMARK.json command is called with it on
// every run; compare refuses to mix runs of different lengths.
const defaultSeconds = 15

// traceDir is where the traced run writes its trace and CPU profile.
var traceDir = filepath.Join(".bench_build", "trace")

// golden holds each workload's digest at the default seed and size.
//
//go:embed golden.json
var goldenJSON []byte

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last for each run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as the results file keeps it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Digest   string  `json:"digest"`
	// HostSpeed is the host's median speed during the timed phase as a
	// share of the nominal host's: the factor host times were scaled by.
	HostSpeed float64 `json:"host_speed"`
	result
}

// config is one run's settings.
type config struct {
	seed     uint64
	seconds  float64
	traced   bool
	tiny     bool   // tests shrink every workload
	traceDir string // where the traced run writes its trace and profile
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", defaultSeed, "seed every input is drawn from")
	seconds := flag.Float64("seconds", defaultSeconds, "length of each timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	repeat := flag.Int("repeat", 1, "runs per workload, with seeds seed, seed+1, ...")
	out := flag.String("out", "", "write every run, with provenance, to this JSON file")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *repeat < 1 || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	ws := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	// Load comes from one goroutine; GC workers stay within two cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var runs []runRecord
	ok := true
	for r := 0; r < *repeat; r++ {
		for _, w := range ws {
			cfg := config{seed: *seed + uint64(r), seconds: *seconds, traced: *trace == 1, traceDir: traceDir}
			rec, err := run(w, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			printRun(os.Stderr, rec)
			line, err := json.Marshal(rec.result)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(string(line))
			runs = append(runs, rec)
			ok = ok && rec.Correct
		}
	}
	if *repeat > 1 {
		printSpread(os.Stderr, runs)
	}
	if *out != "" {
		if err := writeResults(*out, runs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// phase is one timed loop over whole passes of ops.
type phase struct {
	ops, failed int
	pass        int
	opMs        []float64 // normalized to the nominal host
	speed       []float64 // host speed after each op, which scaled its time
	pkts        int64
	digest      string
	liveHeap    uint64
	mem0, mem1  runtime.MemStats
}

// measure runs whole passes of ops for the given seconds, and at least the
// workload's digest ops, then weighs the live heap with the instance still
// reachable. Every op's time is scaled by the host speed sampled right
// after it; an op that ends less than refEvery after the previous sample
// takes that sample's speed.
func measure(w *workload, inst instance, cfg config, seconds float64, tr *tracer, ref *speedRef) phase {
	minOps, pass := w.minOps, w.pass
	if cfg.tiny {
		minOps, pass = tinyOps, 1
	}
	digest := sha256.New()
	ph := phase{pass: pass}
	runtime.ReadMemStats(&ph.mem0)
	speed, sampled := ref.speed(0), time.Now()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minOps || i%pass != 0 || time.Now().Before(deadline); i++ {
		out := io.Discard
		if i < minOps {
			out = digest
		}
		if tr != nil {
			tr.op = i
		}
		t := time.Now()
		pkts, err := runOp(inst, i, out, tr)
		d := time.Since(t)
		if since := time.Since(sampled); since >= refEvery {
			speed, sampled = ref.speed(time.Duration(refShare*float64(since))), time.Now()
		}
		ph.opMs = append(ph.opMs, float64(d.Nanoseconds())/1e6*speed)
		ph.speed = append(ph.speed, speed)
		ph.ops++
		ph.pkts += pkts
		if err != nil {
			ph.failed++
			if ph.failed <= 3 {
				fmt.Fprintf(os.Stderr, "bench: %s op %d failed: %v\n", w.name, i, err)
			}
		}
	}
	runtime.ReadMemStats(&ph.mem1)
	ph.digest = hex.EncodeToString(digest.Sum(nil))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(inst)
	return ph
}

// paceMs returns each op of a pass at its median time over the phase's
// passes. Contention from other tenants comes in episodes of seconds that
// the reference sample tracks only in part; a plain mean would charge
// those episodes to the simulator.
func (ph *phase) paceMs() []float64 {
	col := make([]float64, ph.ops/ph.pass)
	pace := make([]float64, ph.pass)
	for j := range pace {
		for p := range col {
			col[p] = ph.opMs[p*ph.pass+j]
		}
		pace[j] = median(col)
	}
	return pace
}

// opsPerSecond is the phase's throughput at the median pace.
func (ph *phase) opsPerSecond() float64 {
	passMs := 0.0
	for _, ms := range ph.paceMs() {
		passMs += ms
	}
	return float64(ph.pass) / passMs * 1e3
}

// runOp runs one op inside an "op" span, counting a panic as a failure.
func runOp(inst instance, i int, out io.Writer, tr *tracer) (pkts int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	tr.span("op", func() { pkts, err = inst.op(i, out, tr) })
	return pkts, err
}

// run sets up and measures one workload.
func run(w *workload, cfg config) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.traced}
	var ph phase
	m := make(map[string]float64)
	ref := newSpeedRef()
	if !cfg.traced {
		t := time.Now()
		inst := w.setup(cfg.seed, cfg.tiny, nil)
		setups := []float64{time.Since(t).Seconds()}
		ph = measure(w, inst, cfg, cfg.seconds, nil, ref)
		// The other set-ups come after the timed phase, so the timed state
		// lies in a fresh heap, as it does when the simulator runs once.
		for len(setups) < setupReps {
			runtime.GC()
			t := time.Now()
			w.setup(cfg.seed, cfg.tiny, nil)
			setups = append(setups, time.Since(t).Seconds())
		}
		m["ops_per_s"] = ph.opsPerSecond()
		m["op_ms_p50"] = median(ph.paceMs())
		m["sim_pkts_per_s"] = float64(ph.pkts) / float64(ph.ops) * ph.opsPerSecond()
		// One reference sample is too short to scale a set-up by; the
		// timed phase's median host speed is steadier.
		m["setup_s"] = median(setups) * median(ph.speed)
		m["live_heap_mb"] = float64(ph.liveHeap) / (1 << 20)
	} else {
		var err error
		if ph, err = traced(w, cfg, m, ref); err != nil {
			return rec, err
		}
	}
	rec.result = newResult(m, metricDefs(cfg.traced), ph.ops, ph.failed)
	rec.Digest = ph.digest
	rec.HostSpeed = median(ph.speed)
	if want := goldenDigest(w.name); !cfg.tiny && cfg.seed == defaultSeed && ph.digest != want {
		fmt.Fprintf(os.Stderr, "bench: %s digest %s, golden %s\n", w.name, ph.digest, want)
		rec.Failed = rec.Attempted
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// traced runs an untraced half and then a traced half of the timed phase,
// each on a fresh set-up, and fills m with the per-layer metrics. The
// returned phase totals both halves and carries their common digest.
func traced(w *workload, cfg config, m map[string]float64, ref *speedRef) (phase, error) {
	plain := measure(w, w.setup(cfg.seed, cfg.tiny, nil), cfg, cfg.seconds/2, nil, ref)

	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return plain, err
	}
	base := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-%d", w.name, cfg.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return plain, err
	}
	defer prof.Close()
	tr := newTracer()
	inst := w.setup(cfg.seed, cfg.tiny, tr)
	if err := pprof.StartCPUProfile(prof); err != nil {
		return plain, err
	}
	ph := measure(w, inst, cfg, cfg.seconds/2, tr, ref)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return plain, err
	}
	if err := writeChromeTrace(base+".trace.json", tr.spans); err != nil {
		return plain, err
	}
	cpu, err := foldCPU(base + ".cpu.pprof")
	if err != nil {
		return plain, err
	}

	for k, v := range cpu {
		m[k] = v
	}
	// Span times, like op times, are scaled to the nominal host, here by the
	// traced half's median host speed.
	speed := median(ph.speed)
	spans := spanStats(tr.spans)
	for name, st := range spans {
		st.self = time.Duration(float64(st.self) * speed)
		spans[name] = st
		m[name+"_ms"] = float64(st.self.Nanoseconds()) / 1e6 / float64(st.n)
	}
	inst.layer(m, ph.ops, spans)
	// Allocation and GC counts come from the untraced half, which spans
	// and the profiler leave untouched.
	m["op_ms_p90"] = percentile(plain.opMs, 90)
	ops := float64(plain.ops)
	m["runtime.allocs_per_op"] = float64(plain.mem1.Mallocs-plain.mem0.Mallocs) / ops
	m["runtime.alloc_kb_per_op"] = float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc) / 1024 / ops
	m["runtime.gc_per_op"] = float64(plain.mem1.NumGC-plain.mem0.NumGC) / ops
	m["runtime.gc_pause_ms_per_op"] = float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e6 / ops
	m["trace_overhead_pct"] = 100 * (plain.opsPerSecond()/ph.opsPerSecond() - 1)

	if ph.digest != plain.digest {
		fmt.Fprintf(os.Stderr, "bench: %s traced digest %s, untraced %s\n", w.name, ph.digest, plain.digest)
		ph.failed = ph.ops
	}
	ph.ops += plain.ops
	ph.failed += plain.failed
	ph.speed = append(ph.speed, plain.speed...)
	return ph, nil
}

func newResult(m map[string]float64, defs []metricDef, ops, failed int) result {
	r := result{Attempted: ops, Failed: failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return r
}

func goldenDigest(name string) string {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench: golden.json: %v", err))
	}
	return g[name]
}

// metricDefs lists the metrics a run reports.
func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printRun writes one run's metrics as a table.
func printRun(w io.Writer, r runRecord) {
	fmt.Fprintf(w, "%s seed %d: %d ops, %d failed, digest %.16s, host speed %.3f of nominal\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Digest, r.HostSpeed)
	for _, d := range metricDefs(r.Trace) {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
}

// printSpread writes each metric's median, quartiles and relative IQR over
// repeated runs, the numbers the bounds in BENCHMARK.json rest on.
func printSpread(w io.Writer, runs []runRecord) {
	for _, wl := range workloads {
		var rs []runRecord
		for _, r := range runs {
			if r.Workload == wl.name {
				rs = append(rs, r)
			}
		}
		if len(rs) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s over %d runs: median [q1, q3] relative IQR\n", wl.name, len(rs))
		for _, d := range metricDefs(rs[0].Trace) {
			var xs []float64
			for _, r := range rs {
				xs = append(xs, r.Metrics[d.name].Value)
			}
			q1, q2, q3 := quartiles(xs)
			rel := 0.0
			if q2 != 0 {
				rel = 100 * (q3 - q1) / q2
			}
			fmt.Fprintf(w, "  %-28s %14.6g [%.6g, %.6g] %6.2f%%\n", d.name, q2, q1, q3, rel)
		}
	}
}

// provenance records where a results file came from.
type provenance struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	Git        string   `json:"git_describe"`
	Args       []string `json:"args"`
}

type resultsFile struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

func writeResults(path string, runs []runRecord) error {
	p := provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Git:        "unknown",
		Args:       os.Args[1:],
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		p.Git = strings.TrimSpace(string(b))
	}
	b, err := json.MarshalIndent(resultsFile{Provenance: p, Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
