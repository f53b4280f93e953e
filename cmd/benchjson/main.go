// Command benchjson converts `go test -bench -benchmem` text output (on
// stdin) into a stable JSON report (on stdout), so CI can commit benchmark
// artifacts like BENCH_hotpath.json and diffs stay readable per PR.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/benchjson > BENCH.json
//
// With -gate, the fresh results are additionally compared against a
// committed baseline report, and the run fails (exit 1, after still
// writing the fresh JSON) if any baseline bench whose name contains one of
// the comma-separated -gate-bench substrings got slower than
// ns_per_op x -gate-factor. CI runs the hot-path lane through this so a
// SendHotPath, Netsweep or KernelSteadyState regression >10% cannot land
// with a green build, and the parallel lane gates NetsweepShards the same
// way:
//
//	... | go run ./cmd/benchjson -gate BENCH_hotpath.json -gate-bench SendHotPath,Netsweep,KernelSteadyState > new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line. Extra carries custom metrics
// reported via testing.B.ReportMetric — e.g. the saturation knee loads the
// flow benchmarks attach as "knee_load" — keyed by their unit string.
type Bench struct {
	Name        string             `json:"name"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"b_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the committed artifact shape.
type Report struct {
	GOOS    string  `json:"goos,omitempty"`
	GOARCH  string  `json:"goarch,omitempty"`
	CPU     string  `json:"cpu,omitempty"`
	Benches []Bench `json:"benches"`
}

func main() {
	gateFile := flag.String("gate", "", "committed baseline report to gate against")
	gateBench := flag.String("gate-bench", "SendHotPath", "comma-separated substrings selecting which baseline benches are gated")
	gateFactor := flag.Float64("gate-factor", 1.10, "fail if fresh ns_per_op exceeds baseline x this factor")
	flag.Parse()

	var rep Report
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBench(line); ok {
				rep.Benches = append(rep.Benches, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benches) == 0 {
		// A report with no benchmarks means the -bench regex no longer
		// matches anything (e.g. a bench was renamed); failing here keeps
		// CI from committing an empty artifact with a green build.
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *gateFile != "" && !gate(rep, *gateFile, *gateBench, *gateFactor) {
		os.Exit(1)
	}
}

// gate compares the fresh report against the committed baseline and
// reports whether every gated bench is within factor of its baseline
// ns_per_op. bench is a comma-separated substring list: a baseline bench is
// gated when its name contains any of them. A gated baseline bench missing
// from the fresh run fails too (a rename must not silently disarm the
// gate); a baseline file that does not exist yet passes, so the gate
// bootstraps on a fresh clone.
func gate(fresh Report, file, bench string, factor float64) bool {
	var subs []string
	for _, s := range strings.Split(bench, ",") {
		if s = strings.TrimSpace(s); s != "" {
			subs = append(subs, s)
		}
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "benchjson: gate baseline %s missing, skipping gate\n", file)
			return true
		}
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return false
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: gate baseline %s: %v\n", file, err)
		return false
	}
	cur := make(map[string]float64, len(fresh.Benches))
	for _, b := range fresh.Benches {
		cur[b.Name] = b.NsPerOp
	}
	ok := true
	for _, b := range base.Benches {
		if !gated(b.Name, subs) || b.NsPerOp <= 0 {
			continue
		}
		got, have := cur[b.Name]
		if !have {
			fmt.Fprintf(os.Stderr, "benchjson: gate: %s in baseline but not in fresh results\n", b.Name)
			ok = false
			continue
		}
		if limit := b.NsPerOp * factor; got > limit {
			fmt.Fprintf(os.Stderr, "benchjson: gate: %s regressed: %.1f ns/op vs committed %.1f (limit %.1f)\n",
				b.Name, got, b.NsPerOp, limit)
			ok = false
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: gate: %s ok: %.1f ns/op vs committed %.1f (limit %.1f)\n",
				b.Name, got, b.NsPerOp, limit)
		}
	}
	return ok
}

// gated reports whether name contains any of the gate substrings.
func gated(name string, subs []string) bool {
	for _, s := range subs {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// parseBench reads lines of the form
//
//	BenchmarkName-8   1234   987.6 ns/op   64 B/op   2 allocs/op
//
// The -P GOMAXPROCS suffix is stripped so reports diff cleanly across
// runner core counts.
func parseBench(line string) (Bench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Bench{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Bench{Name: name}
	var err error
	if b.Iters, err = strconv.ParseInt(f[1], 10, 64); err != nil {
		return Bench{}, false
	}
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			b.NsPerOp, err = strconv.ParseFloat(val, 64)
		case "B/op":
			b.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			b.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
		default:
			// A ReportMetric custom unit; keep it so artifacts like
			// BENCH_saturation.json can carry domain numbers (knee loads).
			var v float64
			if v, err = strconv.ParseFloat(val, 64); err == nil {
				if b.Extra == nil {
					b.Extra = map[string]float64{}
				}
				b.Extra[unit] = v
			}
		}
		if err != nil {
			return Bench{}, false
		}
	}
	return b, true
}
