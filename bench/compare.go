package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json that compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares a base set of runs with one or more change sets and
// exits 1 on a regression or a digest mismatch.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] BASE.json CHANGE.json...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() < 2 {
		fs.Usage()
		return 2
	}
	var sp spec
	if err := readJSON(*specPath, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	sets := make([][]runRecord, fs.NArg())
	seconds := -1.0
	for i, path := range fs.Args() {
		var f resultsFile
		if err := readJSON(path, &f); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		// Both sides must time the same length of run.
		for _, r := range f.Runs {
			if seconds >= 0 && r.Seconds != seconds {
				fmt.Fprintf(os.Stderr, "bench compare: %s holds a %g s run, another a %g s run; compare runs of one length\n",
					path, r.Seconds, seconds)
				return 2
			}
			seconds = r.Seconds
		}
		sets[i] = f.Runs
	}
	bad := digestsDiffer(os.Stdout, sets)
	for i, change := range sets[1:] {
		fmt.Printf("%s vs %s\n", fs.Arg(0), fs.Arg(i+1))
		if compareSets(os.Stdout, sp, sets[0], change) {
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// digestsDiffer reports every (workload, seed) whose runs disagree on the
// digest, across all sets, and every incorrect run.
func digestsDiffer(w io.Writer, sets [][]runRecord) bool {
	type key struct {
		workload string
		seed     uint64
	}
	seen := make(map[key]string)
	bad := false
	for _, runs := range sets {
		for _, r := range runs {
			k := key{r.Workload, r.Seed}
			if d, ok := seen[k]; ok && d != r.Digest {
				fmt.Fprintf(w, "DIGEST MISMATCH %s seed %d: %.16s vs %.16s\n", r.Workload, r.Seed, d, r.Digest)
				bad = true
			}
			seen[k] = r.Digest
			if !r.Correct {
				fmt.Fprintf(w, "INCORRECT %s seed %d: %d of %d ops failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				bad = true
			}
		}
	}
	return bad
}

// compareSets classifies every (workload, end-to-end metric) pair and
// reports whether any regressed. A pair whose run-to-run spread exceeds its
// bound is unresolved, unless every change run beats every base run.
func compareSets(w io.Writer, sp spec, base, change []runRecord) (regressed bool) {
	values := func(runs []runRecord, workload, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			if r.Workload == workload && !r.Trace {
				if m, ok := r.Metrics[metric]; ok {
					xs = append(xs, m.Value)
				}
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-12s %-16s %24s %24s %8s %6s  %s\n", "workload", "metric", "base median [q1,q3]", "change median [q1,q3]", "delta", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range sp.EndToEnd {
			b, c := values(base, wl.name, d.Name), values(change, wl.name, d.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			b1, bm, b3 := quartiles(b)
			c1, cm, c3 := quartiles(c)
			sign := 1.0 // sign*delta > 0 means worse
			if d.Better == "higher" {
				sign = -1
			}
			delta := (cm - bm) / bm
			spread := max((b3-b1)/bm, (c3-c1)/cm)
			verdict := "within bound"
			switch {
			case spread > d.Bound && !allBetter(b, c, sign):
				verdict = "unresolved"
			case sign*delta > d.Bound:
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-16s %10.4g [%.4g,%.4g] %10.4g [%.4g,%.4g] %+7.2f%% %5.1f%%  %s\n",
				wl.name, d.Name, bm, b1, b3, cm, c1, c3, 100*delta, 100*d.Bound, verdict)
		}
	}
	return regressed
}

// allBetter reports whether every change value beats every base value;
// sign is +1 when lower is better.
func allBetter(base, change []float64, sign float64) bool {
	for _, b := range base {
		for _, c := range change {
			if sign*(c-b) >= 0 {
				return false
			}
		}
	}
	return true
}
