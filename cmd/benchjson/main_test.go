package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const header = "goos: linux\ngoarch: amd64\ncpu: Test CPU\n"

func mustParse(t *testing.T, text string) Report {
	t.Helper()
	rep, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestParseSingleLine checks that a benchmark that ran once reports its
// line as it stands: every column, the custom metrics, and the name
// without its -P suffix.
func TestParseSingleLine(t *testing.T) {
	rep := mustParse(t, header+
		"BenchmarkForces32k-2   \t      40\t  29345678 ns/op\t        27.10 ns/pair\t       0 B/op\t       0 allocs/op\n"+
		"PASS\nok  \tanton3/internal/md\t3.1s\n")
	want := Report{GOOS: "linux", GOARCH: "amd64", CPU: "Test CPU", Benches: []Bench{{
		Name: "Forces32k", Iters: 40, NsPerOp: 29345678, Extra: map[string]float64{"ns/pair": 27.10},
	}}}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("parse = %+v, want %+v", rep, want)
	}
}

// TestParseFoldsRepeatsToMedian checks that three lines of one benchmark
// fold into one row holding each column's median, in order of first
// appearance, while other benchmarks keep their single lines.
func TestParseFoldsRepeatsToMedian(t *testing.T) {
	rep := mustParse(t, header+
		"BenchmarkStep4k-2   \t  30\t  3000 ns/op\t  31.0 ns/pair\t  96 B/op\t  2 allocs/op\n"+
		"BenchmarkTimestepShards/shards=1-2 \t 7\t 162353413 ns/op\t 1802715 B/op\t 126341 allocs/op\n"+
		"BenchmarkStep4k-2   \t  50\t  1000 ns/op\t  23.0 ns/pair\t  64 B/op\t  1 allocs/op\n"+
		"BenchmarkStep4k-2   \t  40\t  2000 ns/op\t  27.0 ns/pair\t 128 B/op\t  3 allocs/op\n")
	want := []Bench{
		{Name: "Step4k", Iters: 40, NsPerOp: 2000, BytesPerOp: 96, AllocsPerOp: 2, Extra: map[string]float64{"ns/pair": 27}},
		{Name: "TimestepShards/shards=1", Iters: 7, NsPerOp: 162353413, BytesPerOp: 1802715, AllocsPerOp: 126341},
	}
	if !reflect.DeepEqual(rep.Benches, want) {
		t.Fatalf("benches = %+v, want %+v", rep.Benches, want)
	}
}

// writeBaseline commits a baseline report with one Forces32k row at
// nsPerOp to a temporary file and returns its path.
func writeBaseline(t *testing.T, nsPerOp float64) string {
	t.Helper()
	raw, err := json.Marshal(Report{Benches: []Bench{{Name: "Forces32k", Iters: 40, NsPerOp: nsPerOp}}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateComparesMedian checks that the gate judges the median of
// repeated runs: one slow run among three passes when the median is
// within the factor, and a median beyond it fails.
func TestGateComparesMedian(t *testing.T) {
	base := writeBaseline(t, 1000)
	within := mustParse(t, header+
		"BenchmarkForces32k-2 \t 40\t 1050 ns/op\n"+
		"BenchmarkForces32k-2 \t 40\t 1900 ns/op\n"+
		"BenchmarkForces32k-2 \t 40\t  980 ns/op\n")
	if got := within.Benches[0].NsPerOp; got != 1050 {
		t.Fatalf("median ns/op = %v, want 1050", got)
	}
	if !gate(within, base, "Forces32k", 1.10) {
		t.Fatal("gate failed a median within 1.10 of the baseline")
	}
	beyond := mustParse(t, header+
		"BenchmarkForces32k-2 \t 40\t 1150 ns/op\n"+
		"BenchmarkForces32k-2 \t 40\t  990 ns/op\n"+
		"BenchmarkForces32k-2 \t 40\t 1120 ns/op\n")
	if gate(beyond, base, "Forces32k", 1.10) {
		t.Fatal("gate passed a median of 1120 ns/op against a 1100 limit")
	}
}

// TestGateNamesRowsWithoutBaseline checks that a fresh row the gate
// selects but the baseline lacks is named on stderr as not gated, that a
// row the selection skips is not, and that neither changes the verdict.
func TestGateNamesRowsWithoutBaseline(t *testing.T) {
	base := writeBaseline(t, 1000)
	fresh := mustParse(t, header+
		"BenchmarkForces32k-2 \t 40\t 1000 ns/op\n"+
		"BenchmarkStep4k-2 \t 40\t 9999 ns/op\n"+
		"BenchmarkOther-2 \t 40\t 9999 ns/op\n")
	stderr := os.Stderr
	defer func() { os.Stderr = stderr }()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = f
	ok := gate(fresh, base, "Forces32k,Step4k", 1.10)
	os.Stderr = stderr
	f.Close()
	msg, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("gate failed a run whose only baseline row is within the limit:\n%s", msg)
	}
	if want := "benchjson: gate: Step4k has no baseline row, not gated\n"; !strings.Contains(string(msg), want) {
		t.Errorf("stderr does not name the row without a baseline:\n%s", msg)
	}
	if strings.Contains(string(msg), "Other") {
		t.Errorf("stderr names a row the selection skips:\n%s", msg)
	}
}
