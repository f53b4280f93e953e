package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anton3/internal/md"
)

// badInputs are command lines run must reject before any job is built,
// each with the flag its message must name.
var badInputs = []struct {
	flag string
	args []string
}{
	{"-jobs", []string{"netsweep", "-jobs", "-1", "-shards", "2"}}, // read as all cores, skipping the jobs x shards budget
	{"-shards", []string{"netsweep", "-shards", "-1"}},             // below 0, which grants shards from idle cores
	{"-autoshard", []string{"netsweep", "-autoshard"}},             // removed: -shards 0 grants shards
	{"-npkts", []string{"netsweep", "-npkts", "0"}},
	{"-nwarm", []string{"netsweep", "-nwarm", "-1"}},
	{"-shapes", []string{"netsweep", "-shapes", "1x1x1"}},
	{"-shapes", []string{"saturate", "-shapes", "2x2x2,1x1x1"}},
	{"-shapes", []string{"netsweep", "-shapes", "3037000500x3037000500x1"}}, // X*Y overflows int64
	{"-shapes", []string{"netsweep", "-shapes", "100000x100000x100000"}},    // 10^15 nodes
	{"-atoms", []string{"fig12", "-atoms", "194"}},
	{"-mdatoms", []string{"mdsweep", "-mdatoms", "0"}},
	{"-loads", []string{"netsweep", "-loads", "NaN"}},
	{"-loads", []string{"saturate", "-loads", "0.5,Inf"}},
	{"-loads", []string{"netsweep", "-shapes", "2x2x2", "-loads", "1e-15"}},                    // overflows the schedule sort key
	{"-loads", []string{"netsweep", "-shapes", "2x2x2", "-loads", "1e-300"}},                   // every gap clamps to 1 ps
	{"-npkts", []string{"netsweep", "-shapes", "2x2x2", "-loads", "1e-6", "-npkts", "100000"}}, // horizon overflows the sort key
	{"-npkts", []string{"saturate", "-shapes", "2x2x2", "-loads", "1e-6", "-npkts", "100000"}}, // the same in the closed loop
	{"-npkts", []string{"netsweep", "-shapes", "2x2x2", "-npkts", "9223372036854775807"}},      // the budget overflows int
	{"-pairs", []string{"fig5", "-pairs", "0"}},
	{"-warm", []string{"fig9a", "-warm", "-1"}},
	{"-measure", []string{"fig9a", "-measure", "0"}},
	{"-steps", []string{"fig12", "-steps", "0"}},
	{"-mdsteps", []string{"mdsweep", "-mdsteps", "0"}},
	{"-injq", []string{"saturate", "-injq", "-3"}},
	{"-faults", []string{"faultsweep", "-faults", "0,0,0:x+:dead@18446744073710us"}},
}

// TestBadInputExitsTwo feeds run each out-of-range flag value and checks
// that it is rejected before any job is built: exit code 2 and a message
// on stderr naming the flag, never a panic from inside a harness or the MD
// model.
func TestBadInputExitsTwo(t *testing.T) {
	stderr := os.Stderr
	defer func() { os.Stderr = stderr }()
	for _, c := range badInputs {
		name := strings.Join(c.args, " ")
		f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
		if err != nil {
			t.Fatal(err)
		}
		os.Stderr = f
		code := func() (code int) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
					code = -1
				}
			}()
			return run(c.args)
		}()
		os.Stderr = stderr
		f.Close()
		msg, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if code != 2 {
			t.Errorf("%s: exit code %d, want 2", name, code)
		}
		if !strings.Contains(string(msg), c.flag) {
			t.Errorf("%s: message %q does not name %s", name, msg, c.flag)
		}
	}
}

// TestMinMDAtomsIsSmallestDecomposable pins minMDAtoms to the md model: it
// is the smallest atom count whose box spans two cutoffs.
func TestMinMDAtomsIsSmallestDecomposable(t *testing.T) {
	if md.BoxForAtoms(minMDAtoms) < 2*md.Cutoff || md.BoxForAtoms(minMDAtoms-1) >= 2*md.Cutoff {
		t.Fatalf("minMDAtoms = %d, but boxes are %.3f (n-1) and %.3f (n) against 2*cutoff %.1f",
			minMDAtoms, md.BoxForAtoms(minMDAtoms-1), md.BoxForAtoms(minMDAtoms), 2*md.Cutoff)
	}
}

// FuzzParseGrid holds the -shapes and -loads parsers to their contract:
// they never panic, every accepted shape has 2 to maxShapeNodes nodes, and
// every accepted load is finite and at least minLoad. The corpus starts
// from the defaults and every -shapes and -loads value of badInputs.
func FuzzParseGrid(f *testing.F) {
	f.Add("4x4x8,8x8x8", "0.5,1,2,3,4")
	for _, c := range badInputs {
		v := c.args[len(c.args)-1]
		switch c.flag {
		case "-shapes":
			f.Add(v, "1")
		case "-loads":
			f.Add("2x2x2", v)
		}
	}
	f.Fuzz(func(t *testing.T, shapes, loads string) {
		if got, err := parseShapes(shapes); err == nil {
			for _, sh := range got {
				if n := sh.Nodes(); n < 2 || n > maxShapeNodes {
					t.Fatalf("parseShapes(%q) accepted %v with %d nodes", shapes, sh, n)
				}
			}
		}
		if got, err := parseLoads(loads); err == nil {
			for _, l := range got {
				if math.IsNaN(l) || math.IsInf(l, 0) || l < minLoad {
					t.Fatalf("parseLoads(%q) accepted load %v", loads, l)
				}
			}
		}
	})
}
