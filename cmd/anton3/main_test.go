package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anton3/internal/md"
)

// TestBadInputExitsTwo feeds run each out-of-range flag value and checks
// that it is rejected before any job is built: exit code 2 and a message
// on stderr naming the flag, never a panic from inside a harness or the MD
// model.
func TestBadInputExitsTwo(t *testing.T) {
	cases := []struct {
		flag string
		args []string
	}{
		{"-npkts", []string{"netsweep", "-npkts", "0"}},
		{"-nwarm", []string{"netsweep", "-nwarm", "-1"}},
		{"-shapes", []string{"netsweep", "-shapes", "1x1x1"}},
		{"-shapes", []string{"saturate", "-shapes", "2x2x2,1x1x1"}},
		{"-atoms", []string{"fig12", "-atoms", "194"}},
		{"-mdatoms", []string{"mdsweep", "-mdatoms", "0"}},
		{"-loads", []string{"netsweep", "-loads", "NaN"}},
		{"-loads", []string{"saturate", "-loads", "0.5,Inf"}},
		{"-pairs", []string{"fig5", "-pairs", "0"}},
		{"-warm", []string{"fig9a", "-warm", "-1"}},
		{"-measure", []string{"fig9a", "-measure", "0"}},
		{"-steps", []string{"fig12", "-steps", "0"}},
		{"-mdsteps", []string{"mdsweep", "-mdsteps", "0"}},
		{"-injq", []string{"saturate", "-injq", "-3"}},
		{"-faults", []string{"faultsweep", "-faults", "0,0,0:x+:dead@18446744073710us"}},
	}
	stderr := os.Stderr
	defer func() { os.Stderr = stderr }()
	for _, c := range cases {
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
