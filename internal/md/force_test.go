package md

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"anton3/internal/testutil"
)

// forceDigest hashes the bit patterns of every force component, the
// potential and the pair count of s's last force evaluation.
func forceDigest(h io.Writer, s *System) {
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, f := range s.Force {
		put(math.Float64bits(f.X))
		put(math.Float64bits(f.Y))
		put(math.Float64bits(f.Z))
	}
	put(math.Float64bits(s.Potential))
	put(uint64(s.PairCount()))
}

// TestForcesGolden pins the force kernel bit for bit: forces, potential
// and pair count after NewWater and after each of three steps. 512 atoms
// give two cells per side (MinImage per pair), 1000 atoms three (the
// fewest with one periodic image per cell pair) and 8000 atoms six. The
// digests were captured from the linked-list kernel that used MinImage on
// every candidate pair; any reordering of pairs or float additions moves
// them.
func TestForcesGolden(t *testing.T) {
	for _, c := range []struct {
		atoms  int
		digest string
	}{
		{512, "eaacf0fa97573c05a2caa64aaf62a1f61fe5655c59bc2271a470ed7a7256c968"},
		{1000, "a940b9ea1b514e9ff3bd0139a444e1b340863f0bf1c3233e4abc4f86a6451ac3"},
		{8000, "7214e92444f8d49f5942587e6b82fc125632d212582063967db3ed9d0458d218"},
	} {
		t.Run(fmt.Sprint(c.atoms), func(t *testing.T) {
			h := sha256.New()
			s := smallSystem(c.atoms)
			forceDigest(h, s)
			for i := 0; i < 3; i++ {
				s.Step()
				forceDigest(h, s)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
				t.Fatalf("force digest at %d atoms = %s, want %s", c.atoms, got, c.digest)
			}
		})
	}
}

// TestPairCountBruteForce checks PairCount against an O(N^2) minimum-image
// count over every pair.
func TestPairCountBruteForce(t *testing.T) {
	s := smallSystem(1000)
	brute := func() int {
		rc2 := Cutoff * Cutoff
		count := 0
		for i := 0; i < s.N; i++ {
			for j := i + 1; j < s.N; j++ {
				if r2 := MinImage(s.Pos[i], s.Pos[j], s.Box).Norm2(); r2 < rc2 && r2 > 0 {
					count++
				}
			}
		}
		return count
	}
	if got, want := s.PairCount(), brute(); got != want {
		t.Fatalf("after NewWater: PairCount = %d, brute force %d", got, want)
	}
	s.Run(5)
	if got, want := s.PairCount(), brute(); got != want {
		t.Fatalf("after 5 steps: PairCount = %d, brute force %d", got, want)
	}
}

// TestComputeForcesAllocFree pins a warm force evaluation and a warm step
// at zero heap allocations: the cell index is sized once and reused.
func TestComputeForcesAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	s := smallSystem(8000)
	s.Step()
	if n := testing.AllocsPerRun(3, s.ComputeForces); n != 0 {
		t.Fatalf("ComputeForces allocates %.1f times/op warm, want 0", n)
	}
	if n := testing.AllocsPerRun(3, s.Step); n != 0 {
		t.Fatalf("Step allocates %.1f times/op warm, want 0", n)
	}
}
