package md

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"anton3/internal/fixp"
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
// fewest with one periodic image per cell pair), 8000 atoms six and 16000
// atoms eight (the md_compress benchmark size). The digests were captured
// from the kernel that scanned every candidate pair of every cell pair,
// the first three from the linked-list kernel that used MinImage on every
// candidate pair; any reordering of pairs or float additions moves them.
// The straddle row pins the hand-placed systems of straddlers, whose pairs
// sit at the cutoff give or take a few ulps.
func TestForcesGolden(t *testing.T) {
	for _, c := range []struct {
		atoms  int
		digest string
	}{
		{512, "eaacf0fa97573c05a2caa64aaf62a1f61fe5655c59bc2271a470ed7a7256c968"},
		{1000, "a940b9ea1b514e9ff3bd0139a444e1b340863f0bf1c3233e4abc4f86a6451ac3"},
		{8000, "7214e92444f8d49f5942587e6b82fc125632d212582063967db3ed9d0458d218"},
		{16000, "02da1cc92975658d4fe3e84ae533a4e1043469fad990463bd38ba03db01c700c"},
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
	t.Run("straddle", func(t *testing.T) {
		h := sha256.New()
		for _, s := range straddlers() {
			forceDigest(h, s)
		}
		const want = "d674e0248f340bc9380404a0ba3ca82dd5eb12d78b3e33c1c47aa5b40b818ef0"
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Fatalf("straddle force digest = %s, want %s", got, want)
		}
	})
}

// placedSystem builds a system of hand-placed atoms at rest and evaluates
// its forces.
func placedSystem(box float64, pos []fixp.Vec) *System {
	s := &System{
		N:     len(pos),
		Box:   box,
		Pos:   pos,
		Vel:   make([]fixp.Vec, len(pos)),
		Force: make([]fixp.Vec, len(pos)),
		cells: newCellList(box, Cutoff),
	}
	s.ComputeForces()
	return s
}

// nudge moves x by k ulps (down for negative k).
func nudge(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// straddlers returns hand-placed two-atom systems at three and four cells
// per side, one pair each, followed by one system per box holding every
// pair at once. Each pair straddles a cell face, edge or corner, inside
// the box or across its periodic boundary, at the cutoff give or take up
// to three ulps per coordinate, or just beyond the cutoff (1e-9 to 1e-3
// A). Some atoms sit at box - ulp, the largest coordinate a wrapped
// position takes.
func straddlers() []*System {
	var out []*System
	for _, box := range []float64{30, 37} {
		cs := box / float64(int(box/Cutoff))
		top := math.Nextafter(box, 0)
		var all []fixp.Vec
		add := func(a, b fixp.Vec) {
			out = append(out, placedSystem(box, []fixp.Vec{a, b}))
			all = append(all, a, b)
		}
		wrapped := func(v fixp.Vec) fixp.Vec {
			return fixp.Vec{X: wrap(v.X, box), Y: wrap(v.Y, box), Z: wrap(v.Z, box)}
		}
		dirs := []fixp.Vec{{X: 1}, {Y: 1}, {X: 1, Y: 1}, {X: 1, Z: -1}, {X: 1, Y: 1, Z: 1}, {X: -1, Y: 1, Z: 1}}
		anchors := []fixp.Vec{{X: cs, Y: cs, Z: cs}, {X: 2 * cs, Y: cs, Z: 2 * cs}, {}}
		for _, u := range dirs {
			u = u.Scale(1 / math.Sqrt(u.Norm2()))
			for _, c := range anchors {
				a := wrapped(c.Sub(u.Scale(0.3 * Cutoff)))
				b := wrapped(c.Add(u.Scale(0.7 * Cutoff)))
				for k := -3; k <= 3; k++ {
					bk := b
					if u.X != 0 {
						bk.X = nudge(b.X, k*int(math.Copysign(1, u.X)))
					}
					if u.Y != 0 {
						bk.Y = nudge(b.Y, k*int(math.Copysign(1, u.Y)))
					}
					if u.Z != 0 {
						bk.Z = nudge(b.Z, k*int(math.Copysign(1, u.Z)))
					}
					add(a, wrapped(bk))
				}
				for _, eps := range []float64{1e-9, 1e-7, 1e-6, 2e-6, 1e-5, 1e-3} {
					add(a, wrapped(c.Add(u.Scale(0.7*Cutoff+eps))))
				}
			}
		}
		// Atoms at box - ulp, paired across the periodic boundary.
		for k := -3; k <= 3; k++ {
			add(fixp.Vec{X: top, Y: cs / 2, Z: cs / 2}, fixp.Vec{X: nudge(top+Cutoff-box, k), Y: cs / 2, Z: cs / 2})
			d := Cutoff / math.Sqrt(3)
			add(fixp.Vec{X: top, Y: top, Z: top}, wrapped(fixp.Vec{X: nudge(top+d, k), Y: nudge(top+d, k), Z: nudge(top+d, k)}))
		}
		out = append(out, placedSystem(box, all))
	}
	return out
}

// bruteCount counts s's in-cutoff pairs by an O(N^2) minimum-image scan
// over every pair.
func bruteCount(s *System) int {
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

// TestPairCountBruteForce checks PairCount against bruteCount on a water
// system and on the hand-placed straddlers, whose pairs sit at the cutoff
// give or take a few ulps across cell faces, edges and corners.
func TestPairCountBruteForce(t *testing.T) {
	s := smallSystem(1000)
	if got, want := s.PairCount(), bruteCount(s); got != want {
		t.Fatalf("after NewWater: PairCount = %d, brute force %d", got, want)
	}
	s.Run(5)
	if got, want := s.PairCount(), bruteCount(s); got != want {
		t.Fatalf("after 5 steps: PairCount = %d, brute force %d", got, want)
	}
	in, pairs := 0, 0
	for i, s := range straddlers() {
		got, want := s.PairCount(), bruteCount(s)
		if got != want {
			t.Fatalf("straddler %d (%d atoms, box %v): PairCount = %d, brute force %d", i, s.N, s.Box, got, want)
		}
		if s.N == 2 {
			in += want
			pairs++
		}
	}
	// The placements must land on both sides of the cutoff.
	if in == 0 || in == pairs {
		t.Fatalf("%d of %d straddling pairs in cutoff, want some on each side", in, pairs)
	}
}

// referenceForces evaluates s's forces, potential and pair count with a
// kernel kept as simple as possible: one loop per row over every
// candidate of every cell pair, MinImage per pair below three cells per
// side and the cell pair's image shift above, no row skipping and no
// slot list. Pairs and float additions come in ComputeForces' order.
func referenceForces(s *System) ([]fixp.Vec, float64, int) {
	c := newCellList(s.Box, Cutoff)
	c.build(s.Pos)
	pos, force := s.Pos, make([]fixp.Vec, s.N)
	rc2 := Cutoff * Cutoff
	sr6c := pow6(Sigma * Sigma / rc2)
	shift := 4 * Epsilon * (sr6c*sr6c - sr6c)
	pot, count := 0.0, 0
	for _, cp := range c.pairs {
		img := fixp.Vec{X: s.Box * float64(cp.k[0]), Y: s.Box * float64(cp.k[1]), Z: s.Box * float64(cp.k[2])}
		as := c.atom[c.start[cp.a]:c.start[cp.a+1]]
		bs := c.atom[c.start[cp.b]:c.start[cp.b+1]]
		for slot, i := range as {
			if cp.a == cp.b {
				bs = as[slot+1:]
			}
			pi := pos[i]
			fi := force[i]
			for _, j := range bs {
				var d fixp.Vec
				if c.minImage {
					d = MinImage(pi, pos[j], s.Box)
				} else {
					d = pi.Sub(pos[j]).Sub(img)
				}
				r2 := d.Norm2()
				if r2 >= rc2 || r2 == 0 {
					continue
				}
				count++
				sr2 := Sigma * Sigma / r2
				sr6 := pow6(sr2)
				sr12 := sr6 * sr6
				fmag := 24 * Epsilon * (2*sr12 - sr6) / r2
				f := d.Scale(fmag)
				fi = fi.Add(f)
				force[j] = force[j].Sub(f)
				pot += 4*Epsilon*(sr12-sr6) - shift
			}
			force[i] = fi
		}
	}
	return force, pot, count
}

// matchReference reports the first difference between s's last force
// evaluation and referenceForces, bit for bit, or "" when they agree.
func matchReference(s *System) string {
	force, pot, count := referenceForces(s)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, f := range s.Force {
		if r := force[i]; !same(f.X, r.X) || !same(f.Y, r.Y) || !same(f.Z, r.Z) {
			return fmt.Sprintf("atom %d: force %v, reference %v", i, f, r)
		}
	}
	if !same(s.Potential, pot) {
		return fmt.Sprintf("potential %v, reference %v", s.Potential, pot)
	}
	if s.PairCount() != count {
		return fmt.Sprintf("pair count %d, reference %d", s.PairCount(), count)
	}
	return ""
}

// TestForcesMatchReference holds ComputeForces to referenceForces bit for
// bit at GOMAXPROCS 1, 2 and 4, so on one goroutine and with the helper
// evaluating chunks ahead of the caller: on water after NewWater and
// after each of three steps, on every straddler, and on two placed pairs
// at the edges of the in-cutoff test: two coincident atoms (r2 == 0) and
// two atoms exactly one cutoff apart in neighbouring cells (r2 == rc2).
// At GOMAXPROCS 4 it also repeats the 16000-atom evaluation ten times, so
// that the caller and the helper split the chunks differently, and on a
// multicore host it requires that the helper evaluated some of them.
func TestForcesMatchReference(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			matchReferenceAt(t, procs)
		})
	}
}

func matchReferenceAt(t *testing.T, procs int) {
	for _, n := range []int{512, 1000, 8000, 16000} {
		s := smallSystem(n)
		for step := 0; step <= 3; step++ {
			if step > 0 {
				s.Step()
			}
			if diff := matchReference(s); diff != "" {
				t.Fatalf("%d atoms after %d steps: %s", n, step, diff)
			}
		}
		if n != 16000 || procs != 4 {
			continue
		}
		helped := 0
		for rep := 0; rep < 10; rep++ {
			s.ComputeForces()
			helped += s.cells.ring.helped
			if diff := matchReference(s); diff != "" {
				t.Fatalf("%d atoms, evaluation %d after 3 steps: %s", n, rep, diff)
			}
		}
		if helped == 0 && runtime.NumCPU() > 1 {
			t.Fatalf("the helper evaluated no chunk in 10 evaluations at %d atoms", n)
		}
	}
	for i, s := range straddlers() {
		if diff := matchReference(s); diff != "" {
			t.Fatalf("straddler %d (%d atoms, box %v): %s", i, s.N, s.Box, diff)
		}
	}
	edges := []struct {
		name string
		pos  []fixp.Vec
	}{
		{"coincident", []fixp.Vec{{X: 5, Y: 5, Z: 5}, {X: 5, Y: 5, Z: 5}}},
		{"at cutoff", []fixp.Vec{{X: 1, Y: 1, Z: 1}, {X: 10, Y: 1, Z: 1}}},
	}
	for _, e := range edges {
		s := placedSystem(30, e.pos)
		if diff := matchReference(s); diff != "" {
			t.Fatalf("%s pair: %s", e.name, diff)
		}
		if s.PairCount() != 0 {
			t.Fatalf("%s pair: PairCount = %d, want 0", e.name, s.PairCount())
		}
	}
}

// TestNonFinitePositionPanics checks that a position with no cell stops
// the force evaluation with a message naming the atom: a NaN coordinate
// handed to ComputeForces, and an infinite velocity, which Step wraps to
// a NaN coordinate.
func TestNonFinitePositionPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		atom int
		run  func(s *System, atom int)
	}{
		{"NaN position", 17, func(s *System, atom int) {
			s.Pos[atom].Y = math.NaN()
			s.ComputeForces()
		}},
		{"Inf velocity", 123, func(s *System, atom int) {
			s.Vel[atom].X = math.Inf(1)
			s.Step()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := smallSystem(512)
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("md: atom %d at ", c.atom); !strings.HasPrefix(msg, want) {
					t.Fatalf("panic %q, want a message starting %q", msg, want)
				}
			}()
			c.run(s, c.atom)
		})
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

// TestComputeForcesTwoCoreAllocFree pins warm force evaluations and steps
// at zero heap allocations with the helper goroutine starting in each.
// testing.AllocsPerRun runs at GOMAXPROCS 1, where no helper starts, so
// this test sets GOMAXPROCS to 2 and counts every malloc in the process
// over 20 calls of each (testutil.LeastMallocs), passing when any of five
// windows reads exactly 0. The runtime recycles exited goroutines through
// per-P free lists, which the caller and the helper, trading Ps, can leave
// empty on the caller's side for many calls, so the test fills them first
// (testutil.FillGoroutineCaches) and then warms up with 200 steps.
func TestComputeForcesTwoCoreAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := smallSystem(1000)
	testutil.FillGoroutineCaches()
	s.Run(200)
	for _, c := range []struct {
		name string
		call func()
	}{{"ComputeForces", s.ComputeForces}, {"Step", s.Step}} {
		if least := testutil.LeastMallocs(5, 20, c.call); least != 0 {
			t.Errorf("20 warm %s calls at GOMAXPROCS 2 allocate at least %d times in each of 5 windows, want 0", c.name, least)
		}
	}
}
