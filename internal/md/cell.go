package md

import (
	"fmt"
	"math"

	"anton3/internal/fixp"
)

// cellList is a standard cell neighbor structure: the box is divided into
// cells no smaller than the cutoff, so all interacting pairs lie in the
// same or adjacent cells (with periodic wraparound). Atoms are counting
// sorted into a CSR index, and the cell-pair scan list is precomputed once
// with the half-shell convention, so each pair of cells is visited exactly
// once per force evaluation.
type cellList struct {
	box      float64
	perSide  int
	cellSize float64
	// minImage is set below three cells per side. There one cell pair
	// holds atoms whose nearest images differ, so every candidate pair
	// takes MinImage instead of its cell pair's image shift.
	minImage bool
	start    []int32 // cell c holds atom[start[c]:start[c+1]]
	atom     []int32 // atom index per slot, descending within a cell
	// lo and hi bound each cell's atom positions per axis; an empty cell
	// has lo +Inf and hi -Inf.
	lo, hi []fixp.Vec
	pairs  []cellPair
	// scratch is pairForce's scratch on the caller of ComputeForces; ring
	// is what the caller shares with its helper goroutine, whose scratch
	// is ring.scratch.
	scratch pairScratch
	ring    forceRing
}

// cellPair is one half-shell scan entry: cells a and b (a == b for the
// self pair), and b's periodic wrap seen from a. The image of an atom of b
// next to cell a sits at its position plus box*k, so k in {-1, 0, +1} per
// axis.
type cellPair struct {
	a, b int32
	k    [3]int8
}

// image returns the shift box*k that moves an atom of b next to cell a.
func (cp cellPair) image(box float64) fixp.Vec {
	return fixp.Vec{X: box * float64(cp.k[0]), Y: box * float64(cp.k[1]), Z: box * float64(cp.k[2])}
}

func newCellList(box, cutoff float64) *cellList {
	perSide := int(box / cutoff)
	if perSide < 1 {
		perSide = 1
	}
	cells := perSide * perSide * perSide
	c := &cellList{
		box:      box,
		perSide:  perSide,
		cellSize: box / float64(perSide),
		minImage: perSide < 3,
		start:    make([]int32, cells+1),
		lo:       make([]fixp.Vec, cells),
		hi:       make([]fixp.Vec, cells),
	}
	c.buildPairs()
	return c
}

func (c *cellList) buildPairs() {
	n := c.perSide
	// Half shell: 13 of the 26 neighbor offsets; the self pair is (a,a).
	offsets := [][3]int{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
		{1, 1, 0}, {1, -1, 0}, {1, 0, 1}, {1, 0, -1},
		{0, 1, 1}, {0, 1, -1},
		{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {1, -1, -1},
	}
	// wrapped folds u into [0, n) and returns the number of boxes it moved.
	wrapped := func(u int) (int, int8) {
		switch {
		case u < 0:
			return u + n, -1
		case u >= n:
			return u - n, 1
		}
		return u, 0
	}
	idx := func(x, y, z int) int32 { return int32(x + n*(y+n*z)) }
	seen := make(map[[2]int32]bool)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				a := idx(x, y, z)
				c.pairs = append(c.pairs, cellPair{a: a, b: a})
				for _, o := range offsets {
					bx, kx := wrapped(x + o[0])
					by, ky := wrapped(y + o[1])
					bz, kz := wrapped(z + o[2])
					b := idx(bx, by, bz)
					if a == b {
						continue // tiny boxes: offset wraps onto self
					}
					lo, hi := a, b
					if lo > hi {
						lo, hi = hi, lo
					}
					if seen[[2]int32{lo, hi}] {
						continue // tiny boxes: two offsets, one cell
					}
					seen[[2]int32{lo, hi}] = true
					c.pairs = append(c.pairs, cellPair{a: a, b: b, k: [3]int8{kx, ky, kz}})
				}
			}
		}
	}
}

func (c *cellList) cellOf(p fixp.Vec) int {
	ix := int(p.X / c.cellSize)
	iy := int(p.Y / c.cellSize)
	iz := int(p.Z / c.cellSize)
	// Guard the upper boundary: a coordinate just below Box can divide
	// to perSide.
	if ix >= c.perSide {
		ix = c.perSide - 1
	}
	if iy >= c.perSide {
		iy = c.perSide - 1
	}
	if iz >= c.perSide {
		iz = c.perSide - 1
	}
	return ix + c.perSide*(iy+c.perSide*iz)
}

// build (re)assigns all atoms to cells with a counting sort and bounds
// each cell's positions. Filling each cell from its end while walking
// atoms upward leaves every cell in descending atom order. It panics,
// naming the atom, when a coordinate lies outside [0, box): a NaN or an
// infinite position has no cell.
func (c *cellList) build(pos []fixp.Vec) {
	if len(c.atom) < len(pos) {
		c.atom = make([]int32, len(pos))
	}
	cells := len(c.start) - 1
	clear(c.start)
	for i, p := range pos {
		if !(p.X >= 0 && p.X < c.box && p.Y >= 0 && p.Y < c.box && p.Z >= 0 && p.Z < c.box) {
			panic(fmt.Sprintf("md: atom %d at (%g, %g, %g) lies outside the box [0, %g)", i, p.X, p.Y, p.Z, c.box))
		}
		c.start[c.cellOf(p)]++
	}
	largest := c.start[0]
	for i := 1; i < cells; i++ {
		largest = max(largest, c.start[i])
		c.start[i] += c.start[i-1]
	}
	// Atoms drift between cells step to step; the headroom keeps warm
	// builds from reallocating.
	if n := int(largest); n > len(c.scratch.hits) {
		n += n/4 + 8
		for _, sc := range []*pairScratch{&c.scratch, &c.ring.scratch} {
			sc.hits = make([]int32, n)
			sc.bpos = make([]fixp.Vec, n)
		}
	}
	inf := math.Inf(1)
	for i := range c.lo {
		c.lo[i] = fixp.Vec{X: inf, Y: inf, Z: inf}
		c.hi[i] = fixp.Vec{X: -inf, Y: -inf, Z: -inf}
	}
	// start[cell] is now one past the cell's last slot.
	for i, p := range pos {
		cell := c.cellOf(p)
		c.start[cell]--
		c.atom[c.start[cell]] = int32(i)
		lo, hi := &c.lo[cell], &c.hi[cell]
		lo.X, lo.Y, lo.Z = min(lo.X, p.X), min(lo.Y, p.Y), min(lo.Z, p.Z)
		hi.X, hi.Y, hi.Z = max(hi.X, p.X), max(hi.Y, p.Y), max(hi.Z, p.Z)
	}
	c.start[cells] = int32(len(pos))
}
