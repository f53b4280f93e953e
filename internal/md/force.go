package md

import "anton3/internal/fixp"

// ComputeForces evaluates the range-limited pairwise forces (truncated,
// shifted Lennard-Jones) into s.Force and s.Potential, and counts the
// in-cutoff pairs for PairCount. This is the computation the PPIMs perform
// in hardware; the golden model here both drives the traffic generators
// and validates the parallel decomposition.
func (s *System) ComputeForces() {
	c := s.cells
	c.build(s.Pos)
	clear(s.Force)
	s.Potential = 0
	s.pairCount = 0

	rc2 := Cutoff * Cutoff
	// Energy shift so U(rc) = 0 (keeps NVE drift small with truncation).
	sr6c := pow6(Sigma * Sigma / rc2)
	shift := 4 * Epsilon * (sr6c*sr6c - sr6c)

	for _, cp := range c.pairs {
		if c.minImage {
			s.minImagePairForce(cp, rc2, shift)
		} else {
			s.pairForce(cp, rc2, shift)
		}
	}
}

func pow6(x float64) float64 { return x * x * x }

// lj returns the force on atom i from atom j, at displacement d = pi - pj
// with r2 = |d|^2 inside the cutoff, and the pair's shifted energy.
func lj(d fixp.Vec, r2, shift float64) (fixp.Vec, float64) {
	sr2 := Sigma * Sigma / r2
	sr6 := pow6(sr2)
	sr12 := sr6 * sr6
	// F = 24 eps (2 sr12 - sr6) / r^2 * d
	fmag := 24 * Epsilon * (2*sr12 - sr6) / r2
	return d.Scale(fmag), 4*Epsilon*(sr12-sr6) - shift
}

// pruneMargin is how far past rc2 a row's distance bound must lie before
// pairForce skips the row. It dwarfs the rounding of the bound and of r2,
// which is of order 1e-11 A^2 for coordinates under a few hundred A.
const pruneMargin = 1e-6

// pairForce accumulates the interactions of every atom pair in one cell
// pair into s.Force, s.Potential and s.pairCount, from three cells per
// side up. Pairs are visited in slot order, and the running potential
// carries over from the previous cell pair, so the float additions happen
// in one fixed order.
//
// There a cell is no smaller than the cutoff, two atoms of a cell pair
// are under two cells apart per axis in the cell pair's image, and any
// other image lies at least box - 2 cells >= cutoff away. So whenever a
// pair is within the cutoff, MinImage would pick the cell pair's image,
// and subtracting box*k (exact for k in {-1, 0, +1}) gives the same
// displacement bit for bit.
//
// A row (atom i of cell a against the atoms of a different cell b) is
// skipped when the squared distance from i to b's bounding box, shifted by
// the image, exceeds rc2 by pruneMargin. Every atom of b lies in that box,
// so each skipped candidate's r2, computed as below, is at least rc2 and
// would have been rejected: the pairs accumulated, their order and every
// bit of the result are unchanged. The self cell pair never skips.
//
// Every other row takes two passes over a copy of b's positions, gathered
// once per cell pair. inCutoff lists the slots within the cutoff, and the
// force pass walks that list in order, recomputing each displacement with
// the same operations, so the rows' pairs and float additions are those
// of a single loop that rejects the other candidates.
func (s *System) pairForce(cp cellPair, rc2, shift float64) {
	c := s.cells
	pos, force := s.Pos, s.Force
	box := s.Box
	img := fixp.Vec{X: box * float64(cp.k[0]), Y: box * float64(cp.k[1]), Z: box * float64(cp.k[2])}
	self := cp.a == cp.b
	as := c.atom[c.start[cp.a]:c.start[cp.a+1]]
	bs := c.atom[c.start[cp.b]:c.start[cp.b+1]]
	bpos := c.bpos[:len(bs)]
	for k, j := range bs {
		bpos[k] = pos[j]
	}
	lo, hi := c.lo[cp.b].Add(img), c.hi[cp.b].Add(img)
	lim := rc2 + pruneMargin
	pot, count := s.Potential, 0
	for slot, i := range as {
		pi := pos[i]
		js, jpos := bs, bpos
		if self {
			js, jpos = bs[slot+1:], bpos[slot+1:]
		} else {
			gx := max(lo.X-pi.X, pi.X-hi.X, 0)
			gy := max(lo.Y-pi.Y, pi.Y-hi.Y, 0)
			gz := max(lo.Z-pi.Z, pi.Z-hi.Z, 0)
			if gx*gx+gy*gy+gz*gz > lim {
				continue
			}
		}
		n := inCutoff(c.hits, jpos, pi, img, rc2)
		count += n
		fi := force[i]
		for _, k := range c.hits[:n] {
			d := pi.Sub(jpos[k]).Sub(img)
			f, e := lj(d, d.Norm2(), shift)
			fi = fi.Add(f)
			j := js[k]
			force[j] = force[j].Sub(f)
			pot += e
		}
		force[i] = fi
	}
	s.Potential = pot
	s.pairCount += count
}

// inCutoff writes to hits, in order, every slot k of bpos whose pair
// displacement d = (pi - bpos[k]) - img has r2 = |d|^2 in the cutoff and
// nonzero, !(r2 >= rc2) && r2 != 0: the exact complement of the reject
// test. It returns their count; hits must be no shorter than bpos.
//
// Most candidates end here, so the scan is a leaf with a branch-free
// count. Sharing the loop with a call (MinImage) or with the force
// arithmetic and its stores makes the register allocator spill the loop
// state on every candidate, hence go:noinline; -gcflags=-S shows no stack
// access in this loop.
//
//go:noinline
func inCutoff(hits []int32, bpos []fixp.Vec, pi, img fixp.Vec, rc2 float64) int {
	n := 0
	for k, pj := range bpos {
		r2 := pi.Sub(pj).Sub(img).Norm2()
		hits[n] = int32(k)
		// Two ifs compile to SETcc; one && would compile to jumps.
		in, nonzero := 0, 0
		if !(r2 >= rc2) {
			in = 1
		}
		if r2 != 0 {
			nonzero = 1
		}
		n += in & nonzero
	}
	return n
}

// minImagePairForce is pairForce below three cells per side, where the
// atoms of one cell pair can have different nearest images: it takes
// MinImage per candidate pair, in one loop, and skips no row.
func (s *System) minImagePairForce(cp cellPair, rc2, shift float64) {
	c := s.cells
	pos, force := s.Pos, s.Force
	as := c.atom[c.start[cp.a]:c.start[cp.a+1]]
	bs := c.atom[c.start[cp.b]:c.start[cp.b+1]]
	pot, count := s.Potential, 0
	for slot, i := range as {
		if cp.a == cp.b {
			bs = as[slot+1:]
		}
		pi := pos[i]
		fi := force[i]
		for _, j := range bs {
			d := MinImage(pi, pos[j], s.Box)
			r2 := d.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			count++
			f, e := lj(d, r2, shift)
			fi = fi.Add(f)
			force[j] = force[j].Sub(f)
			pot += e
		}
		force[i] = fi
	}
	s.Potential = pot
	s.pairCount += count
}

// PairCount returns the number of in-cutoff pairs counted by the last
// force evaluation, the quantity that sizes PPIM work in the timestep
// model. Only NewWater and Step move atoms, and both end in
// ComputeForces, so the count always matches the current positions.
func (s *System) PairCount() int { return s.pairCount }
