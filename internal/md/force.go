package md

import "anton3/internal/fixp"

// ComputeForces evaluates the range-limited pairwise forces (truncated,
// shifted Lennard-Jones) into s.Force and s.Potential, and counts the
// in-cutoff pairs for PairCount. This is the computation the PPIMs perform
// in hardware; the golden model here both drives the traffic generators
// and validates the parallel decomposition.
func (s *System) ComputeForces() {
	s.cells.build(s.Pos)
	clear(s.Force)
	s.Potential = 0
	s.pairCount = 0

	rc2 := Cutoff * Cutoff
	// Energy shift so U(rc) = 0 (keeps NVE drift small with truncation).
	sr6c := pow6(Sigma * Sigma / rc2)
	shift := 4 * Epsilon * (sr6c*sr6c - sr6c)

	for _, cp := range s.cells.pairs {
		s.pairForce(cp, rc2, shift)
	}
}

func pow6(x float64) float64 { return x * x * x }

// pairForce accumulates the interactions of every atom pair in one cell
// pair into s.Force, s.Potential and s.pairCount. Pairs are visited in
// slot order, and the running potential carries over from the previous
// cell pair, so the float additions happen in one fixed order.
//
// From three cells per side up, a cell is no smaller than the cutoff, two
// atoms of a cell pair are under two cells apart per axis in the cell
// pair's image, and any other image lies at least box - 2 cells >= cutoff
// away. So whenever a pair is within the cutoff, MinImage would pick the
// cell pair's image, and subtracting box*k (exact for k in {-1, 0, +1})
// gives the same displacement bit for bit. Smaller boxes take MinImage
// per pair.
func (s *System) pairForce(cp cellPair, rc2, shift float64) {
	c := s.cells
	pos, force := s.Pos, s.Force
	box := s.Box
	img := fixp.Vec{X: box * float64(cp.k[0]), Y: box * float64(cp.k[1]), Z: box * float64(cp.k[2])}
	as := c.atom[c.start[cp.a]:c.start[cp.a+1]]
	bs := c.atom[c.start[cp.b]:c.start[cp.b+1]]
	pot, count := s.Potential, 0
	for slot, i := range as {
		if cp.a == cp.b {
			bs = as[slot+1:]
		}
		pi, fi := pos[i], force[i]
		for _, j := range bs {
			var d fixp.Vec
			if c.minImage {
				d = MinImage(pi, pos[j], box)
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
			// F = 24 eps (2 sr12 - sr6) / r^2 * d
			fmag := 24 * Epsilon * (2*sr12 - sr6) / r2
			f := d.Scale(fmag)
			fi = fi.Add(f)
			force[j] = force[j].Sub(f)
			pot += 4*Epsilon*(sr12-sr6) - shift
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
