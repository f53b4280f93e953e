package md

import (
	"runtime"
	"sync/atomic"

	"anton3/internal/cores"
	"anton3/internal/fixp"
)

// ComputeForces evaluates the range-limited pairwise forces (truncated,
// shifted Lennard-Jones) into s.Force and s.Potential, and counts the
// in-cutoff pairs for PairCount. This is the computation the PPIMs perform
// in hardware; the golden model here both drives the traffic generators
// and validates the parallel decomposition.
//
// From three cells per side up, the cell pairs are cut into chunks of
// chunkPairs consecutive entries, and the caller walks the chunks in
// order. It evaluates and accumulates every chunk the helper did not
// claim in one pass. When the process's core budget has a core free (see
// package cores: outside runner.Run, whenever GOMAXPROCS is above 1), a
// helper goroutine on a cores.Lane, started here and joined before
// returning by a blocking wait, claims chunks ahead of the caller and
// evaluates them into records (see forceRing and help); the caller
// accumulates each such chunk at its turn with the same operations (see
// replay). Pairs and float additions thus come in one fixed order,
// whoever evaluated which chunk. The MinImage path runs on the caller
// alone.
func (s *System) ComputeForces() {
	c := s.cells
	c.build(s.Pos)
	clear(s.Force)
	s.Potential = 0
	last := s.pairCount
	s.pairCount = 0

	rc2 := Cutoff * Cutoff
	// Energy shift so U(rc) = 0 (keeps NVE drift small with truncation).
	sr6c := pow6(Sigma * Sigma / rc2)
	shift := 4 * Epsilon * (sr6c*sr6c - sr6c)

	if c.minImage {
		for _, cp := range c.pairs {
			s.minImagePairForce(cp, rc2, shift)
		}
		return
	}
	r := &c.ring
	chunks := int32((len(c.pairs) + chunkPairs - 1) / chunkPairs)
	r.decided.Store(0)
	r.helped = 0
	helper := chunks > 1 && r.start(s, chunks, last, rc2, shift)
	for k := int32(0); k < chunks; k++ {
		p, end := int(k)*chunkPairs, min(int(k+1)*chunkPairs, len(c.pairs))
		if ch := &r.slots[k%ringChunks]; !r.decided.CompareAndSwap(k, k+1) && ch.claim.Load() == k+1 {
			for ch.done.Load() != k+1 {
				runtime.Gosched()
			}
			s.replay(&ch.forceChunk)
			p += ch.pairs
			r.helped++
		}
		for ; p < end; p++ {
			s.pairForce(p, &c.scratch, nil, rc2, shift)
		}
		r.accumulated.Store(k + 1)
	}
	if helper {
		r.lane.Wait()
	}
}

func pow6(x float64) float64 { return x * x * x }

// lj returns the force magnitude over distance and the shifted energy of
// a pair at squared distance r2 inside the cutoff: the force on atom i
// from atom j at displacement d = pi - pj is d.Scale(fmag).
func lj(r2, shift float64) (fmag, e float64) {
	sr2 := Sigma * Sigma / r2
	sr6 := pow6(sr2)
	sr12 := sr6 * sr6
	// F = 24 eps (2 sr12 - sr6) / r^2 * d
	return 24 * Epsilon * (2*sr12 - sr6) / r2, 4*Epsilon*(sr12-sr6) - shift
}

// pruneMargin is how far past rc2 a row's distance bound must lie before
// pairForce skips the row. It dwarfs the rounding of the bound and of r2,
// which is of order 1e-11 A^2 for coordinates under a few hundred A.
const pruneMargin = 1e-6

// pairScratch is one goroutine's scratch for pairForce: a row's in-cutoff
// slot list and a copy of cell b's positions, gathered once per cell
// pair. cellList.build keeps both no shorter than the largest cell.
type pairScratch struct {
	hits []int32
	bpos []fixp.Vec
}

// pairForce evaluates the interactions of every atom pair in cell pair p,
// from three cells per side up. With out nil it accumulates them into
// s.Force, s.Potential and s.pairCount; pairs are visited in slot order,
// and the running potential carries over from the previous cell pair, so
// the float additions happen in one fixed order. Otherwise it appends the
// cell pair's records to out, writes nothing else, and reports false,
// with out as it found it, when they do not fit.
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
// Every other row takes two passes over sc's copy of b's positions.
// inCutoff lists the slots within the cutoff, and the force pass walks
// that list in order, recomputing each displacement with the same
// operations, so the rows' pairs and float additions are those of a
// single loop that rejects the other candidates.
func (s *System) pairForce(p int, sc *pairScratch, out *forceChunk, rc2, shift float64) bool {
	c := s.cells
	cp := c.pairs[p]
	pos, force := s.Pos, s.Force
	img := cp.image(s.Box)
	self := cp.a == cp.b
	as := c.atom[c.start[cp.a]:c.start[cp.a+1]]
	bs := c.atom[c.start[cp.b]:c.start[cp.b+1]]
	bpos := sc.bpos[:len(bs)]
	for k, j := range bs {
		bpos[k] = pos[j]
	}
	lo, hi := c.lo[cp.b].Add(img), c.hi[cp.b].Add(img)
	lim := rc2 + pruneMargin
	var pot float64
	var rows0, hits0 int
	if out == nil {
		pot = s.Potential
	} else {
		rows0, hits0 = len(out.rows), out.nhit
	}
	count := 0
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
		n := inCutoff(sc.hits, jpos, pi, img, rc2)
		if out != nil {
			if n == 0 {
				continue
			}
			h := out.nhit
			if len(out.rows) == cap(out.rows) || h+n > len(out.j) {
				out.rows, out.nhit = out.rows[:rows0], hits0
				return false
			}
			out.rows = append(out.rows, forceRow{i: i, n: int32(n), p: int32(p)})
			for _, k := range sc.hits[:n] {
				d := pi.Sub(jpos[k]).Sub(img)
				out.j[h] = js[k]
				out.fmag[h], out.e[h] = lj(d.Norm2(), shift)
				h++
			}
			out.nhit = h
			continue
		}
		count += n
		fi := force[i]
		for _, k := range sc.hits[:n] {
			d := pi.Sub(jpos[k]).Sub(img)
			fmag, e := lj(d.Norm2(), shift)
			f := d.Scale(fmag)
			fi = fi.Add(f)
			j := js[k]
			force[j] = force[j].Sub(f)
			pot += e
		}
		force[i] = fi
	}
	if out == nil {
		s.Potential = pot
		s.pairCount += count
	}
	return true
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
			fmag, e := lj(r2, shift)
			f := d.Scale(fmag)
			fi = fi.Add(f)
			force[j] = force[j].Sub(f)
			pot += e
		}
		force[i] = fi
	}
	s.Potential = pot
	s.pairCount += count
}

const (
	// chunkPairs is how many consecutive cell pairs make one chunk, the
	// unit the helper claims.
	chunkPairs = 8
	// ringChunks is the width of the window of chunks in flight, from the
	// one the caller is on: one record slot per chunk.
	ringChunks = 4
)

// forceRing is the state the caller of ComputeForces shares with its
// helper. Every chunk below decided has its owner. The caller takes the
// chunk at its turn k when decided is still k, by a compare-and-swap to
// k+1. The helper claims only the far end of the window, chunk
// accumulated + ringChunks - 1, by a compare-and-swap of decided past it:
// the chunks it jumps over are the caller's, and the caller can work
// through them while the helper evaluates ahead. The helper marks its
// chunk's slot (claim) before the swap and clears the mark if the swap
// fails, so when the caller finds decided past its turn, the slot says
// who owns the chunk. A chunk's slot is free once the chunk ringChunks
// before it is accumulated, which the window guarantees.
type forceRing struct {
	decided atomic.Int32
	_       [60]byte // keep the two goroutines' counters on separate lines
	// accumulated counts the chunks the caller has finished.
	accumulated atomic.Int32
	_           [60]byte
	// help is the helper's loop, bound to its System once, so that
	// starting it allocates nothing; lane runs it on a free core.
	help       func()
	lane       cores.Lane
	chunks     int32
	rc2, shift float64
	// scratch is the helper's pairScratch; the caller uses cellList's.
	scratch pairScratch
	slots   [ringChunks]struct {
		// claim and done are the index + 1 of the chunk the helper
		// claimed in this slot, and of the one whose records are
		// complete. The caller polls them, so they have a line of their
		// own.
		claim, done atomic.Int32
		_           [56]byte
		forceChunk
	}
	// helped counts the chunks of the last evaluation that the helper
	// evaluated, in full or in part.
	helped int
}

// forceChunk holds the records of one chunk the helper evaluated: per row
// with hits, the atom, its hit count and its cell pair; per hit, atom j,
// the force magnitude over distance and the pair energy. They cover the
// chunk's first pairs cell pairs, all of it unless the records ran out of
// room; the caller evaluates the rest.
type forceChunk struct {
	pairs int
	rows  []forceRow
	nhit  int // j[:nhit], fmag[:nhit] and e[:nhit] are in use
	j     []int32
	fmag  []float64
	e     []float64
	_     [64]byte
}

type forceRow struct{ i, n, p int32 }

// start readies the ring for one evaluation and starts the helper if a
// core is free, reporting whether it did. Each slot holds the records of
// a chunk's rows, of which there are at most chunkPairs times the largest
// cell, and twice the last evaluation's mean pair count per chunk in
// hits; warm evaluations reuse them.
func (r *forceRing) start(s *System, chunks int32, lastPairs int, rc2, shift float64) bool {
	if r.help == nil {
		r.help = s.help
	}
	r.chunks, r.rc2, r.shift = chunks, rc2, shift
	r.accumulated.Store(0)
	rows, hits := chunkPairs*len(s.cells.scratch.hits), 2*lastPairs/int(chunks)+64
	for i := range r.slots {
		ch := &r.slots[i]
		ch.claim.Store(0)
		ch.done.Store(0)
		if cap(ch.rows) < rows {
			ch.rows = make([]forceRow, 0, rows)
		}
		if len(ch.j) < hits {
			n := hits + hits/4
			ch.j, ch.fmag, ch.e = make([]int32, n), make([]float64, n), make([]float64, n)
		}
	}
	return r.lane.Start(r.help)
}

// help is the helper goroutine's loop. Whenever the far end of the window
// is undecided, it claims that chunk, evaluates it into the chunk's slot
// with pairForce, and publishes it; it exits once every chunk is decided.
func (s *System) help() {
	c := s.cells
	r := &c.ring
	for {
		d := r.decided.Load()
		if d >= r.chunks {
			break
		}
		k := min(r.accumulated.Load()+ringChunks-1, r.chunks-1)
		if k < d {
			runtime.Gosched()
			continue
		}
		ch := &r.slots[k%ringChunks]
		ch.claim.Store(k + 1)
		if !r.decided.CompareAndSwap(d, k+1) {
			ch.claim.Store(0)
			continue
		}
		ch.rows, ch.nhit = ch.rows[:0], 0
		p, end := int(k)*chunkPairs, min(int(k+1)*chunkPairs, len(c.pairs))
		for p < end && s.pairForce(p, &r.scratch, &ch.forceChunk, r.rc2, r.shift) {
			p++
		}
		ch.pairs = p - int(k)*chunkPairs
		ch.done.Store(k + 1)
	}
}

// replay accumulates the records of a chunk the helper evaluated, in
// order, with the operations pairForce uses in place: it recomputes each
// displacement from the positions and the row's image and scales it by
// the recorded magnitude, so s.Force, s.Potential and s.pairCount come out
// as if the caller had evaluated the chunk.
func (s *System) replay(ch *forceChunk) {
	c := s.cells
	pos, force := s.Pos, s.Force
	pot, h := s.Potential, 0
	for _, r := range ch.rows {
		img := c.pairs[r.p].image(s.Box)
		pi := pos[r.i]
		fi := force[r.i]
		for _, j := range ch.j[h : h+int(r.n)] {
			d := pi.Sub(pos[j]).Sub(img)
			f := d.Scale(ch.fmag[h])
			fi = fi.Add(f)
			force[j] = force[j].Sub(f)
			pot += ch.e[h]
			h++
		}
		force[r.i] = fi
		s.pairCount += int(r.n)
	}
	s.Potential = pot
}

// PairCount returns the number of in-cutoff pairs counted by the last
// force evaluation, the quantity that sizes PPIM work in the timestep
// model. Only NewWater and Step move atoms, and both end in
// ComputeForces, so the count always matches the current positions.
func (s *System) PairCount() int { return s.pairCount }
