package md

import (
	"strconv"

	"anton3/internal/fixp"
	"anton3/internal/topo"
)

// Decomposition spatially partitions the box across the machine's nodes:
// each node's home box is a slab product, and an atom is exported (as a
// stream-set atom) to every node whose home box expanded by the cutoff
// contains it — "all nodes on which those atoms might have an interaction"
// (Section II-C). This expanded-box import region guarantees every
// in-cutoff pair is computable on a node holding at least one of the two
// atoms in its home box.
//
// A Decomposition memoizes the multicast plan of every atom class it has
// seen (Plan), so it is not safe for concurrent use: each timestep engine
// builds its own, and so does each replay lane of a traffic replayer (one
// per channel slice, which may run on goroutines of their own).
type Decomposition struct {
	Shape topo.Shape
	Box   float64
	w     [3]float64 // slab width per dimension

	// The plan memo, filled by Plan: the number of plans built, the plan
	// per (home node, tie bit, neighbour-slab mask) slot, and the classes
	// no mask expresses, keyed by their slab lists.
	plans int
	table []*Plan
	wide  map[string]*Plan
}

// NewDecomposition builds the partition. It panics if any slab is thinner
// than the cutoff, which would require beyond-neighbor import regions the
// MD protocol does not use.
func NewDecomposition(shape topo.Shape, box float64) *Decomposition {
	d := &Decomposition{Shape: shape, Box: box}
	for i, n := range []int{shape.X, shape.Y, shape.Z} {
		d.w[i] = box / float64(n)
		if n > 1 && d.w[i] < Cutoff {
			panic("md: home box thinner than cutoff; reduce node count or grow the system")
		}
	}
	return d
}

// HomeNode returns the node owning position p.
func (d *Decomposition) HomeNode(p fixp.Vec) topo.Coord {
	ix := d.slab(p.X, 0, d.Shape.X)
	iy := d.slab(p.Y, 1, d.Shape.Y)
	iz := d.slab(p.Z, 2, d.Shape.Z)
	return topo.Coord{X: ix, Y: iy, Z: iz}
}

func (d *Decomposition) slab(x float64, dim, n int) int {
	i := int(x / d.w[dim])
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// BoxOrigin returns the lower corner of a node's home box: positions are
// exported relative to this corner, which is what keeps their fixed-point
// magnitudes small enough for INZ to bite.
func (d *Decomposition) BoxOrigin(c topo.Coord) fixp.Vec {
	return fixp.Vec{
		X: float64(c.X) * d.w[0],
		Y: float64(c.Y) * d.w[1],
		Z: float64(c.Z) * d.w[2],
	}
}

// RelativeFixed quantizes p relative to the home box of c.
func (d *Decomposition) RelativeFixed(p fixp.Vec, c topo.Coord) fixp.Fixed {
	return fixp.PosToFixed(p.Sub(d.BoxOrigin(c)))
}

// dimTargets returns the slab indices along one dimension whose slabs lie
// within cutoff of coordinate x (periodic).
func (d *Decomposition) dimTargets(x float64, dim, n int, out []int) []int {
	out = out[:0]
	w := d.w[dim]
	for k := 0; k < n; k++ {
		lo, hi := float64(k)*w, float64(k+1)*w
		// Periodic distance from x to [lo, hi).
		dist := 0.0
		if x < lo || x >= hi {
			dl := periodicDist(x, lo, d.Box)
			dh := periodicDist(x, hi, d.Box)
			dist = dl
			if dh < dist {
				dist = dh
			}
		}
		if dist <= Cutoff {
			out = append(out, k)
		}
	}
	return out
}

func periodicDist(a, b, box float64) float64 {
	dd := a - b
	if dd < 0 {
		dd = -dd
	}
	if dd > box/2 {
		dd = box - dd
	}
	return dd
}

// ExportTargets returns every node other than home whose expanded home box
// contains p. The scratch slice is reused across calls when non-nil.
func (d *Decomposition) ExportTargets(p fixp.Vec, home topo.Coord, scratch []topo.Coord) []topo.Coord {
	var bufX, bufY, bufZ [8]int
	xs := d.dimTargets(p.X, 0, d.Shape.X, bufX[:0])
	ys := d.dimTargets(p.Y, 1, d.Shape.Y, bufY[:0])
	zs := d.dimTargets(p.Z, 2, d.Shape.Z, bufZ[:0])
	return exportTargets(xs, ys, zs, home, scratch)
}

// exportTargets lists the nodes of the slab product xs x ys x zs other
// than home, x-major.
func exportTargets(xs, ys, zs []int, home topo.Coord, scratch []topo.Coord) []topo.Coord {
	out := scratch[:0]
	for _, x := range xs {
		for _, y := range ys {
			for _, z := range zs {
				c := topo.Coord{X: x, Y: y, Z: z}
				if c != home {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// Plan is the multicast plan of one atom class. An atom's export targets
// and multicast tree depend only on its home node, the slabs its import
// region reaches per dimension and its ring tie bit, so one plan serves
// every atom of the class on every step.
type Plan struct {
	// ID numbers the plans of one Decomposition densely from 0, in order
	// of first use, so consumers keep per-plan data in slices.
	ID int
	// Targets holds the export targets in ExportTargets order.
	Targets []topo.Coord
	// Edges holds the multicast tree in MulticastEdges order.
	Edges []ChannelEdge
	// Radius is the largest home-to-target hop count, 0 without targets.
	Radius int
}

// Plan returns the plan of the class of an atom at p with home node home
// (which must be HomeNode(p)) and ring tie bit plusOnTie, building it on
// the class's first use. The class key is dimTargets' own output, read
// back as which neighbour slabs of home each dimension reaches, so
// positions with the same home and tie bit share a plan exactly when
// ExportTargets returns the same targets for them. Plan is not safe for
// concurrent use.
func (d *Decomposition) Plan(p fixp.Vec, home topo.Coord, plusOnTie bool) *Plan {
	var bufX, bufY, bufZ [8]int
	xs := d.dimTargets(p.X, 0, d.Shape.X, bufX[:0])
	ys := d.dimTargets(p.Y, 1, d.Shape.Y, bufY[:0])
	zs := d.dimTargets(p.Z, 2, d.Shape.Z, bufZ[:0])
	mx, okX := neighbourMask(xs, home.X, d.Shape.X)
	my, okY := neighbourMask(ys, home.Y, d.Shape.Y)
	mz, okZ := neighbourMask(zs, home.Z, d.Shape.Z)
	if !okX || !okY || !okZ {
		// A slab exactly one cutoff wide lets a boundary atom reach the
		// slab two over; such classes key on their slab lists.
		key := wideKey(d.Shape.Index(home), plusOnTie, xs, ys, zs)
		pl := d.wide[key]
		if pl == nil {
			if d.wide == nil {
				d.wide = make(map[string]*Plan)
			}
			pl = d.newPlan(home, plusOnTie, xs, ys, zs)
			d.wide[key] = pl
		}
		return pl
	}
	slot := d.Shape.Index(home)<<7 | mx | my<<2 | mz<<4
	if plusOnTie {
		slot |= 1 << 6
	}
	if d.table == nil {
		d.table = make([]*Plan, d.Shape.Nodes()<<7)
	}
	pl := d.table[slot]
	if pl == nil {
		pl = d.newPlan(home, plusOnTie, xs, ys, zs)
		d.table[slot] = pl
	}
	return pl
}

// neighbourMask reads one dimension's dimTargets output back relative to
// home slab h of n: bit 0 marks slab h+1, bit 1 slab h-1 (on a 2-slab
// ring the other slab is h+1). ok is set only when the output is h plus
// some of those neighbours, which the mask then expresses exactly.
func neighbourMask(slabs []int, h, n int) (mask int, ok bool) {
	for _, k := range slabs {
		off := k - h
		if off < 0 {
			off += n
		}
		switch off {
		case 0:
			ok = true
		case 1:
			mask |= 1
		case n - 1:
			mask |= 2
		default:
			return 0, false
		}
	}
	return mask, ok
}

// wideKey spells a class out as its home index, tie bit and slab lists.
func wideKey(home int, plusOnTie bool, xs, ys, zs []int) string {
	b := strconv.AppendBool(strconv.AppendInt(nil, int64(home), 10), plusOnTie)
	for _, slabs := range [][]int{xs, ys, zs} {
		b = append(b, '/')
		for _, k := range slabs {
			b = strconv.AppendInt(append(b, ' '), int64(k), 10)
		}
	}
	return string(b)
}

func (d *Decomposition) newPlan(home topo.Coord, plusOnTie bool, xs, ys, zs []int) *Plan {
	pl := &Plan{ID: d.plans, Targets: exportTargets(xs, ys, zs, home, nil)}
	pl.Edges = MulticastEdges(d.Shape, home, pl.Targets, plusOnTie, nil)
	for _, t := range pl.Targets {
		pl.Radius = max(pl.Radius, d.Shape.HopDist(home, t))
	}
	d.plans++
	return pl
}

// Assign buckets atom indices by home node (indexed by Shape.Index).
func (d *Decomposition) Assign(pos []fixp.Vec) [][]int32 {
	buckets := make([][]int32, d.Shape.Nodes())
	for i, p := range pos {
		n := d.Shape.Index(d.HomeNode(p))
		buckets[n] = append(buckets[n], int32(i))
	}
	return buckets
}

// ChannelEdge is one channel crossing of a multicast tree: the packet
// leaves From along Step.
type ChannelEdge struct {
	From topo.Coord
	Step topo.Step
}

// MulticastEdges returns the deduplicated channel crossings of the
// stream-set multicast from home to targets: the union of XYZ
// dimension-order paths, matching the in-network multicast tree hardware
// (footnote 3 of the paper). The same atom therefore crosses the same
// channels every step, which is what makes the per-channel particle caches
// effective.
func MulticastEdges(shape topo.Shape, home topo.Coord, targets []topo.Coord, plusOnTie bool, scratch []ChannelEdge) []ChannelEdge {
	out := scratch[:0]
	have := func(e ChannelEdge) bool {
		for _, x := range out {
			if x == e {
				return true
			}
		}
		return false
	}
	var pathBuf [24]topo.Step
	for _, t := range targets {
		cur := home
		for _, st := range topo.AppendRouteTie(pathBuf[:0], shape, home, t, topo.OrderXYZ, plusOnTie) {
			e := ChannelEdge{From: cur, Step: st}
			if !have(e) {
				out = append(out, e)
			}
			cur = shape.Neighbor(cur, st.Dim, st.Dir)
		}
	}
	return out
}

// DistributedForces computes per-atom forces the way the parallel machine
// does — each node evaluates pairs between its home atoms and its local
// set (home + imports), accumulating force only onto home atoms — and
// returns them in golden-model order. Tests compare this against
// ComputeForces to validate the decomposition and import regions.
func DistributedForces(s *System, d *Decomposition) []fixp.Vec {
	buckets := d.Assign(s.Pos)
	forces := make([]fixp.Vec, s.N)
	rc2 := Cutoff * Cutoff

	// Home node index of every atom, and import lists per node.
	homeIdx := make([]int32, s.N)
	imports := make([][]int32, d.Shape.Nodes())
	var scratch []topo.Coord
	for i, p := range s.Pos {
		home := d.HomeNode(p)
		homeIdx[i] = int32(d.Shape.Index(home))
		scratch = d.ExportTargets(p, home, scratch)
		for _, t := range scratch {
			n := d.Shape.Index(t)
			imports[n] = append(imports[n], int32(i))
		}
	}

	for n := 0; n < d.Shape.Nodes(); n++ {
		home := buckets[n]
		local := make([]int32, 0, len(home)+len(imports[n]))
		local = append(local, home...)
		local = append(local, imports[n]...)
		for _, i := range home {
			for _, j := range local {
				if i == j {
					continue
				}
				jHome := homeIdx[j] == int32(n)
				// Each pair computes exactly once machine-wide: intra-node
				// pairs halve by atom index; cross-node pairs compute on
				// the lower-indexed home node (both homes import the
				// other atom, so either could).
				if jHome && j < i {
					continue
				}
				if !jHome && int32(n) > homeIdx[j] {
					continue
				}
				dd := MinImage(s.Pos[i], s.Pos[j], s.Box)
				r2 := dd.Norm2()
				if r2 >= rc2 || r2 == 0 {
					continue
				}
				sr2 := Sigma * Sigma / r2
				sr6 := pow6(sr2)
				fmag := 24 * Epsilon * (2*sr6*sr6 - sr6) / r2
				f := dd.Scale(fmag)
				// Force on the home atom accumulates locally (stored-set
				// force); the reaction returns to j's GC as a stream-set
				// force, possibly off-chip.
				forces[i] = forces[i].Add(f)
				forces[j] = forces[j].Sub(f)
			}
		}
	}
	return forces
}
