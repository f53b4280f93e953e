// Package synth drives the Anton 3 network with the classic synthetic
// traffic patterns of the interconnection-network literature (uniform
// random, bit complement, transpose, tornado, hot-spot, nearest neighbor)
// and measures offered-load vs. latency curves per routing policy — the
// network-only evaluation rig that complements the paper's MD-driven
// figures. Patterns are defined over torus coordinates so they apply to
// any machine shape, including the 512- and 1024-node configurations the
// paper scales to.
package synth

import (
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// Pattern maps an injecting node to a destination for one packet.
// Deterministic patterns ignore rng; randomized ones (uniform, hotspot,
// neighbor) draw from it, so a given rng stream fixes the traffic exactly.
type Pattern struct {
	Name string
	Dest func(s topo.Shape, src topo.Coord, rng *sim.Rand) topo.Coord
}

// Uniform sends each packet to a node drawn uniformly from the others
// (self excluded): the benign, load-spreading baseline.
func Uniform() Pattern {
	return Pattern{Name: "uniform", Dest: func(s topo.Shape, src topo.Coord, rng *sim.Rand) topo.Coord {
		n := s.Nodes()
		if n == 1 {
			return src
		}
		return s.CoordOf((s.Index(src) + 1 + rng.Intn(n-1)) % n)
	}}
}

// BitComplement reflects every coordinate through the torus center
// (c -> size-1-c): all traffic crosses the middle, the classic
// bisection-stressing pattern.
func BitComplement() Pattern {
	return Pattern{Name: "bitcomp", Dest: func(s topo.Shape, src topo.Coord, _ *sim.Rand) topo.Coord {
		return topo.Coord{X: s.X - 1 - src.X, Y: s.Y - 1 - src.Y, Z: s.Z - 1 - src.Z}
	}}
}

// Transpose rotates the coordinates one dimension over (x,y,z) ->
// (y,z,x), rescaling when extents differ — the 3D generalization of
// matrix-transpose traffic, which concentrates load off the diagonal.
func Transpose() Pattern {
	return Pattern{Name: "transpose", Dest: func(s topo.Shape, src topo.Coord, _ *sim.Rand) topo.Coord {
		return topo.Coord{
			X: src.Y * s.X / s.Y,
			Y: src.Z * s.Y / s.Z,
			Z: src.X * s.Z / s.X,
		}
	}}
}

// Tornado sends each packet just under halfway around every ring
// (c -> c + ceil(size/2)-1): the adversarial pattern for dimension-order
// routing on rings, maximizing link reuse in one direction.
func Tornado() Pattern {
	return Pattern{Name: "tornado", Dest: func(s topo.Shape, src topo.Coord, _ *sim.Rand) topo.Coord {
		t := func(c, size int) int { return (c + (size+1)/2 - 1) % size }
		return topo.Coord{X: t(src.X, s.X), Y: t(src.Y, s.Y), Z: t(src.Z, s.Z)}
	}}
}

// HotSpotFraction is the share of hot-spot traffic aimed at the hot node.
const HotSpotFraction = 0.1

// HotSpot sends HotSpotFraction of packets to the torus center node and
// the rest uniformly: the endpoint-congestion pattern.
func HotSpot() Pattern {
	uni := Uniform()
	return Pattern{Name: "hotspot", Dest: func(s topo.Shape, src topo.Coord, rng *sim.Rand) topo.Coord {
		if rng.Float64() < HotSpotFraction {
			return topo.Coord{X: s.X / 2, Y: s.Y / 2, Z: s.Z / 2}
		}
		return uni.Dest(s, src, rng)
	}}
}

// Neighbor sends each packet one hop away in a uniformly random direction:
// the best case for any minimal routing, all traffic local.
func Neighbor() Pattern {
	return Pattern{Name: "neighbor", Dest: func(s topo.Shape, src topo.Coord, rng *sim.Rand) topo.Coord {
		dim := topo.Dim(rng.Intn(3))
		dir := 1
		if rng.Intn(2) == 0 {
			dir = -1
		}
		return s.Neighbor(src, dim, dir)
	}}
}

// Patterns lists every built-in pattern in report order.
func Patterns() []Pattern {
	return []Pattern{Uniform(), BitComplement(), Transpose(), Tornado(), HotSpot(), Neighbor()}
}
