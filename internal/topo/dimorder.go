package topo

import "fmt"

// DimOrder is a permutation of the three torus dimensions. Request packets on
// Anton 3 follow a dimension-order route using any of the six possible
// orders, chosen at random per packet independent of load ("minimal,
// oblivious routing").
type DimOrder [3]Dim

// The six dimension orders of Section III-B2.
var (
	OrderXYZ = DimOrder{X, Y, Z}
	OrderXZY = DimOrder{X, Z, Y}
	OrderYXZ = DimOrder{Y, X, Z}
	OrderYZX = DimOrder{Y, Z, X}
	OrderZXY = DimOrder{Z, X, Y}
	OrderZYX = DimOrder{Z, Y, X}
)

// AllDimOrders lists every dimension order; index into it with a value in
// [0,6) to pick one at random.
var AllDimOrders = [6]DimOrder{OrderXYZ, OrderXZY, OrderYXZ, OrderYZX, OrderZXY, OrderZYX}

func (o DimOrder) String() string {
	return fmt.Sprintf("%s%s%s", o[0], o[1], o[2])
}

// Valid reports whether o is a permutation of {X, Y, Z}.
func (o DimOrder) Valid() bool {
	var seen [3]bool
	for _, d := range o {
		if d > Z || seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// Index returns the position of o in AllDimOrders, or -1 if invalid.
func (o DimOrder) Index() int {
	for i, v := range AllDimOrders {
		if v == o {
			return i
		}
	}
	return -1
}

// Step is one inter-node hop of a route.
type Step struct {
	Dim Dim
	Dir int // +1 or -1
}

func (st Step) String() string {
	if st.Dir > 0 {
		return st.Dim.String() + "+"
	}
	return st.Dim.String() + "-"
}

// Route returns the sequence of hops from src to dst in shape s following
// dimension order o, taking the minimal direction around each ring (ties on
// even rings go to +, matching Shape.Delta).
func Route(s Shape, src, dst Coord, o DimOrder) []Step {
	if !o.Valid() {
		panic("topo: invalid dimension order")
	}
	d := s.Delta(src, dst)
	steps := make([]Step, 0, s.HopDist(src, dst))
	for _, dim := range o {
		n := d.Get(dim)
		dir := 1
		if n < 0 {
			dir, n = -1, -n
		}
		for i := 0; i < n; i++ {
			steps = append(steps, Step{Dim: dim, Dir: dir})
		}
	}
	return steps
}

// RouteTie is Route with an explicit direction choice for distance ties:
// in an even ring, a node exactly n/2 away is minimally reachable in either
// direction, and hardware load-balances across both physical links.
// plusOnTie selects the + direction for such ties (Route always picks +).
func RouteTie(s Shape, src, dst Coord, o DimOrder, plusOnTie bool) []Step {
	return AppendRouteTie(make([]Step, 0, s.HopDist(src, dst)), s, src, dst, o, plusOnTie)
}

// AppendRouteTie is RouteTie appending into buf, for callers replaying
// many routes with a reusable buffer.
func AppendRouteTie(buf []Step, s Shape, src, dst Coord, o DimOrder, plusOnTie bool) []Step {
	if !o.Valid() {
		panic("topo: invalid dimension order")
	}
	d := s.Delta(src, dst)
	for _, dim := range o {
		n := d.Get(dim)
		size := s.Get(dim)
		dir := 1
		if n < 0 {
			dir, n = -1, -n
		}
		if !plusOnTie && n > 0 && 2*n == size {
			dir = -dir
		}
		for i := 0; i < n; i++ {
			buf = append(buf, Step{Dim: dim, Dir: dir})
		}
	}
	return buf
}

// LegalNextSteps appends to buf the minimal next hops from cur toward dst:
// for every dimension whose coordinate still differs, the step in the
// minimal direction around that ring. On an even ring exactly halfway
// around, both directions are minimal and both are returned (+ first).
// Results are ordered X, Y, Z, so callers that index or tie-break by
// position get a deterministic choice. The result is empty iff cur == dst.
//
// This is the candidate set an adaptive routing policy chooses from: any
// returned step keeps the route minimal.
func LegalNextSteps(s Shape, cur, dst Coord, buf []Step) []Step {
	d := s.Delta(cur, dst)
	for _, dim := range OrderXYZ {
		n := d.Get(dim)
		if n == 0 {
			continue
		}
		dir := 1
		if n < 0 {
			dir, n = -1, -n
		}
		buf = append(buf, Step{Dim: dim, Dir: dir})
		if 2*n == s.Get(dim) {
			buf = append(buf, Step{Dim: dim, Dir: -dir})
		}
	}
	return buf
}

// RouteNodes returns the node sequence visited by Route, starting with src
// and ending with dst.
func RouteNodes(s Shape, src, dst Coord, o DimOrder) []Coord {
	steps := Route(s, src, dst, o)
	nodes := make([]Coord, 0, len(steps)+1)
	nodes = append(nodes, src)
	cur := src
	for _, st := range steps {
		cur = s.Neighbor(cur, st.Dim, st.Dir)
		nodes = append(nodes, cur)
	}
	return nodes
}
