// Package route implements the Anton 3 routing policies of Section III-B:
// minimal oblivious torus routing over the six dimension orders for request
// packets, the XYZ mesh-restricted policy for response packets, and the
// five-VC provisioning those two classes share. The machine assigns VCs per
// hop itself (machine/vcq.go).
package route

import (
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// Virtual channel provisioning (Section III-B2): four request VCs plus a
// single response VC, because responses follow XYZ order and treat the
// torus as a mesh (never using wraparound links), which needs no dateline
// VC switch.
const (
	NumRequestVCs = 4
	ResponseVC    = 4
	NumVCs        = 5
)

// PickOrder selects one of the six dimension orders uniformly at random —
// the "routes are randomized independent of network load" policy.
func PickOrder(r *sim.Rand) topo.DimOrder {
	return topo.AllDimOrders[r.Intn(len(topo.AllDimOrders))]
}

// ResponseRoute returns the hop sequence for a response packet: XYZ
// dimension order, never using wraparound links (the torus is treated as a
// mesh), so the path may be non-minimal. The paper accepts this because
// almost all simulation traffic is architected to be request class.
// It appends into buf, so callers with a reusable buffer allocate nothing.
func ResponseRoute(s topo.Shape, src, dst topo.Coord, buf []topo.Step) []topo.Step {
	cur := src
	for {
		st, ok := ResponseNext(cur, dst)
		if !ok {
			return buf
		}
		buf = append(buf, st)
		cur = cur.With(st.Dim, cur.Get(st.Dim)+st.Dir)
	}
}

// ResponseNext returns the next hop of the response route from cur to dst,
// or ok=false at the destination. Because the mesh-restricted route moves
// monotonically dimension by dimension in XYZ order and never wraps, the
// remainder of the route is derivable from the current position alone —
// which is what lets the machine walk responses hop by hop without storing
// a precomputed step list on the packet.
func ResponseNext(cur, dst topo.Coord) (topo.Step, bool) {
	for _, dim := range topo.OrderXYZ {
		a, b := cur.Get(dim), dst.Get(dim)
		if a == b {
			continue
		}
		dir := 1
		if b < a {
			dir = -1
		}
		return topo.Step{Dim: dim, Dir: dir}, true
	}
	return topo.Step{}, false
}
