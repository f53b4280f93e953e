// Package route implements the Anton 3 routing policies of Section III-B:
// minimal oblivious torus routing over the six dimension orders, the
// load-adaptive alternatives it is compared against, the e-cube escape
// route, and the four request VCs every policy shares. The machine assigns
// VCs per hop itself (machine/vcq.go).
package route

import (
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// NumRequestVCs is the request-class VC provisioning of Section III-B2.
// The paper's fifth VC carries remote-read responses; no traffic in this
// model reads remote memory, so it is not modeled.
const NumRequestVCs = 4

// PickOrder selects one of the six dimension orders uniformly at random —
// the "routes are randomized independent of network load" policy.
func PickOrder(r *sim.Rand) topo.DimOrder {
	return topo.AllDimOrders[r.Intn(len(topo.AllDimOrders))]
}
