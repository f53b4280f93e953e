package route

import (
	"fmt"

	"anton3/internal/sim"
	"anton3/internal/topo"
)

// LoadView exposes a congestion signal to adaptive policies: the load on
// the outbound link along (dim, dir) from the node where the routing
// decision is being made. Larger means busier; the unit is up to the
// caller (the machine model reports serialization backlog in picoseconds).
// A nil view means "no load information" and adaptive policies fall back
// to a fixed preference order.
//
// LoadView is an interface rather than a func type so hot paths can hand a
// long-lived view object (the machine keeps one per node and slice, backed
// by its dense channel table) to every decision without allocating a
// per-decision closure.
type LoadView interface {
	Load(dim topo.Dim, dir int) int64
}

// LoadFunc adapts an ad-hoc function to a LoadView (tests, one-off views).
type LoadFunc func(dim topo.Dim, dir int) int64

// Load implements LoadView.
func (f LoadFunc) Load(dim topo.Dim, dir int) int64 { return f(dim, dir) }

// HealthView exposes link health to fault-aware routing: whether the
// outbound link along (dim, dir) from the node where the decision is being
// made is dead. It parallels LoadView (a long-lived per-node object, no
// per-decision allocation) and a nil view means "all links healthy".
// Degraded-but-alive links are deliberately not surfaced here — adaptive
// policies see them through the load signal instead.
type HealthView interface {
	Dead(dim topo.Dim, dir int) bool
}

// HealthFunc adapts an ad-hoc function to a HealthView (tests).
type HealthFunc func(dim topo.Dim, dir int) bool

// Dead implements HealthView.
func (f HealthFunc) Dead(dim topo.Dim, dir int) bool { return f(dim, dir) }

// Policy is a request-packet routing policy: it picks the dimension order
// recorded on the packet, chooses each hop's output, and assigns virtual
// channels. Implementations must be stateless (one Policy value is shared
// by every node of a machine and by concurrently running machines); all
// randomness comes from the rng the caller passes in.
//
// Response packets are outside the Policy's jurisdiction: they always
// follow the XYZ mesh-restricted route (ResponseRoute) on the dedicated
// response VC, which is what lets the paper provision a single response VC.
type Policy interface {
	// Name identifies the policy in configs, CLI flags and reports.
	Name() string
	// Order picks the dimension order for a new request packet. Policies
	// that randomize draw from rng; deterministic policies must not touch
	// it. Adaptive policies return the order used for VC accounting.
	Order(rng *sim.Rand) topo.DimOrder
	// NextStep chooses the next hop for a request at cur headed to dst.
	// o and plusOnTie are the per-packet decisions made at injection
	// (dimension order and even-ring tie direction); view reports current
	// output-link load and health reports dead links (either possibly
	// nil). It returns ok=false iff cur == dst. Every returned step must
	// be minimal: policies may choose *which* profitable dimension to
	// advance, never to take a non-minimal hop. A policy may still return
	// a dead hop (oblivious policies ignore health entirely; adaptive ones
	// when every minimal hop is dead) — the flow-control layer then
	// diverts the packet onto the fault-avoiding escape path instead.
	NextStep(s topo.Shape, cur, dst topo.Coord, o topo.DimOrder, plusOnTie bool, view LoadView, health HealthView) (topo.Step, bool)
	// Adaptive reports whether NextStep consults the load view. Callers
	// on hot paths use it to skip building a view (a per-decision
	// closure) for oblivious policies, which would ignore it anyway.
	Adaptive() bool
	// VC returns the request VC for a packet labeled with order o whose
	// current dimension has (or has not) crossed its dateline. Assignments
	// must stay within [0, RequestVCs()) and keep the two order rotation
	// groups on disjoint VCs — the structural deadlock-freedom argument of
	// Section III-B2 (property-tested in policy_test.go).
	VC(o topo.DimOrder, crossedDateline bool) int
	// RequestVCs is the number of request VCs the policy provisions. The
	// fence engine sends one fence copy per request VC, so this threads
	// through barrier behavior too.
	RequestVCs() int
}

// oblivious is the family of dimension-order policies: a fixed order, or
// one of the six drawn uniformly per packet when fixed is nil. It ignores
// network load entirely ("routes are randomized independent of network
// load", Section III-B).
type oblivious struct {
	name  string
	fixed *topo.DimOrder
}

// Random returns the paper's production policy: minimal oblivious routing
// with a uniformly random dimension order per request packet. This is the
// machine.Config default.
func Random() Policy { return oblivious{name: "random"} }

// XYZ returns the deterministic dimension-order policy: every request
// follows XYZ, concentrating load instead of spreading it (the DESIGN.md
// routing ablation, formerly the machine.Config.ForceXYZOrder special
// case).
func XYZ() Policy {
	o := topo.OrderXYZ
	return oblivious{name: "xyz", fixed: &o}
}

func (p oblivious) Name() string { return p.name }

func (p oblivious) Order(rng *sim.Rand) topo.DimOrder {
	if p.fixed != nil {
		return *p.fixed
	}
	return PickOrder(rng)
}

func (p oblivious) Adaptive() bool { return false }

func (p oblivious) NextStep(s topo.Shape, cur, dst topo.Coord, o topo.DimOrder, plusOnTie bool, _ LoadView, _ HealthView) (topo.Step, bool) {
	return obliviousNext(s, cur, dst, o, plusOnTie)
}

func (p oblivious) VC(o topo.DimOrder, crossedDateline bool) int {
	return RequestVC(o, crossedDateline)
}

func (p oblivious) RequestVCs() int { return NumRequestVCs }

// obliviousNext advances the first dimension in order o that still
// separates cur from dst, taking the minimal direction around the ring.
// Replaying it hop by hop reproduces topo.RouteTie(s, src, dst, o,
// plusOnTie) exactly: the even-ring tie only occurs on the first hop of a
// dimension, and after that hop the remaining delta commits to the chosen
// direction.
func obliviousNext(s topo.Shape, cur, dst topo.Coord, o topo.DimOrder, plusOnTie bool) (topo.Step, bool) {
	d := s.Delta(cur, dst)
	for _, dim := range o {
		n := d.Get(dim)
		if n == 0 {
			continue
		}
		dir := 1
		if n < 0 {
			dir, n = -1, -n
		}
		if !plusOnTie && 2*n == s.Get(dim) {
			dir = -dir
		}
		return topo.Step{Dim: dim, Dir: dir}, true
	}
	return topo.Step{}, false
}

// CreditSteered marks a Policy whose load view should be the one-hop
// credit lookahead — the downstream per-VC ingress occupancy the sender's
// credit counters mirror — rather than the local serialization backlog.
// The machine model checks for this interface when it builds the view it
// hands to NextStep; on machines without per-VC queues the policy falls
// back to the backlog view and behaves like MinimalAdaptive.
type CreditSteered interface {
	Policy
	// CreditSteered is a marker; it reports nothing and must be cheap.
	CreditSteered()
}

// EscapeNext returns the escape-channel hop from cur toward dst: the
// strict XYZ dimension-order minimal step (plusOnTie resolving even-ring
// direction ties), ok=false at the destination. Credit-based flow control
// (machine.Config.VCQueueFlits) uses it as the Duato-style escape route:
// the escape VC pair admits only these hops, whose channel dependency
// graph — e-cube order plus the dateline VC switch — is acyclic, so the
// escape subnetwork always drains and a blocked packet parked on it can
// always eventually advance, whatever cycles the policy's preferred
// routes form.
func EscapeNext(s topo.Shape, cur, dst topo.Coord, plusOnTie bool) (topo.Step, bool) {
	return obliviousNext(s, cur, dst, topo.OrderXYZ, plusOnTie)
}

// EscapeNextAvoid is the fault-aware escape hop: EscapeNext, except that
// when the minimal direction's link is dead at cur, the packet reverses and
// goes the long way around that ring — and commits to the reversed
// direction in committed[dim] so later hops of the same dimension keep
// going the long way instead of bouncing back into the dead link
// (livelock). The strict X<Y<Z dimension order is preserved — only the
// direction within a ring changes — and each (dim, dir) ring keeps its own
// dateline VC split, so the escape subnetwork's channel dependency graph
// stays acyclic and the Duato drain argument carries over. committed
// persists on the packet (packet.Packet.EscDirs); health may be nil.
//
// A non-minimal detour can visit more nodes than the minimal hop count, so
// unlike EscapeNext the caller must not assume progress strictly decreases
// the remaining distance — termination comes from the committed direction:
// within a dimension the packet moves monotonically around the ring until
// the coordinate matches dst's.
func EscapeNextAvoid(s topo.Shape, cur, dst topo.Coord, plusOnTie bool, health HealthView, committed *[3]int8) (topo.Step, bool) {
	d := s.Delta(cur, dst)
	for _, dim := range topo.OrderXYZ {
		n := d.Get(dim)
		if n == 0 {
			continue
		}
		dir := 1
		if n < 0 {
			dir, n = -1, -n
		}
		if !plusOnTie && 2*n == s.Get(dim) {
			dir = -dir
		}
		if c := committed[int(dim)]; c != 0 {
			dir = int(c)
		} else if health != nil && health.Dead(dim, dir) {
			dir = -dir
			committed[int(dim)] = int8(dir)
		}
		return topo.Step{Dim: dim, Dir: dir}, true
	}
	return topo.Step{}, false
}

// adaptive is the minimal-adaptive policy the paper argues against at
// Anton 3's scale: among the dimensions that still make minimal progress
// (topo.LegalNextSteps), take the one whose output link is least loaded
// right now. With no load information it degenerates to XYZ preference.
// The order label (used only for VC accounting) is fixed to XYZ and no
// rng is consumed.
type adaptive struct{}

// MinimalAdaptive returns the load-adaptive minimal policy: per hop, pick
// the legal next dimension with the lowest output-link load.
func MinimalAdaptive() Policy { return adaptive{} }

func (adaptive) Name() string { return "adaptive" }

func (adaptive) Order(*sim.Rand) topo.DimOrder { return topo.OrderXYZ }

func (adaptive) Adaptive() bool { return true }

func (adaptive) NextStep(s topo.Shape, cur, dst topo.Coord, _ topo.DimOrder, _ bool, view LoadView, health HealthView) (topo.Step, bool) {
	var buf [6]topo.Step
	cands := topo.LegalNextSteps(s, cur, dst, buf[:0])
	if len(cands) == 0 {
		return topo.Step{}, false
	}
	if health != nil {
		// Route around dead links: drop dead candidates, unless every
		// minimal hop is dead — then return the original preference and
		// let flow control divert onto the escape path.
		alive := cands[:0]
		for _, st := range cands {
			if !health.Dead(st.Dim, st.Dir) {
				alive = append(alive, st)
			}
		}
		if len(alive) > 0 {
			cands = alive
		}
	}
	best := cands[0]
	if view != nil {
		bestLoad := view.Load(best.Dim, best.Dir)
		for _, st := range cands[1:] {
			if l := view.Load(st.Dim, st.Dir); l < bestLoad {
				best, bestLoad = st, l
			}
		}
	}
	return best, true
}

func (adaptive) VC(o topo.DimOrder, crossedDateline bool) int {
	return RequestVC(o, crossedDateline)
}

func (adaptive) RequestVCs() int { return NumRequestVCs }

// creditEcho is minimal-adaptive steering on echoed credit state: per hop,
// take the legal dimension whose downstream per-VC ingress queues have the
// most free space (CreditSteered makes the machine supply that view). The
// hop choice logic is MinimalAdaptive's; only the congestion signal
// differs — one hop of lookahead through the credit loop instead of the
// local serialization horizon, so it sees head-of-line blocking forming at
// the neighbor before the local channel backs up.
type creditEcho struct{ adaptive }

// CreditEcho returns the credit-lookahead adaptive policy. It is only
// distinguishable from MinimalAdaptive on machines modeling per-VC ingress
// queues (machine.Config.VCQueueFlits > 0), the closed-loop saturation
// rig's configuration.
func CreditEcho() Policy { return creditEcho{} }

func (creditEcho) Name() string { return "credit-echo" }

func (creditEcho) CreditSteered() {}

// Policies lists the policies of the open-loop netsweep grid, default
// first. (Deliberately without CreditEcho: netsweep machines model no
// per-VC queues, where credit-echo degenerates to MinimalAdaptive, and the
// netsweep report format is pinned byte-for-byte across PRs.)
func Policies() []Policy {
	return []Policy{Random(), XYZ(), MinimalAdaptive()}
}

// SaturatePolicies lists the policies of the closed-loop saturation sweep:
// the netsweep trio plus the credit-echo variant that per-VC queues make
// meaningful.
func SaturatePolicies() []Policy {
	return append(Policies(), CreditEcho())
}

// PolicyByName resolves a policy by its Name, for CLI flags and configs.
func PolicyByName(name string) (Policy, error) {
	for _, p := range SaturatePolicies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("route: unknown policy %q (have random, xyz, adaptive, credit-echo)", name)
}

// Walk replays a policy's hop decisions from src to dst without a network:
// the step sequence a packet would take under a static load view. It is
// the reference used by tests and by callers that need a whole path up
// front (view may be nil).
func Walk(p Policy, s topo.Shape, src, dst topo.Coord, o topo.DimOrder, plusOnTie bool, view LoadView) []topo.Step {
	steps := make([]topo.Step, 0, s.HopDist(src, dst))
	cur := src
	for {
		st, ok := p.NextStep(s, cur, dst, o, plusOnTie, view, nil)
		if !ok {
			return steps
		}
		steps = append(steps, st)
		cur = s.Neighbor(cur, st.Dim, st.Dir)
	}
}
