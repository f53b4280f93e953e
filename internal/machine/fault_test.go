package machine

import (
	"fmt"
	"strings"
	"testing"

	"anton3/internal/chip"
	"anton3/internal/fault"
	"anton3/internal/packet"
	"anton3/internal/route"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// faultCfg builds a flow-controlled machine config with the given plan.
func faultCfg(shape topo.Shape, policy route.Policy, plan *fault.Plan) Config {
	cfg := DefaultConfig(shape)
	cfg.Policy = policy
	cfg.VCQueueFlits = 8
	cfg.Faults = plan
	return cfg
}

// TestDeadLinkDelivery pins the satellite fix for every policy: a packet
// whose ONLY minimal next hop is dead (one X+ hop to go, X+ dead at the
// source) must still reach its destination via the escape pair's detour the
// long way around the ring — previously route.EscapeNext was consulted only
// for credit-starved heads and would have bounced the packet straight back
// into the dead link.
func TestDeadLinkDelivery(t *testing.T) {
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	plan, err := fault.Parse("0,0,0:x+:dead")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range route.SaturatePolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			m := New(faultCfg(shape, pol, plan))
			core := m.GC(topo.Coord{}, 0).ID
			sink := &vcqDrainSink{}
			p := &packet.Packet{
				Type:    packet.Position,
				SrcNode: topo.Coord{}, DstNode: topo.Coord{X: 1},
				SrcCore: core, DstCore: core,
			}
			p.Order, p.Tie = m.DrawRoute()
			inj := fenceMixInj{m: m, p: p, done: sink}
			m.K.AtActor(100, &inj)
			m.Run()
			if sink.n != 1 {
				t.Fatalf("packet with only minimal hop dead was not delivered")
			}
		})
	}
}

// checkDrained asserts post-run flow-control cleanliness on a faulted
// machine: nothing parked, nothing queued, and every live channel's credits
// back at full depth (dead channels hold zero credits by construction).
func checkDrained(t *testing.T, m *Machine, full int) {
	t.Helper()
	for _, n := range m.Nodes() {
		for _, cs := range n.ChannelSpecs() {
			dead := m.deadCh != nil && m.deadCh[int(n.idx)*chip.NumChannelSpecs+cs.Index()]
			for vc := 0; vc < route.NumRequestVCs; vc++ {
				want := full
				if dead {
					want = 0
				}
				if c := n.OutCredits(cs, vc); c != want {
					t.Errorf("node %v %v vc %d: credits %d after drain, want %d", n.Coord, cs, vc, c, want)
				}
				if o := n.IngressOccupancy(cs, vc); o != 0 {
					t.Errorf("node %v %v vc %d: %d flits still queued", n.Coord, cs, vc, o)
				}
				if pk := n.ParkedFlits(cs, vc); pk != 0 {
					t.Errorf("node %v %v vc %d: %d flits still parked", n.Coord, cs, vc, pk)
				}
			}
		}
	}
}

// runFaultTraffic drives saturating all-to-all traffic (perNode packets per
// source) through m and returns how many were delivered.
func runFaultTraffic(m *Machine, perNode int) int {
	shape := m.Shape()
	nodes := shape.Nodes()
	core := m.GC(shape.CoordOf(0), 0).ID
	sink := &vcqDrainSink{}
	injs := make([]fenceMixInj, nodes*perNode)
	for i := 0; i < nodes; i++ {
		for k := 0; k < perNode; k++ {
			flat := i*perNode + k
			p := &packet.Packet{
				Type:    packet.Position,
				SrcNode: shape.CoordOf(i), DstNode: shape.CoordOf((i + nodes/2 + k) % nodes),
				SrcCore: core, DstCore: core,
				AtomID: uint32(flat),
				Inj:    uint64(flat),
			}
			if p.SrcNode != p.DstNode {
				p.Order, p.Tie = m.DrawRoute()
			}
			injs[flat] = fenceMixInj{m: m, p: p, done: sink}
			m.NodeKernel(p.SrcNode).AtActor(sim.Time(100+3*flat), &injs[flat])
		}
	}
	m.Run()
	return sink.n
}

// TestSingleLinkDeadPropertySweep is the proof-of-delivery + deadlock-
// freedom property: for EVERY single dead directed link and every policy,
// saturating all-to-all traffic is fully delivered and the network drains
// clean (no parked flits, no stuck queues — the run terminating at all is
// the no-deadlock half). Full sweep on a small torus; -short samples it.
func TestSingleLinkDeadPropertySweep(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	nodes := shape.Nodes()
	step := 1
	if testing.Short() {
		step = 7
	}
	perNode := 8
	case_ := 0
	for i := 0; i < nodes; i++ {
		for d := topo.X; d <= topo.Z; d++ {
			if shape.Get(d) < 2 {
				continue
			}
			for _, dir := range []int{1, -1} {
				case_++
				if case_%step != 0 {
					continue
				}
				c := shape.CoordOf(i)
				plan := &fault.Plan{Links: []fault.LinkFault{{
					Node: c, Dim: d, Dir: dir, Slice: -1, Effect: fault.Effect{Dead: true},
				}}}
				for _, pol := range route.SaturatePolicies() {
					m := New(faultCfg(shape, pol, plan))
					got := runFaultTraffic(m, perNode)
					if got != nodes*perNode {
						t.Fatalf("%s with %s dead: delivered %d of %d", pol.Name(), plan.Canon(), got, nodes*perNode)
					}
					checkDrained(t, m, 8)
				}
			}
		}
	}
}

// TestFaultTripReroutesParked: a link that dies mid-run (TripAt inside the
// injection window) must reroute the packets already parked on it — they
// were waiting for credits that will never return — and everything still
// delivers and drains.
func TestFaultTripReroutesParked(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	nodes := shape.Nodes()
	perNode := 16
	// Injections run from t=100 at 3 ps spacing; trip in the middle.
	plan, err := fault.Parse(fmt.Sprintf("0,0,0:z+:dead@%d", 100+3*nodes*perNode/2))
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range route.SaturatePolicies() {
		m := New(faultCfg(shape, pol, plan))
		got := runFaultTraffic(m, perNode)
		if got != nodes*perNode {
			t.Fatalf("%s with mid-run trip: delivered %d of %d", pol.Name(), got, nodes*perNode)
		}
		checkDrained(t, m, 8)
	}
}

// TestDegradedLinkSlowsDelivery: a bandwidth-divided link must lengthen the
// drain of traffic crossing it without losing anything.
func TestDegradedLinkSlowsDelivery(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	nodes := shape.Nodes()
	// Node 0's X+ link: under XYZ every packet sourced at node 0 crosses
	// it first (the sweep pattern sends them all to x=1 destinations).
	plan, err := fault.Parse("0,0,0:x+:bw/8,lat*4")
	if err != nil {
		t.Fatal(err)
	}
	healthy := New(faultCfg(shape, route.XYZ(), nil))
	if runFaultTraffic(healthy, 8) != nodes*8 {
		t.Fatal("healthy baseline lost packets")
	}
	healthyEnd := healthy.K.Now()

	m := New(faultCfg(shape, route.XYZ(), plan))
	if runFaultTraffic(m, 8) != nodes*8 {
		t.Fatal("degraded run lost packets")
	}
	if end := m.K.Now(); end <= healthyEnd {
		t.Fatalf("degraded drain ended at %d, healthy at %d — degradation had no effect", end, healthyEnd)
	}
	checkDrained(t, m, 8)
}

// TestFaultConfigValidation: dead links without credit flow control have no
// backpressure mechanism and must refuse to build, and an invalid plan must
// fail loudly at New with the fault package's message.
func TestFaultConfigValidation(t *testing.T) {
	plan, err := fault.Parse("0,0,0:x+:dead")
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name, want string, cfg Config) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: New did not panic", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q does not mention %q", name, msg, want)
			}
		}()
		New(cfg)
	}
	cfg := DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
	cfg.Faults = plan
	mustPanic("dead without vcq", "per-VC flow control", cfg)

	badPlan, err := fault.Parse("7,0,0:x+:dead")
	if err != nil {
		t.Fatal(err)
	}
	cfg = DefaultConfig(topo.Shape{X: 2, Y: 2, Z: 2})
	cfg.VCQueueFlits = 8
	cfg.Faults = badPlan
	mustPanic("node outside shape", "outside shape", cfg)
}

// TestFaultResetReapplies: a reset machine must re-arm its plan — static
// dead links stay dead, and results repeat byte-identically run over run.
func TestFaultResetReapplies(t *testing.T) {
	shape := topo.Shape{X: 2, Y: 2, Z: 4}
	plan, _ := fault.Parse("0,0,0:z+:dead")
	m := New(faultCfg(shape, route.Random(), plan))
	nodes := shape.Nodes()
	first := runFaultTraffic(m, 8)
	firstEnd := m.K.Now()
	if first != nodes*8 {
		t.Fatalf("first run delivered %d of %d", first, nodes*8)
	}
	m.Reset(DefaultConfig(shape).Seed)
	if !m.Node(topo.Coord{}).Channel(chip.ChannelSpec{Dim: topo.Z, Dir: 1, Slice: 0}).Dead() {
		t.Fatal("Reset lost the static dead fault")
	}
	second := runFaultTraffic(m, 8)
	if second != first || m.K.Now() != firstEnd {
		t.Fatalf("reset run differs: %d delivered ending %d, want %d ending %d",
			second, m.K.Now(), first, firstEnd)
	}
	checkDrained(t, m, 8)
}
