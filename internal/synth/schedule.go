package synth

import (
	"math"
	"math/bits"
	"slices"

	"anton3/internal/machine"
	"anton3/internal/packet"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// schedule is the pre-drawn offered process of one measurement point: for
// every injection slot (flat-indexed node-major, node*total+k) the intended
// injection instant, the destination, and the machine's pre-drawn routing
// decision. The pre-draw keeps every random choice a function of the seed
// alone, so a given (pattern, load, seed) cell offers byte-identical
// packets on any machine configuration, and results cannot depend on
// worker counts, machine reuse, or the shard count.
type schedule struct {
	total  int // packets per node, warmup included
	times  []sim.Time
	dsts   []int32
	orders []topo.DimOrder
	keys   []uint64
	prng   sim.Rand
}

// grow resizes a slice to n elements, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// draw fills the schedule for one point — total packets per node offered
// at mean inter-arrival meanGap (picoseconds, Poisson) under pattern pat —
// and draws m's route for every inter-node packet. It returns the last
// intended injection instant across all nodes (the realized offered
// horizon).
//
// The destination/gap streams are per node (seed ^ (i+1)*golden). The
// routing pre-draw follows the order a sequential run's injections fire
// in — a stable sort of the schedule by time over the node-major flat
// index — so the machine rng stream, and therefore every route, is a
// function of the seed alone. Same-node packets take Send's on-chip
// shortcut and need no route, so they draw nothing.
func (s *schedule) draw(m *machine.Machine, shape topo.Shape, pat Pattern, meanGap float64, total int, seed uint64) sim.Time {
	nodes := shape.Nodes()
	flatN := nodes * total
	s.total = total
	s.times = grow(s.times, flatN)
	s.dsts = grow(s.dsts, flatN)
	s.orders = grow(s.orders, flatN)
	s.keys = grow(s.keys, flatN)

	rng := &s.prng
	var end sim.Time
	for i := 0; i < nodes; i++ {
		src := shape.CoordOf(i)
		rng.Reseed(seed ^ uint64(i+1)*0x9e3779b97f4a7c15)
		var t sim.Time
		for k := 0; k < total; k++ {
			gap := sim.Time(meanGap * -math.Log(1-rng.Float64()))
			if gap < 1 {
				gap = 1
			}
			t += gap
			flat := i*total + k
			s.times[flat] = t
			s.dsts[flat] = int32(shape.Index(pat.Dest(shape, src, rng)))
		}
		if t > end {
			end = t
		}
	}

	// Pre-draw the routing decisions in sequential injection-firing order:
	// stable sort by time over the node-major flat index — the kernel's
	// (at, seq) order for setup-scheduled injection events.
	shift := uint(bits.Len(uint(flatN - 1)))
	for flat := range s.keys {
		t := uint64(s.times[flat])
		if t >= 1<<(63-shift) {
			panic("synth: injection time overflows the sort key")
		}
		s.keys[flat] = t<<shift | uint64(flat)
	}
	slices.Sort(s.keys)
	mask := uint64(1)<<shift - 1
	for _, key := range s.keys {
		flat := key & mask
		if int(s.dsts[flat]) == int(flat)/total {
			continue
		}
		// The tie draw is discarded — Position packets derive theirs from
		// the atom ID — but DrawRoute consumes it anyway, two draws per
		// route.
		s.orders[flat], _ = m.DrawRoute()
	}
	return end
}

// HorizonFits reports whether a point offering total packets per node on
// shape at load keeps its injection schedule inside the sort key draw
// orders it by. The key packs each intended instant above the slot's flat
// index, so the last instant must stay below 2^(63-shift) ps with shift =
// bits.Len(nodes*total-1). The instants are drawn at random, so the check
// asks for a 4x margin on the mean horizon, total*loadUnit/load. A total
// below 1 (an overflowed budget), or one whose slot indices alone fill the
// key, never fits.
func HorizonFits(shape topo.Shape, total int, load float64) bool {
	nodes := shape.Nodes()
	if total < 1 || total > 1<<62/nodes {
		return false
	}
	shift := bits.Len(uint(nodes*total - 1))
	return 4*float64(total)*float64(loadUnit)/load < math.Ldexp(1, 63-shift)
}

// packet builds the routed Position packet of injection slot flat from
// m's pool: node flat/total sends it to the drawn destination along the
// drawn dimension order, core is both endpoints' core, and the slot index
// doubles as atom ID and injection ID.
func (s *schedule) packet(m *machine.Machine, shape topo.Shape, core packet.CoreID, flat int) *packet.Packet {
	src := shape.CoordOf(flat / s.total)
	p := m.NewPacketAt(src)
	atom := uint32(flat)
	p.Type = packet.Position
	p.SrcNode, p.DstNode = src, shape.CoordOf(int(s.dsts[flat]))
	p.SrcCore, p.DstCore = core, core
	p.AtomID = atom
	p.SetQuad([4]uint32{atom, 0xfeed, 0xbeef, 0xcafe})
	p.Order = s.orders[flat]
	// Position packets break the even-ring direction tie by atom ID, so an
	// atom's channel (and particle cache) stays stable; DrawRoute's tie
	// draw goes unused.
	p.Tie = atom&2 != 0
	p.Inj = uint64(flat)
	return p
}
