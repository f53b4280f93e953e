// Package traffic replays MD position/force streams through per-channel
// Channel Adapter compression pipelines and counts wire bits — the
// methodology behind Figure 9a, which the paper also collected from its
// full-system simulator rather than hardware counters.
//
// The replay is untimed: compression ratios depend only on the packet
// streams each channel carries, not on when packets arrive, so this runs
// orders of magnitude faster than the timed engine and scales to the
// largest atom counts in the figure.
package traffic

import (
	"runtime"
	"sync"

	"anton3/internal/chip"
	"anton3/internal/fixp"
	"anton3/internal/md"
	"anton3/internal/packet"
	"anton3/internal/pcache"
	"anton3/internal/serdes"
	"anton3/internal/topo"
)

// Replayer owns one compressor per channel slice of the machine and feeds
// them the traffic a decomposed MD step generates. The table is dense —
// indexed by node index x chip.ChannelSpec.Index — so the per-packet replay
// path is a slice load instead of a map lookup; entries stay nil until a
// channel first carries traffic.
//
// An atom rides one slice of every channel it crosses. Each slice's
// compressors are fed by a replay lane of their own, with one
// md.Decomposition per lane (see lane), so when GOMAXPROCS allows,
// ReplayStep replays lane 1 on a helper goroutine. ReplayStep is not safe
// for concurrent calls on one Replayer.
type Replayer struct {
	shape topo.Shape
	cfg   serdes.CompressConfig
	comps []*serdes.Compressor // [node*chip.NumChannelSpecs + spec.Index()]
	lanes [chip.Slices]lane

	// help is the helper goroutine's body, bound once so that starting it
	// allocates nothing; it replays lane 1 of sys and marks done.
	help func()
	sys  *md.System
	done sync.WaitGroup
}

// lane replays the atoms of one channel slice: atom i rides slice
// i%chip.Slices. Its compressors are the table entries of that index
// modulo chip.Slices, which no other lane touches, and it keeps its own
// Decomposition, since the plan memo is not safe for concurrent use.
type lane struct {
	slice  int32
	decomp *md.Decomposition
	live   int // non-nil table entries of this slice

	// hops holds, per plan ID of decomp, the table indices at slice 0 of
	// the channels an atom of the plan's class crosses each step.
	hops []planHops
}

// planHops lists one plan's channel crossings as compressor table indices
// at slice 0: pos per multicast tree edge in md.Plan.Edges order, frc per
// force-return hop, target-major along each target's XYZ route home. An
// atom adds its slice to each.
type planHops struct {
	pos, frc []int32
}

// NewReplayer builds the per-channel pipelines for a system decomposed
// across shape.
func NewReplayer(shape topo.Shape, box float64, cfg serdes.CompressConfig) *Replayer {
	r := &Replayer{
		shape: shape,
		cfg:   cfg,
		comps: make([]*serdes.Compressor, shape.Nodes()*chip.NumChannelSpecs),
	}
	for s := range r.lanes {
		r.lanes[s] = lane{slice: int32(s), decomp: md.NewDecomposition(shape, box)}
	}
	return r
}

func (r *Replayer) comp(l *lane, i int32) *serdes.Compressor {
	c := r.comps[i]
	if c == nil {
		c = serdes.NewCompressor(r.cfg)
		r.comps[i] = c
		l.live++
	}
	return c
}

// planHops computes pl's channel crossings for an atom homed at home with
// tie bit plusOnTie, which every atom of pl's class shares.
func (r *Replayer) planHops(pl *md.Plan, home topo.Coord, plusOnTie bool) planHops {
	at := func(n topo.Coord, st topo.Step) int32 {
		return int32(r.shape.Index(n)*chip.NumChannelSpecs + chip.ChannelSpec{Dim: st.Dim, Dir: st.Dir}.Index())
	}
	var h planHops
	for _, e := range pl.Edges {
		h.pos = append(h.pos, at(e.From, e.Step))
	}
	var steps []topo.Step
	for _, tgt := range pl.Targets {
		cur := tgt
		steps = topo.AppendRouteTie(steps[:0], r.shape, tgt, home, topo.OrderXYZ, plusOnTie)
		for _, st := range steps {
			h.frc = append(h.frc, at(cur, st))
			cur = r.shape.Neighbor(cur, st.Dim, st.Dir)
		}
	}
	return h
}

// ReplayStep pushes one time step of traffic through the channels:
// stream-set position exports along each atom's multicast tree, stream-set
// force returns from every remote node that computed with the atom, and
// the end-of-step packet on every live channel.
//
// Every compressor receives its packets in one order, whichever goroutine
// sends them: its lane's atoms ascending, then the end-of-step packet.
// When GOMAXPROCS is above 1, lane 1 runs on a helper goroutine while the
// caller runs lane 0, and ReplayStep blocks until the helper is done, so
// a caller that finishes first gives up its core rather than spinning;
// otherwise the caller runs both lanes in turn.
func (r *Replayer) ReplayStep(s *md.System) {
	if runtime.GOMAXPROCS(0) == 1 {
		for i := range r.lanes {
			r.replayLane(&r.lanes[i], s)
		}
		return
	}
	if r.help == nil {
		r.help = r.replayHelper
	}
	r.sys = s
	r.done.Add(1)
	go r.help()
	r.replayLane(&r.lanes[0], s)
	r.done.Wait()
	r.sys = nil
}

func (r *Replayer) replayHelper() {
	r.replayLane(&r.lanes[1], r.sys)
	r.done.Done()
}

// replayLane pushes lane l's share of one time step through its slice's
// channels.
func (r *Replayer) replayLane(l *lane, s *md.System) {
	d := l.decomp
	// pkt is the transmit packet: Compressor.Transmit only reads it (and
	// hands back the same instance), so one scratch packet on the stack
	// serves the whole lane instead of one allocation per channel crossing.
	var pkt packet.Packet
	for i := int(l.slice); i < s.N; i += chip.Slices {
		pos := s.Pos[i]
		home := d.HomeNode(pos)
		// Stable per-atom direction tie-break (2-wide rings reach the
		// same neighbor both ways): stability keeps each atom on the
		// same channels every step so the particle caches stay warm.
		plusOnTie := i&2 != 0
		pl := d.Plan(pos, home, plusOnTie)
		if pl.ID == len(l.hops) {
			// The class's first atom: the lane's own decomposition
			// numbers plans in first-use order.
			l.hops = append(l.hops, r.planHops(pl, home, plusOnTie))
		}
		if len(pl.Targets) == 0 {
			continue
		}
		h := &l.hops[pl.ID]

		// Position export: once per multicast tree edge.
		pkt = packet.Packet{Type: packet.Position, AtomID: uint32(i)}
		pkt.SetQuad(d.RelativeFixed(pos, home).Words())
		for _, c := range h.pos {
			r.comp(l, c+l.slice).Transmit(&pkt)
		}

		// Stream-set force returns: each target computed a partial force
		// for this atom and sends it back point-to-point (XYZ route).
		// Payload magnitude is the atom's force — the right scale for
		// compression purposes even though each remote holds a partial.
		pkt = packet.Packet{Type: packet.Force, AtomID: uint32(i)}
		pkt.SetQuad(fixp.ForceToFixed(s.Force[i]).Words())
		for _, c := range h.frc {
			r.comp(l, c+l.slice).Transmit(&pkt)
		}
	}

	// End-of-step marker down every channel of the slice that carried
	// traffic.
	pkt = packet.Packet{Type: packet.EndOfStep}
	for i := int(l.slice); i < len(r.comps); i += chip.Slices {
		if c := r.comps[i]; c != nil {
			c.Transmit(&pkt)
		}
	}
}

// Stats aggregates over every channel.
func (r *Replayer) Stats() serdes.Stats {
	var t serdes.Stats
	for _, c := range r.comps {
		if c == nil {
			continue
		}
		t.Add(c.Stats())
	}
	return t
}

// CacheStats aggregates particle cache outcomes over every channel.
func (r *Replayer) CacheStats() pcache.Stats {
	var t pcache.Stats
	for _, c := range r.comps {
		if c == nil {
			continue
		}
		st := c.CacheStats()
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Allocs += st.Allocs
		t.Evictions += st.Evictions
		t.AllocFails += st.AllocFails
	}
	return t
}

// Channels reports how many channel slices carried traffic.
func (r *Replayer) Channels() int {
	n := 0
	for i := range r.lanes {
		n += r.lanes[i].live
	}
	return n
}

// InSync verifies every channel's cache pair.
func (r *Replayer) InSync() bool {
	for _, c := range r.comps {
		if c != nil && !c.InSync() {
			return false
		}
	}
	return true
}

// Delta subtracts an earlier snapshot from a later one.
func Delta(later, earlier serdes.Stats) serdes.Stats {
	return serdes.Stats{
		Packets:        later.Packets - earlier.Packets,
		WireBits:       later.WireBits - earlier.WireBits,
		BaselineBits:   later.BaselineBits - earlier.BaselineBits,
		PositionBits:   later.PositionBits - earlier.PositionBits,
		ForceBits:      later.ForceBits - earlier.ForceBits,
		OtherBits:      later.OtherBits - earlier.OtherBits,
		PcacheHits:     later.PcacheHits - earlier.PcacheHits,
		PcacheMisses:   later.PcacheMisses - earlier.PcacheMisses,
		RawINZPayloads: later.RawINZPayloads - earlier.RawINZPayloads,
	}
}
