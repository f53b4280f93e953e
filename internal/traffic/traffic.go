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
// path is a couple of multiplies instead of a map lookup; entries stay nil
// until a channel first carries traffic.
type Replayer struct {
	shape  topo.Shape
	decomp *md.Decomposition
	cfg    serdes.CompressConfig
	comps  []*serdes.Compressor // [node*chip.NumChannelSpecs + spec.Index()]
	live   int                  // non-nil entries

	// scratch buffers reused across atoms
	targets []topo.Coord
	edges   []md.ChannelEdge
	steps   []topo.Step
	// pkt is the reusable transmit packet: Compressor.Transmit only reads
	// it (and hands back the same instance), so one scratch packet serves
	// the whole replay instead of one allocation per channel crossing.
	pkt packet.Packet
}

// NewReplayer builds the per-channel pipelines for a system decomposed
// across shape.
func NewReplayer(shape topo.Shape, box float64, cfg serdes.CompressConfig) *Replayer {
	return &Replayer{
		shape:  shape,
		decomp: md.NewDecomposition(shape, box),
		cfg:    cfg,
		comps:  make([]*serdes.Compressor, shape.Nodes()*chip.NumChannelSpecs),
	}
}

// Decomposition exposes the partition (shared with the timed engine).
func (r *Replayer) Decomposition() *md.Decomposition { return r.decomp }

func (r *Replayer) comp(node int, dim topo.Dim, dir, slice int) *serdes.Compressor {
	i := node*chip.NumChannelSpecs + chip.ChannelSpec{Dim: dim, Dir: dir, Slice: slice}.Index()
	c := r.comps[i]
	if c == nil {
		c = serdes.NewCompressor(r.cfg)
		r.comps[i] = c
		r.live++
	}
	return c
}

// ReplayStep pushes one time step of traffic through the channels:
// stream-set position exports along each atom's multicast tree, stream-set
// force returns from every remote node that computed with the atom, and
// the end-of-step packet on every live channel.
func (r *Replayer) ReplayStep(s *md.System) {
	d := r.decomp
	for i := 0; i < s.N; i++ {
		pos := s.Pos[i]
		home := d.HomeNode(pos)
		r.targets = d.ExportTargets(pos, home, r.targets)
		if len(r.targets) == 0 {
			continue
		}
		rel := d.RelativeFixed(pos, home)
		slice := i & 1
		// Stable per-atom direction tie-break (2-wide rings reach the
		// same neighbor both ways): stability keeps each atom on the
		// same channels every step so the particle caches stay warm.
		plusOnTie := i&2 != 0

		// Position export: once per multicast tree edge.
		r.edges = md.MulticastEdges(r.shape, home, r.targets, plusOnTie, r.edges)
		for _, e := range r.edges {
			r.pkt = packet.Packet{Type: packet.Position, AtomID: uint32(i)}
			r.pkt.SetQuad(rel.Words())
			r.comp(r.shape.Index(e.From), e.Step.Dim, e.Step.Dir, slice).Transmit(&r.pkt)
		}

		// Stream-set force returns: each target computed a partial force
		// for this atom and sends it back point-to-point (XYZ route).
		// Payload magnitude is the atom's force — the right scale for
		// compression purposes even though each remote holds a partial.
		ff := fixp.ForceToFixed(s.Force[i])
		for _, tgt := range r.targets {
			cur := tgt
			r.steps = topo.AppendRouteTie(r.steps[:0], r.shape, tgt, home, topo.OrderXYZ, plusOnTie)
			for _, st := range r.steps {
				r.pkt = packet.Packet{Type: packet.Force, AtomID: uint32(i)}
				r.pkt.SetQuad(ff.Words())
				r.comp(r.shape.Index(cur), st.Dim, st.Dir, slice).Transmit(&r.pkt)
				cur = r.shape.Neighbor(cur, st.Dim, st.Dir)
			}
		}
	}

	// End-of-step marker down every channel that carried traffic.
	r.pkt = packet.Packet{Type: packet.EndOfStep}
	for _, c := range r.comps {
		if c != nil {
			c.Transmit(&r.pkt)
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
func (r *Replayer) Channels() int { return r.live }

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
