// Package chip models the Anton 3 ASIC floorplan (Section II-B, Figure 1):
// a 24x12 array of Core Tiles flanked by 12 Edge Tiles on each side. It
// provides the geometry and queuing-free path latencies that the machine
// simulator composes with the contention models (channels, ICBs, PPIM rows).
//
// The Core Network itself is modeled analytically (per-hop cycle counts
// along the U->V dimension-order route) rather than per-router: the paper's
// bottlenecks are the channels and the edge networks, and Figure 12 shows
// the on-chip fabric comfortably over-provisioned. The Edge Routers' hop
// latency and the adapters appear explicitly in every path.
package chip

import (
	"fmt"

	"anton3/internal/packet"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// Slices is the number of physical channel slices per torus neighbor
// (Section V-C): each neighbor's 16 lanes are two slices of 8, one per edge
// network side, so a dimension turn never crosses the Core Tile array.
const Slices = 2

// LanesPerSlice is the SERDES lane count of one channel slice.
const LanesPerSlice = topo.SerdesPerNeighbor / Slices

// Router per-hop pipeline latencies from Section III-B, in core clock
// cycles: the dimension-sliced Core Router's U and V hops, and the Edge
// Router's hop.
const (
	CoreUHopCycles = 2
	CoreVHopCycles = 5
	EdgeHopCycles  = 3
)

// ChannelSpec locates one channel slice on the chip.
type ChannelSpec struct {
	Dim   topo.Dim
	Dir   int // +1 or -1
	Slice int // 0 (left edge network) or 1 (right)
}

func (c ChannelSpec) String() string {
	s := "+"
	if c.Dir < 0 {
		s = "-"
	}
	return fmt.Sprintf("%v%s.s%d", c.Dim, s, c.Slice)
}

// Side returns which edge network hosts this slice.
func (c ChannelSpec) Side() topo.Side {
	if c.Slice == 0 {
		return topo.Left
	}
	return topo.Right
}

// NumChannelSpecs is the size of the dense channel-spec index space of one
// chip: 3 dimensions x 2 directions x Slices slices. Machine-level code
// keys per-node channel tables by ChannelSpec.Index instead of maps; shapes
// with a flat dimension simply leave those table entries nil.
const NumChannelSpecs = 3 * 2 * Slices

// Index returns c's dense index in [0, NumChannelSpecs). The encoding is
// (dim, dir, slice) lexicographic with +1 before -1, matching the
// enumeration order of AllChannelSpecs, so iterating a dense table in index
// order visits specs exactly as the historical spec lists did.
func (c ChannelSpec) Index() int {
	d := 0
	if c.Dir < 0 {
		d = 1
	}
	return (int(c.Dim)*2+d)*Slices + c.Slice
}

// ChannelSpecAt inverts ChannelSpec.Index.
func ChannelSpecAt(i int) ChannelSpec {
	if i < 0 || i >= NumChannelSpecs {
		panic("chip: channel spec index out of range")
	}
	sl := i % Slices
	i /= Slices
	dir := 1
	if i%2 == 1 {
		dir = -1
	}
	return ChannelSpec{Dim: topo.Dim(i / 2), Dir: dir, Slice: sl}
}

// Opposite returns the receiver-side spec of the same physical link: the
// channel on the neighboring chip that points back toward the sender.
func (c ChannelSpec) Opposite() ChannelSpec {
	c.Dir = -c.Dir
	return c
}

// Latencies collects the calibrated fixed latencies of the path model. All
// cycle counts are core-clock cycles at Clock, chosen to reproduce the
// paper's measured endpoints: 55 ns minimum end-to-end and 34.2 ns per hop
// (Figures 5 and 6), and the 51.5/51.8 ns fence numbers (Figure 11).
type Latencies struct {
	// GCSendCycles covers software issuing the remote write and injection
	// through the TRTR (no communication library: a handful of cycles).
	GCSendCycles int64
	// MemWriteCycles is SRAM write plus counter update at the destination.
	MemWriteCycles int64
	// WakeCycles is blocking-read wakeup: counter match to GC pipeline
	// restart with the data.
	WakeCycles int64
	// RACycles is the Row Adapter crossing (core network <-> edge network).
	RACycles int64
	// CATxCycles / CARxCycles are the Channel Adapter compression /
	// decompression stages (INZ is single-cycle; framing dominates).
	CATxCycles int64
	CARxCycles int64
	// ChannelFixed is SERDES serializer+CDR latency plus wire flight per
	// channel crossing.
	ChannelFixed sim.Time
	// EdgeHopCycles, CoreUCycles, CoreVCycles are router per-hop costs.
	EdgeHopCycles int64
	CoreUCycles   int64
	CoreVCycles   int64
	// FenceMergeCycles is the input-port fence counter update.
	FenceMergeCycles int64
	// FenceGatherCycles / FenceScatterCycles are the intra-chip fence
	// collection and distribution trees over the core network (all 576 GCs
	// to the edge and back).
	FenceGatherCycles  int64
	FenceScatterCycles int64
	// FenceHopExtraCycles is the additional per-torus-hop cost of a fence
	// relative to a unicast message: the fence floods every valid path
	// (both slices, all request VCs, all edge-network columns) and waits
	// for the slowest copy at every merge point.
	FenceHopExtraCycles int64
	// FenceRemoteFixedCycles is the one-time pipeline-fill cost a fence
	// pays when it first crosses onto the torus (fence injection across
	// all VCs and both slices, edge-network flood setup). It is why the
	// paper's linear fit intercept (91.2 ns) exceeds the 0-hop barrier
	// latency (51.5 ns).
	FenceRemoteFixedCycles int64
}

// DefaultLatencies is the calibration used by every experiment.
func DefaultLatencies() Latencies {
	return Latencies{
		GCSendCycles:           16,
		MemWriteCycles:         4,
		WakeCycles:             20,
		RACycles:               4,
		CATxCycles:             6,
		CARxCycles:             6,
		ChannelFixed:           26_900 * sim.Picosecond,
		EdgeHopCycles:          EdgeHopCycles,
		CoreUCycles:            CoreUHopCycles,
		CoreVCycles:            CoreVHopCycles,
		FenceMergeCycles:       4,
		FenceGatherCycles:      64,
		FenceScatterCycles:     40,
		FenceHopExtraCycles:    57,
		FenceRemoteFixedCycles: 112,
	}
}

// Geometry is the floorplan of one ASIC.
type Geometry struct {
	Shape topo.ChipShape
	Clock sim.Clock
	Lat   Latencies
}

// New builds the production geometry.
func New(clock sim.Clock, lat Latencies) *Geometry {
	return &Geometry{Shape: topo.DefaultChipShape, Clock: clock, Lat: lat}
}

// GCs returns the number of Geometry Cores on the chip.
func (g *Geometry) GCs() int { return g.Shape.Tiles() * topo.GCsPerTile }

// CoreIDByIndex enumerates GCs in a fixed order.
func (g *Geometry) CoreIDByIndex(i int) packet.CoreID {
	if i < 0 || i >= g.GCs() {
		panic("chip: GC index out of range")
	}
	return packet.CoreID{Tile: g.Shape.CoordOf(i / topo.GCsPerTile), GC: i % topo.GCsPerTile}
}

// IndexOfCore inverts CoreIDByIndex.
func (g *Geometry) IndexOfCore(c packet.CoreID) int {
	return g.Shape.Index(c.Tile)*topo.GCsPerTile + c.GC
}

// EdgeRowFor maps a channel spec to the edge-network row of its Channel
// Adapter. The six directions spread over the 12 edge tile rows so that the
// two directions of one dimension sit on adjacent rows (Figure 4).
func (g *Geometry) EdgeRowFor(cs ChannelSpec) int {
	rows := topo.EdgeTileRows
	block := rows / 3 // rows per dimension
	base := int(cs.Dim) * block
	r := base + 1 // +dir row
	if cs.Dir < 0 {
		r = base + 2 // adjacent row for the opposite direction
	}
	if r >= rows {
		r = rows - 1
	}
	return r
}

// uHopsToSide counts Core Network U hops from a tile to a chip side
// (leaving the array counts as one hop into the edge network's RA column).
func (g *Geometry) uHopsToSide(t topo.MeshCoord, side topo.Side) int {
	if side == topo.Left {
		return t.U + 1
	}
	return g.Shape.Cols - t.U
}

// edgeHops counts Edge Router hops between two rows of one edge network:
// the row distance plus two column hops (in via a routing column, out via
// the channel column — Figure 4's partitioning).
func edgeHops(rowA, rowB int) int {
	d := rowA - rowB
	if d < 0 {
		d = -d
	}
	return d + 2
}

// InjectLatency is the queuing-free time for a packet from a GC issuing a
// send to the packet reaching the Channel Adapter of cs, exclusive of the
// channel itself: GC send + U hops + RA + edge network hops + CA tx.
func (g *Geometry) InjectLatency(core packet.CoreID, cs ChannelSpec) sim.Time {
	u := g.uHopsToSide(core.Tile, cs.Side())
	eh := edgeHops(core.Tile.V, g.EdgeRowFor(cs))
	cycles := g.Lat.GCSendCycles +
		int64(u)*g.Lat.CoreUCycles +
		g.Lat.RACycles +
		int64(eh)*g.Lat.EdgeHopCycles +
		g.Lat.CATxCycles
	return g.Clock.Cycles(cycles)
}

// EjectLatency is the time from a packet emerging from the channel of cs to
// the destination SRAM write completing: CA rx + edge hops + RA + U hops +
// memory write.
func (g *Geometry) EjectLatency(cs ChannelSpec, core packet.CoreID) sim.Time {
	u := g.uHopsToSide(core.Tile, cs.Side())
	eh := edgeHops(g.EdgeRowFor(cs), core.Tile.V)
	cycles := g.Lat.CARxCycles +
		int64(eh)*g.Lat.EdgeHopCycles +
		g.Lat.RACycles +
		int64(u)*g.Lat.CoreUCycles +
		g.Lat.MemWriteCycles
	return g.Clock.Cycles(cycles)
}

// TransitLatency is the intermediate-hop cost on one chip: CA rx of the
// inbound channel, edge network transit to the outbound channel's CA, CA
// tx. Same-side transits stay within one edge network; cross-side transits
// route along an edge tile row... which the slice provisioning makes
// unnecessary: every direction has a slice on both sides, so the machine
// always picks the outbound slice on the inbound side.
func (g *Geometry) TransitLatency(in, out ChannelSpec) sim.Time {
	if in.Side() != out.Side() {
		panic("chip: cross-side transit should never be needed; pick the outbound slice on the inbound side")
	}
	eh := edgeHops(g.EdgeRowFor(in), g.EdgeRowFor(out))
	cycles := g.Lat.CARxCycles +
		int64(eh)*g.Lat.EdgeHopCycles +
		g.Lat.CATxCycles
	return g.Clock.Cycles(cycles)
}

// OnChipLatency is GC-to-SRAM latency within one chip: GC send + U->V
// dimension-order core network route + memory write.
func (g *Geometry) OnChipLatency(src, dst packet.CoreID) sim.Time {
	uh, vh := topo.UVHops(src.Tile, dst.Tile)
	cycles := g.Lat.GCSendCycles +
		int64(uh)*g.Lat.CoreUCycles +
		int64(vh)*g.Lat.CoreVCycles +
		g.Lat.MemWriteCycles
	return g.Clock.Cycles(cycles)
}

// WakeLatency is the blocking-read wakeup cost at the destination GC.
func (g *Geometry) WakeLatency() sim.Time { return g.Clock.Cycles(g.Lat.WakeCycles) }

// GatherLatency is the intra-chip fence collection tree: last GC fence
// issue to a merged fence at the edge networks.
func (g *Geometry) GatherLatency() sim.Time {
	return g.Clock.Cycles(g.Lat.GCSendCycles + g.Lat.FenceGatherCycles)
}

// ScatterLatency is the intra-chip fence distribution: merged fence at the
// edge back to a counted write landing in every GC's SRAM, including the
// blocking-read wake.
func (g *Geometry) ScatterLatency() sim.Time {
	return g.Clock.Cycles(g.Lat.FenceScatterCycles + g.Lat.MemWriteCycles + g.Lat.WakeCycles)
}

// FenceHopExtra is the additional per-torus-hop fence cost (see Latencies).
func (g *Geometry) FenceHopExtra() sim.Time {
	return g.Clock.Cycles(g.Lat.FenceHopExtraCycles)
}

// AllChannelSpecs enumerates the chip's channel slices for the dimensions
// present in machine shape s (a dimension of extent 1 has no channels).
func AllChannelSpecs(s topo.Shape) []ChannelSpec {
	var specs []ChannelSpec
	for _, d := range []topo.Dim{topo.X, topo.Y, topo.Z} {
		if s.Get(d) < 2 {
			continue
		}
		for _, dir := range []int{1, -1} {
			for sl := 0; sl < Slices; sl++ {
				specs = append(specs, ChannelSpec{Dim: d, Dir: dir, Slice: sl})
			}
		}
	}
	return specs
}
