package serdes

import (
	"anton3/internal/packet"
	"anton3/internal/sim"
	"anton3/internal/topo"
)

// ChannelConfig parameterizes one channel direction between torus neighbors.
type ChannelConfig struct {
	Lanes    int // SERDES lanes in this direction (16 per neighbor)
	GbpsLane int // per-lane bandwidth (29 Gb/s on Anton 3)
	// FixedLatency is the load-independent part of a channel crossing:
	// SERDES tx, wire flight, SERDES rx/CDR, and the Channel Adapter logic
	// at both ends. Calibrated in chip.DefaultLatencies so that the
	// measured off-chip per-hop latency lands at the paper's 34.2 ns.
	FixedLatency sim.Time
	Compress     CompressConfig
}

// DefaultChannelConfig returns the production lane provisioning with the
// given fixed latency and compression settings.
func DefaultChannelConfig(fixed sim.Time, comp CompressConfig) ChannelConfig {
	return ChannelConfig{
		Lanes:        topo.SerdesPerNeighbor,
		GbpsLane:     topo.SerdesGbps,
		FixedLatency: fixed,
		Compress:     comp,
	}
}

// Channel is one direction of an inter-node link: a serialization server at
// the aggregate lane bandwidth (derated by frame overhead) preceded by the
// Channel Adapter compression pipeline. The Channel Adapter has enough
// buffering that the channel itself is the backpressure point, so the model
// queues packets in arrival order and serializes them back to back.
type Channel struct {
	k    *sim.Kernel
	cfg  ChannelConfig
	comp *Compressor

	// remote, when set, receives far-end arrivals instead of the local
	// kernel: the far end of this channel lives on another shard of a
	// sharded machine, and the arrival is merged into that shard's kernel
	// at the next window barrier. The channel's FixedLatency is the
	// lookahead that makes the deferral safe.
	remote sim.Deferrer

	// psPerBitNum/Den express picoseconds per payload bit as a ratio so
	// no floating point enters timing: ps/bit = 1000 / (lanes*gbps) scaled
	// by frame overhead 64/60.
	psNum int64
	psDen int64

	busy     sim.Time
	busyTime sim.Time

	// Fault state (see internal/fault). A dead channel refuses injection —
	// the flow-control layer above must stop offering it traffic before
	// marking it dead, so transmit on a dead channel is a routing bug, not a
	// silent drop. bwDiv/latMult degrade serialization bandwidth and fixed
	// latency; zero means healthy. Degradation applies inside transmit, not
	// SerializeTime: callers use SerializeTime as the healthy load unit
	// (offered-load normalization), which must not drift when a link
	// degrades.
	dead    bool
	bwDiv   int64
	latMult int64

	// OnSend, when set, observes each serialization interval (activity
	// tracing for the Figure 12 machine activity plots).
	OnSend func(p *packet.Packet, start, end sim.Time)
}

// NewChannel builds a channel direction on kernel k.
func NewChannel(k *sim.Kernel, cfg ChannelConfig) *Channel {
	ch := &Channel{}
	ch.Init(k, cfg)
	return ch
}

// Init initializes ch in place on kernel k, for callers that lay channels
// out in one flat bank (the machine keeps all of a shape's channels in a
// single array indexed by node and dense spec index, so the serialization
// horizons the hot path bumps sit in contiguous memory instead of one heap
// object per channel).
func (ch *Channel) Init(k *sim.Kernel, cfg ChannelConfig) {
	if cfg.Lanes <= 0 || cfg.GbpsLane <= 0 {
		panic("serdes: invalid channel config")
	}
	*ch = Channel{
		k:    k,
		cfg:  cfg,
		comp: NewCompressor(cfg.Compress),
		// ps/bit = 1000/(lanes*gbps) * (FrameBytes/(FrameBytes-Overhead))
		psNum: 1000 * FrameBytes,
		psDen: int64(cfg.Lanes) * int64(cfg.GbpsLane) * (FrameBytes - FrameOverheadBytes),
	}
}

// Compressor exposes the channel's compression pipeline for statistics.
func (ch *Channel) Compressor() *Compressor { return ch.comp }

// SetRemote routes far-end arrivals through d instead of the local kernel
// (cross-shard channels of a sharded machine).
func (ch *Channel) SetRemote(d sim.Deferrer) { ch.remote = d }

// Reset returns the channel to its just-built state — serialization
// horizon, busy-time accounting, compression pipeline and fault state —
// so a reused machine's channels start a fresh run with no history. The
// machine re-applies its fault plan after resetting channels.
func (ch *Channel) Reset() {
	ch.busy, ch.busyTime = 0, 0
	ch.dead, ch.bwDiv, ch.latMult = false, 0, 0
	ch.comp.Reset()
}

// SetFault degrades the channel: bandwidth divided by bwDiv, fixed latency
// multiplied by latMult (either may be 0 or 1 for "unchanged"). The latency
// multiplier only ever lengthens FixedLatency, so a sharded executive whose
// lookahead was computed from the healthy latency stays conservative.
func (ch *Channel) SetFault(bwDiv, latMult int) {
	ch.bwDiv, ch.latMult = int64(bwDiv), int64(latMult)
}

// SetDead marks the channel dead (or revives it). Transmitting on a dead
// channel panics — upstream flow control must park traffic instead.
func (ch *Channel) SetDead(dead bool) { ch.dead = dead }

// Dead reports whether the channel has been killed by a fault.
func (ch *Channel) Dead() bool { return ch.dead }

// SerializeTime returns the time to put bits on the lanes, including frame
// overhead derating.
func (ch *Channel) SerializeTime(bits int) sim.Time {
	return sim.Time((int64(bits)*ch.psNum + ch.psDen - 1) / ch.psDen)
}

// FixedLatency reports the load-independent crossing latency (SERDES, wire
// flight, adapters). Credit-based flow control rides sideband credits over
// the reverse channel, so the machine's credit returns are timed with the
// reverse channel's FixedLatency — which is also what makes the returns
// deferrable across shard windows (it equals the executive's lookahead
// floor).
func (ch *Channel) FixedLatency() sim.Time { return ch.cfg.FixedLatency }

// Busy reports the current serialization horizon (diagnostics).
func (ch *Channel) Busy() sim.Time { return ch.busy }

// BusyTime reports total serialization time accumulated since the last
// Reset — read post-run by the telemetry layer for per-channel busy
// accounting and the saturation heatmap, so the hot path pays nothing.
func (ch *Channel) BusyTime() sim.Time { return ch.busyTime }

// SendPacket compresses and serializes p and schedules the reconstructed
// packet (a sim.Actor whose walk state encodes what arrival means) at the
// far end after serialization plus the fixed SERDES/wire latency, and
// returns that arrival time. Delivery order always matches send order —
// the in-order property the network fence builds on.
func (ch *Channel) SendPacket(p *packet.Packet) sim.Time {
	out, arrival := ch.transmit(p)
	if ch.remote != nil {
		ch.remote.Defer(arrival, out)
	} else {
		ch.k.AtActor(arrival, out)
	}
	return arrival
}

func (ch *Channel) transmit(p *packet.Packet) (*packet.Packet, sim.Time) {
	if ch.dead {
		panic("serdes: transmit on a dead channel (routing/flow-control bug)")
	}
	out, bits := ch.comp.Transmit(p)
	ser := ch.SerializeTime(bits)
	if ch.bwDiv > 1 {
		ser *= sim.Time(ch.bwDiv)
	}
	lat := ch.cfg.FixedLatency
	if ch.latMult > 1 {
		lat *= sim.Time(ch.latMult)
	}
	now := ch.k.Now()
	start := ch.busy
	if start < now {
		start = now
	}
	ch.busy = start + ser
	ch.busyTime += ser
	arrival := ch.busy + lat
	if ch.OnSend != nil {
		ch.OnSend(p, start, ch.busy)
	}
	return out, arrival
}
