// Package serdes models the Anton 3 I/O channels: 16 SERDES lanes per torus
// neighbor at 29 Gb/s per lane per direction, with the Channel Adapter's
// compression stages (INZ and the particle cache) and byte-granularity
// packing of compressed payloads into fixed-length channel frames
// (Sections II-B and IV).
package serdes

import (
	"fmt"

	"anton3/internal/inz"
	"anton3/internal/packet"
	"anton3/internal/pcache"
)

// Wire format constants.
const (
	// FrameBytes is the fixed channel frame length; FrameOverheadBytes of
	// it carry CRC/sequencing, so payload efficiency is 60/64.
	FrameBytes         = 64
	FrameOverheadBytes = 4

	// FullHeaderBits is the uncompressed packet header (64-bit flit header).
	FullHeaderBits = packet.HeaderBits
	// CompressedHeaderBits is the short header of a particle-cache-hit
	// position packet: a 10-bit cache index plus type/flag bits.
	CompressedHeaderBits = 16
	// LengthNibbleBits is the per-payload valid-byte count (0-16) prepended
	// when INZ is active so the unpacker can find payload boundaries in a
	// densely packed frame.
	LengthNibbleBits = 4
)

// CompressConfig selects which compression features are active. Both can be
// independently disabled, which is how the paper isolates their benefits in
// Figure 9.
type CompressConfig struct {
	INZ    bool
	Pcache bool
	// PcacheConfig sizes the particle cache; zero value means
	// pcache.DefaultConfig.
	PcacheConfig pcache.Config
}

// EnabledString names the configuration the way the paper's figures do.
func (c CompressConfig) EnabledString() string {
	switch {
	case c.INZ && c.Pcache:
		return "inz+pcache"
	case c.INZ:
		return "inz"
	case c.Pcache:
		return "pcache"
	default:
		return "off"
	}
}

// Stats aggregates wire traffic through one compressor.
type Stats struct {
	Packets        uint64
	WireBits       uint64 // bits after compression, before framing
	BaselineBits   uint64 // bits the same packets would cost uncompressed
	PositionBits   uint64
	ForceBits      uint64
	OtherBits      uint64
	PcacheHits     uint64
	PcacheMisses   uint64
	RawINZPayloads uint64 // payloads where INZ was abandoned
}

// Add accumulates o's counters into s.
func (s *Stats) Add(o Stats) {
	s.Packets += o.Packets
	s.WireBits += o.WireBits
	s.BaselineBits += o.BaselineBits
	s.PositionBits += o.PositionBits
	s.ForceBits += o.ForceBits
	s.OtherBits += o.OtherBits
	s.PcacheHits += o.PcacheHits
	s.PcacheMisses += o.PcacheMisses
	s.RawINZPayloads += o.RawINZPayloads
}

// Reduction returns the fractional traffic reduction vs. the uncompressed
// baseline (the quantity plotted in Figure 9a).
func (s Stats) Reduction() float64 {
	if s.BaselineBits == 0 {
		return 0
	}
	return 1 - float64(s.WireBits)/float64(s.BaselineBits)
}

// Compressor is the send-side Channel Adapter compression pipeline for one
// channel direction, paired with its receive-side state. Transmit returns
// the exact packet the far Channel Adapter reconstructs; tests assert it is
// identical to the input (compression is transparent to endpoints).
type Compressor struct {
	cfg   CompressConfig
	pair  *pcache.Pair
	stats Stats
}

// pcacheConfig resolves the effective particle cache sizing: the zero
// value means pcache.DefaultConfig. NewCompressor and Reset must agree on
// this, or a reset channel would rebuild a differently-sized cache.
func (c CompressConfig) pcacheConfig() pcache.Config {
	if c.PcacheConfig == (pcache.Config{}) {
		return pcache.DefaultConfig
	}
	return c.PcacheConfig
}

// NewCompressor builds the pipeline for one channel direction.
func NewCompressor(cfg CompressConfig) *Compressor {
	c := &Compressor{cfg: cfg}
	if cfg.Pcache {
		c.pair = pcache.NewPair(cfg.pcacheConfig())
	}
	return c
}

// Stats returns a copy of the traffic counters.
func (c *Compressor) Stats() Stats { return c.stats }

// Reset clears the traffic counters and rebuilds the particle cache pair,
// returning the pipeline to its just-constructed state for machine reuse.
func (c *Compressor) Reset() {
	c.stats = Stats{}
	if c.pair != nil {
		c.pair = pcache.NewPair(c.cfg.pcacheConfig())
	}
}

// CacheStats returns particle cache outcome counters (zero Stats when the
// cache is disabled).
func (c *Compressor) CacheStats() pcache.Stats {
	if c.pair == nil {
		return pcache.Stats{}
	}
	return c.pair.SendStats()
}

// payloadBits returns the on-wire cost of a packet's payload given INZ.
func (c *Compressor) payloadBits(quad [4]uint32) int {
	if !c.cfg.INZ {
		return packet.PayloadBits
	}
	n, raw := inz.Size(quad)
	if raw {
		c.stats.RawINZPayloads++
	}
	return LengthNibbleBits + 8*n
}

// Transmit compresses one packet, accounts its wire cost, and returns the
// packet as reconstructed on the receive side plus the bits that crossed
// the channel. EndOfStep packets advance the particle cache time step
// counters on both sides.
func (c *Compressor) Transmit(p *packet.Packet) (out *packet.Packet, wireBits int) {
	c.stats.Packets++
	baseline := FullHeaderBits
	if p.Words > 0 {
		baseline += packet.PayloadBits
	}
	c.stats.BaselineBits += uint64(baseline)

	out = p
	switch {
	case p.Type == packet.EndOfStep:
		if c.pair != nil {
			c.pair.Tick()
		}
		wireBits = FullHeaderBits

	case p.Type == packet.Position && c.cfg.Pcache:
		pos := [3]int32{int32(p.Payload[0]), int32(p.Payload[1]), int32(p.Payload[2])}
		gotID, gotPos, tx := c.pair.Transmit(p.AtomID, pos)
		if gotID != p.AtomID || gotPos != pos {
			panic("serdes: particle cache was not lossless")
		}
		if tx.Compressed {
			c.stats.PcacheHits++
			resid := [4]uint32{uint32(tx.Residual[0]), uint32(tx.Residual[1]), uint32(tx.Residual[2]), 0}
			wireBits = CompressedHeaderBits + c.payloadBits(resid)
		} else {
			c.stats.PcacheMisses++
			wireBits = FullHeaderBits + c.payloadBits(p.Payload)
		}

	case p.Words > 0:
		wireBits = FullHeaderBits + c.payloadBits(p.Payload)

	default:
		wireBits = FullHeaderBits
	}

	c.stats.WireBits += uint64(wireBits)
	switch p.Type {
	case packet.Position:
		c.stats.PositionBits += uint64(wireBits)
	case packet.Force:
		c.stats.ForceBits += uint64(wireBits)
	default:
		c.stats.OtherBits += uint64(wireBits)
	}
	return out, wireBits
}

// InSync reports whether the two particle cache sides agree (always true;
// exported for invariant checks in tests and long simulations).
func (c *Compressor) InSync() bool {
	return c.pair == nil || c.pair.InSync()
}

func (c *Compressor) String() string {
	return fmt.Sprintf("compressor(%s)", c.cfg.EnabledString())
}
