package serdes

import (
	"testing"

	"anton3/internal/packet"
	"anton3/internal/sim"
	"anton3/internal/testutil"
)

func posPacket(id uint32, pos [3]int32) *packet.Packet {
	p := &packet.Packet{Type: packet.Position, AtomID: id}
	p.SetQuad([4]uint32{uint32(pos[0]), uint32(pos[1]), uint32(pos[2]), 0})
	return p
}

// arrivalWalker stands in for the machine's packet.Walker: each packet
// arriving at the channel's far end is handed to the function.
type arrivalWalker func(*packet.Packet)

func (w arrivalWalker) OnPacket(p *packet.Packet) { w(p) }

// send transmits p over ch and hands its far-end arrival to deliver.
func send(ch *Channel, p *packet.Packet, deliver func(*packet.Packet)) {
	p.Walker = arrivalWalker(deliver)
	ch.SendPacket(p)
}

func ignore(*packet.Packet) {}

func forcePacket(f [3]int32) *packet.Packet {
	p := &packet.Packet{Type: packet.Force}
	p.SetQuad([4]uint32{uint32(f[0]), uint32(f[1]), uint32(f[2]), 0})
	return p
}

func TestBaselineCost(t *testing.T) {
	c := NewCompressor(CompressConfig{})
	_, bits := c.Transmit(posPacket(1, [3]int32{1 << 20, 1 << 21, 1 << 22}))
	if bits != FullHeaderBits+packet.PayloadBits {
		t.Fatalf("uncompressed payload packet = %d bits, want 192", bits)
	}
	_, bits = c.Transmit(&packet.Packet{Type: packet.CountedWrite})
	if bits != FullHeaderBits {
		t.Fatalf("header-only = %d bits, want 64", bits)
	}
	if c.Stats().Reduction() != 0 {
		t.Fatalf("baseline reduction = %v, want 0", c.Stats().Reduction())
	}
}

func TestINZReducesSmallPayloads(t *testing.T) {
	c := NewCompressor(CompressConfig{INZ: true})
	_, bits := c.Transmit(forcePacket([3]int32{120000, -90000, 45000})) // ~17-bit forces
	// 3 words x ~18 bits interleaved ~ 54 bits -> 7 bytes + nibble + header.
	if bits >= FullHeaderBits+packet.PayloadBits {
		t.Fatalf("INZ did not compress: %d bits", bits)
	}
	if bits > FullHeaderBits+LengthNibbleBits+8*8 {
		t.Fatalf("INZ force packet = %d bits, want <= %d", bits, FullHeaderBits+LengthNibbleBits+64)
	}
}

func TestINZAbandonCostsNibbleExtra(t *testing.T) {
	c := NewCompressor(CompressConfig{INZ: true})
	p := &packet.Packet{Type: packet.Force}
	p.SetQuad([4]uint32{0xdeadbeef, 0xcafebabe, 0x12345678, 0x9abcdef0})
	_, bits := c.Transmit(p)
	if bits != FullHeaderBits+LengthNibbleBits+packet.PayloadBits {
		t.Fatalf("abandoned INZ = %d bits", bits)
	}
	if c.Stats().RawINZPayloads != 1 {
		t.Fatal("raw payload not counted")
	}
}

func TestPcacheHitPath(t *testing.T) {
	c := NewCompressor(CompressConfig{INZ: true, Pcache: true})
	// Miss on first sight: full packet.
	_, missBits := c.Transmit(posPacket(7, [3]int32{1 << 24, 1 << 24, 1 << 24}))
	// Smooth motion: subsequent steps hit with tiny residuals.
	var hitBits int
	for i := int32(1); i <= 4; i++ {
		_, hitBits = c.Transmit(posPacket(7, [3]int32{1<<24 + 1000*i, 1<<24 + 1000*i, 1<<24 + 1000*i}))
	}
	if hitBits >= missBits {
		t.Fatalf("hit (%d bits) not cheaper than miss (%d bits)", hitBits, missBits)
	}
	// Warmed quadratic predictor on linear motion: residual 0 ->
	// compressed header + nibble + 0 payload bytes.
	if hitBits != CompressedHeaderBits+LengthNibbleBits {
		t.Fatalf("steady-state hit = %d bits, want %d", hitBits, CompressedHeaderBits+LengthNibbleBits)
	}
	st := c.Stats()
	if st.PcacheHits != 4 || st.PcacheMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !c.InSync() {
		t.Fatal("cache sides desynchronized")
	}
}

func TestEndOfStepTicksCaches(t *testing.T) {
	c := NewCompressor(CompressConfig{Pcache: true})
	c.Transmit(posPacket(1, [3]int32{0, 0, 0}))
	_, bits := c.Transmit(&packet.Packet{Type: packet.EndOfStep})
	if bits != FullHeaderBits {
		t.Fatalf("end-of-step = %d bits", bits)
	}
	if c.pair == nil {
		t.Fatal("pcache missing")
	}
}

func TestReductionAccounting(t *testing.T) {
	c := NewCompressor(CompressConfig{INZ: true})
	for i := 0; i < 100; i++ {
		c.Transmit(forcePacket([3]int32{1000, -2000, 3000}))
	}
	r := c.Stats().Reduction()
	// ~13-bit forces: header 64 + nibble 4 + 6 payload bytes = 116 bits
	// vs 192 baseline -> ~40% reduction.
	if r < 0.35 || r > 0.45 {
		t.Fatalf("reduction = %v, want ~0.40", r)
	}
}

func TestChannelSerializationRate(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, DefaultChannelConfig(0, CompressConfig{}))
	// 16 lanes x 29 Gb/s = 464 Gb/s raw; with 60/64 framing the effective
	// payload rate is 435 Gb/s -> a 192-bit packet takes ~442 ps.
	got := ch.SerializeTime(192)
	if got < 430 || got > 450 {
		t.Fatalf("192-bit serialization = %v ps, want ~441", got)
	}
}

func TestChannelDeliveryOrderAndLatency(t *testing.T) {
	k := sim.NewKernel()
	fixed := 25 * sim.Nanosecond
	ch := NewChannel(k, DefaultChannelConfig(fixed, CompressConfig{}))
	var arrivals []sim.Time
	var ids []uint64
	n := 10
	for i := 0; i < n; i++ {
		p := &packet.Packet{ID: uint64(i), Type: packet.Force}
		p.SetQuad([4]uint32{1, 2, 3, 4})
		send(ch, p, func(q *packet.Packet) {
			arrivals = append(arrivals, k.Now())
			ids = append(ids, q.ID)
		})
	}
	k.Run()
	if len(arrivals) != n {
		t.Fatalf("delivered %d", len(arrivals))
	}
	for i := range ids {
		if ids[i] != uint64(i) {
			t.Fatalf("out of order: %v", ids)
		}
	}
	// First packet: serialization + fixed latency.
	ser := ch.SerializeTime(192)
	if arrivals[0] != ser+fixed {
		t.Fatalf("first arrival %v, want %v", arrivals[0], ser+fixed)
	}
	// Back-to-back packets are spaced by exactly one serialization time.
	for i := 1; i < n; i++ {
		if arrivals[i]-arrivals[i-1] != ser {
			t.Fatalf("spacing %v, want %v", arrivals[i]-arrivals[i-1], ser)
		}
	}
}

func TestChannelUtilization(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, DefaultChannelConfig(0, CompressConfig{}))
	p := &packet.Packet{Type: packet.Force}
	p.SetQuad([4]uint32{1, 2, 3, 4})
	send(ch, p, ignore)
	k.Run()
	// An uncompressed force packet is 192 bits on the wire.
	if got, want := ch.BusyTime(), ch.SerializeTime(192); got != want {
		t.Fatalf("busy time = %v after one packet, want its serialization time %v", got, want)
	}
}

func TestCompressorLosslessUnderLoad(t *testing.T) {
	// Drive a compressing channel with drifting atoms and verify every
	// reconstructed packet matches its input.
	k := sim.NewKernel()
	ch := NewChannel(k, DefaultChannelConfig(10*sim.Nanosecond, CompressConfig{INZ: true, Pcache: true}))
	type sent struct {
		id  uint32
		pos [3]int32
	}
	var inputs []sent
	var outputs []sent
	for step := int32(0); step < 6; step++ {
		for id := uint32(0); id < 200; id++ {
			pos := [3]int32{int32(id)*4096 + step*700, step * 650, -step * 800}
			inputs = append(inputs, sent{id, pos})
			send(ch, posPacket(id, pos), func(q *packet.Packet) {
				outputs = append(outputs, sent{q.AtomID,
					[3]int32{int32(q.Payload[0]), int32(q.Payload[1]), int32(q.Payload[2])}})
			})
		}
		send(ch, &packet.Packet{Type: packet.EndOfStep}, ignore)
	}
	k.Run()
	if len(outputs) != len(inputs) {
		t.Fatalf("delivered %d of %d", len(outputs), len(inputs))
	}
	for i := range inputs {
		if inputs[i] != outputs[i] {
			t.Fatalf("packet %d corrupted: sent %+v got %+v", i, inputs[i], outputs[i])
		}
	}
	st := ch.Compressor().Stats()
	if st.Reduction() < 0.3 {
		t.Fatalf("warm compressing channel reduction = %v, want > 0.3", st.Reduction())
	}
	if !ch.Compressor().InSync() {
		t.Fatal("caches desynchronized")
	}
}

// TestCompressorTransmitAllocFree pins the channel compression path at
// zero heap allocations: a warm INZ+pcache compressor sizes each payload
// with inz.Size and updates its cache pair in place, for position packets
// that hit and miss the particle cache and for force packets.
func TestCompressorTransmitAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	c := NewCompressor(CompressConfig{INZ: true, Pcache: true})
	hit := posPacket(7, [3]int32{})
	miss := posPacket(0, [3]int32{1 << 24, -1 << 22, 1 << 20})
	force := forcePacket([3]int32{120000, -90000, 45000})
	eos := &packet.Packet{Type: packet.EndOfStep}
	var step int32
	nextID := uint32(1000)
	send := func() {
		step++
		hit.SetQuad([4]uint32{uint32(1<<24 + 1000*step), uint32(-1<<22 - 700*step), uint32(300 * step), 0})
		c.Transmit(hit)
		miss.AtomID = nextID // an atom the cache has never seen
		nextID++
		c.Transmit(miss)
		c.Transmit(force)
		c.Transmit(eos)
	}
	for i := 0; i < 4; i++ {
		send()
	}
	before := c.Stats()
	if n := testing.AllocsPerRun(10, send); n != 0 {
		t.Fatalf("Transmit allocates %.1f times per round warm, want 0", n)
	}
	after := c.Stats()
	if after.PcacheHits == before.PcacheHits || after.PcacheMisses == before.PcacheMisses {
		t.Fatalf("measured rounds must both hit and miss: before %+v, after %+v", before, after)
	}
}

func TestEnabledString(t *testing.T) {
	if (CompressConfig{}).EnabledString() != "off" ||
		(CompressConfig{INZ: true}).EnabledString() != "inz" ||
		(CompressConfig{Pcache: true}).EnabledString() != "pcache" ||
		(CompressConfig{INZ: true, Pcache: true}).EnabledString() != "inz+pcache" {
		t.Fatal("EnabledString broken")
	}
}
