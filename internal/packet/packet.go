// Package packet defines the Anton 3 network packet format. Packets are
// small and fixed-size: one or two flits, each flit 192 bits (a 64-bit
// header and a 128-bit payload), enabling fast virtual cut-through flow
// control with 8-flit-per-VC router input queues (Section III-B).
package packet

import (
	"fmt"

	"anton3/internal/sim"
	"anton3/internal/topo"
)

// Flit geometry (Section III-B).
const (
	FlitBits       = 192
	HeaderBits     = 64
	PayloadBits    = 128
	HeaderBytes    = HeaderBits / 8
	PayloadBytes   = PayloadBits / 8
	PayloadWords   = 4
	MaxFlitsPerPkt = 2
)

// RouteCap is the longest hop list a packet can carry precomputed (see
// Packet.Route); it covers the diameter of every production shape (the
// 512-node 8x8x8 machine's is 12). Longer routes fall back to per-hop
// decisions.
const RouteCap = 24

// Class separates the two protocol traffic classes whose independence
// avoids request-response deadlock.
type Class uint8

// Traffic classes.
const (
	Request Class = iota
	Response
)

func (c Class) String() string {
	if c == Request {
		return "request"
	}
	return "response"
}

// Type identifies what a packet carries.
type Type uint8

// Packet types used by the MD application protocol.
const (
	// CountedWrite writes a quad to remote SRAM and increments the quad's
	// counter (Section III-A). Request class.
	CountedWrite Type = iota
	// CountedAccum is a counted write that accumulates (adds) into the
	// quad instead of overwriting — the force-summation form.
	CountedAccum
	// ReadReq asks a remote SRAM for a quad. Request class.
	ReadReq
	// ReadResp returns the quad. Response class.
	ReadResp
	// Position carries an atom position (stream-set export). Request class.
	Position
	// Force carries a computed force back to the atom's GC. Request class
	// (the MD protocol architects almost all traffic as requests).
	Force
	// Fence is a network fence packet (Section V). Request class.
	Fence
	// EndOfStep is the special packet software sends down each channel to
	// advance the particle cache time step counter (Section IV-B1).
	EndOfStep
)

func (t Type) String() string {
	switch t {
	case CountedWrite:
		return "counted-write"
	case CountedAccum:
		return "counted-accum"
	case ReadReq:
		return "read-req"
	case ReadResp:
		return "read-resp"
	case Position:
		return "position"
	case Force:
		return "force"
	case Fence:
		return "fence"
	case EndOfStep:
		return "end-of-step"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Class returns the traffic class for the type.
func (t Type) Class() Class {
	if t == ReadResp {
		return Response
	}
	return Request
}

// Deliverer receives a packet at its destination endpoint, after the SRAM
// update. Implementations must not retain p past the call: pooled packets
// are recycled as soon as Deliver returns.
type Deliverer interface {
	Deliver(p *Packet)
}

// Accepter is notified when a packet that the network initially refused —
// parked at its first-hop channel for lack of downstream virtual-channel
// credits (WalkParked) — is finally accepted and starts injecting.
// Closed-loop traffic sources use it to free an injection-queue slot and
// resume generation. Only packets whose OnAccept field is set get the
// callback, and only on the parked path: a packet accepted immediately is
// never reported (Send returns with the packet out of WalkParked, which
// tells the caller the same thing synchronously).
type Accepter interface {
	Accepted(p *Packet)
}

// Walker advances a packet through the network. The machine installs itself
// as the walker when it accepts a packet; each timing event then fires the
// packet itself (Packet implements sim.Actor) and the walker interprets the
// packet's embedded walk state. This replaces a chain of per-hop scheduled
// closures with a single reusable handler, which is what makes the
// steady-state hot path allocation-free.
type Walker interface {
	OnPacket(p *Packet)
}

// WalkState says what a packet's next firing means to its Walker.
type WalkState uint8

// Walk states of the machine packet pipeline.
const (
	// WalkIdle: not in flight (freshly built or recycled).
	WalkIdle WalkState = iota
	// WalkTransit: the inject/transit latency has elapsed; cross the
	// outbound channel Out at node Cur.
	WalkTransit
	// WalkArrive: the packet just emerged from a channel at node Cur,
	// having entered through receiver-side channel In; decide the next hop
	// or start ejecting.
	WalkArrive
	// WalkApply: the eject/on-chip latency has elapsed; apply the packet at
	// its destination and deliver.
	WalkApply
	// WalkFenceMerge: the fence per-hop latency has elapsed; merge this
	// fence copy at node Cur on channel In.
	WalkFenceMerge
	// WalkParked: the packet is held by credit flow control (per-VC ingress
	// queues enabled) — parked at the channel chosen in Out/OutVC until the
	// downstream virtual-channel queue returns enough credits. No event is
	// pending for a parked packet; the credit arrival revives it.
	WalkParked
)

// CoreID locates a Geometry Core (or other endpoint) on a chip: the tile
// and which of the tile's two GCs.
type CoreID struct {
	Tile topo.MeshCoord
	GC   int // 0 or 1
}

func (c CoreID) String() string { return fmt.Sprintf("%v.gc%d", c.Tile, c.GC) }

// Packet is a network packet. Fields that a real header squeezes into 64
// bits are kept as plain struct members; WireHeaderBytes accounts for the
// on-wire cost.
type Packet struct {
	ID   uint64
	Type Type

	SrcNode topo.Coord
	DstNode topo.Coord
	SrcCore CoreID
	DstCore CoreID

	// Addr is the SRAM quad address for write/read types.
	Addr uint32
	// AtomID tags position/force packets (one of the "static fields" the
	// particle cache replaces with a cache index on hits).
	AtomID uint32
	// Threshold is the blocking-read counter threshold for ReadReq.
	Threshold uint8

	// Payload carries up to four 32-bit words; Words says how many are
	// meaningful. Packets with Words == 0 are single-flit (header only).
	Payload [PayloadWords]uint32
	Words   int

	// Order is the dimension order assigned at injection (requests get a
	// random one of the six; responses are always XYZ).
	Order topo.DimOrder

	// FenceID and FenceHops parameterize fence packets.
	FenceID   int
	FenceHops int

	// Injected is when the packet entered the network, for latency
	// accounting.
	Injected sim.Time

	// ParkedAt is when credit flow control last parked this packet (at
	// injection or as a transit queue head), read at revival for
	// park-duration telemetry. Zeroed with the rest of the struct when
	// the packet returns to its pool.
	ParkedAt sim.Time

	// Walk state, owned by the Walker while the packet is in flight. Cur is
	// the node the packet is at (or entering) and CurIdx its dense
	// topo.Shape.Index — the machine keeps both in sync so the hot loop
	// indexes flat per-node tables without re-linearizing coordinates. Out
	// and In are dense chip.ChannelSpec indices (chip.ChannelSpec.Index) of
	// the chosen outbound channel and of the receiver-side channel just
	// crossed (-1 at the source). Slice pins the channel slice for the whole
	// walk; Tie is the even-ring direction tie-break fixed at injection.
	Walker Walker
	Done   Deliverer
	Cur    topo.Coord
	CurIdx int32
	State  WalkState
	Out    int8
	In     int8
	Slice  int8
	Tie    bool

	// Route is the packet's precomputed hop list: dense channel-spec
	// indices, one per hop, filled at injection for routes that are a pure
	// function of (src, dst, order, tie) — every oblivious policy and all
	// responses. RoutePos is the next unconsumed hop; RouteLen is the hop
	// count, or -1 when hops are decided per hop instead (adaptive
	// policies, routes longer than RouteCap, or a packet diverted onto an
	// escape channel by credit flow control).
	Route    [RouteCap]int8
	RoutePos int8
	RouteLen int8

	// Virtual-channel walk state, used only when the machine models per-VC
	// ingress queues (machine.Config.VCQueueFlits > 0). VC is the virtual
	// channel whose ingress-queue credits the packet currently holds (or,
	// for a packet still queued at a node, the queue it occupies); OutVC is
	// the VC chosen for the next hop while the packet waits for credits.
	// CurDim and Crossed track the dateline rule that drives the VC
	// assignment: Crossed flips when the packet traverses the wraparound
	// link of the dimension it is traversing and resets on a dimension
	// change, mirroring route.HopVCs.
	VC      int8
	OutVC   int8
	CurDim  int8
	CurDir  int8 // direction of travel within CurDim (+1/-1, 0 before first hop)
	Crossed bool
	// EscDirs records, per torus dimension, the direction this packet has
	// committed to under fault rerouting (0 = uncommitted). Once a dead
	// link forces the escape path to reverse a dimension, the packet must
	// finish that dimension in the reversed direction — bouncing back toward
	// the minimal side would re-meet the dead link and livelock.
	EscDirs [3]int8
	// OnAccept, when set, is notified if this packet parks at its first-hop
	// channel and is later revived by a credit arrival (see Accepter).
	OnAccept Accepter

	// PreRouted marks a request packet whose Order and Tie were assigned
	// by the caller before Send; the machine then skips its own rng draws.
	// Harnesses that run on sharded machines pre-draw routing decisions in
	// the sequential kernel's order so that results do not depend on the
	// shard count.
	PreRouted bool

	// Hist and Inj are the packet's event lineage, maintained by the
	// machine only on sharded runs: the fire times of every past event of
	// this packet's walk (oldest first), and the global setup order of its
	// injection event. Shard kernels in lineage mode use them to order
	// same-timestamp events exactly as a sequential kernel would
	// (sim.Lineaged).
	Hist []sim.Time
	Inj  uint64

	pooled bool
}

// Lineage implements sim.Lineaged.
func (p *Packet) Lineage() ([]sim.Time, uint64) { return p.Hist, p.Inj }

// HistCap is the lineage-chain capacity PushHist sizes a fresh packet's
// history to: enough for the walk of a diameter-12 route (two events per
// hop plus injection and apply) without regrowing.
const HistCap = 32

// PushHist appends t to the packet's lineage chain. The first growth jumps
// straight to HistCap instead of walking the append doubling series, so a
// fresh packet's whole walk costs one history allocation — the dominant
// allocator in sharded runs before this (Pool.Put keeps the capacity, so
// recycled packets pay nothing).
func (p *Packet) PushHist(t sim.Time) {
	if cap(p.Hist) == 0 {
		p.Hist = make([]sim.Time, 0, HistCap)
	}
	p.Hist = append(p.Hist, t)
}

// Act fires the packet's next walk step (sim.Actor).
func (p *Packet) Act() { p.Walker.OnPacket(p) }

// Pool is a packet free list. Get returns a zeroed packet; Put recycles a
// packet obtained from Get and ignores packets built elsewhere, so harness
// code may mix pooled and literal packets freely. Not safe for concurrent
// use — like a Kernel, a Pool belongs to one simulated machine.
type Pool struct {
	free []*Packet
}

// Get returns a zeroed packet, recycling a previously Put one if possible.
func (pl *Pool) Get() *Packet {
	n := len(pl.free) - 1
	if n < 0 {
		return &Packet{pooled: true}
	}
	p := pl.free[n]
	pl.free[n] = nil
	pl.free = pl.free[:n]
	return p
}

// Put recycles p if it came from Get; packets allocated directly are left
// to the garbage collector. p must not be referenced after Put.
func (pl *Pool) Put(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	hist := p.Hist[:0]
	*p = Packet{pooled: true, Hist: hist}
	pl.free = append(pl.free, p)
}

// Size reports the number of pooled packets.
func (pl *Pool) Size() int { return len(pl.free) }

// MoveTo transfers up to n pooled packets from pl to dst and reports how
// many actually moved. Sharded machines recycle a packet into the pool of
// the shard that delivered it, so cross-shard traffic makes per-shard
// pools drift apart run over run; the machine uses MoveTo between runs to
// even them back out, keeping steady-state Get calls allocation-free.
func (pl *Pool) MoveTo(dst *Pool, n int) int {
	moved := 0
	for moved < n {
		i := len(pl.free) - 1
		if i < 0 {
			break
		}
		p := pl.free[i]
		pl.free[i] = nil
		pl.free = pl.free[:i]
		dst.free = append(dst.free, p)
		moved++
	}
	return moved
}

// Flits returns the packet's flit count: one for header-only packets, two
// when a payload is attached.
func (p *Packet) Flits() int {
	if p.Words == 0 {
		return 1
	}
	return 2
}

// WireBits is the on-chip cost of the packet in bits.
func (p *Packet) WireBits() int { return p.Flits() * FlitBits }

// Quad returns the payload as a quad value.
func (p *Packet) Quad() [4]uint32 { return p.Payload }

// SetQuad installs a full quad payload.
func (p *Packet) SetQuad(q [4]uint32) {
	p.Payload = q
	p.Words = PayloadWords
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %s %v->%v", p.ID, p.Type, p.SrcNode, p.DstNode)
}
