// Machine-side wiring of the flag-gated observability layer: per-shard
// telemetry accumulator blocks (internal/telemetry) and the
// packet-lifecycle trace (per-shard trace.Recorders with one track per
// node channel plus park/escape/detour phase tracks). Everything here
// is off unless a harness calls EnableTelemetry or AttachPacketTrace;
// the hot-path touch points in send.go, vcq.go and fault.go guard on a
// nil per-shard pointer.
package machine

import (
	"fmt"

	"anton3/internal/chip"
	"anton3/internal/packet"
	"anton3/internal/sim"
	"anton3/internal/telemetry"
	"anton3/internal/topo"
	"anton3/internal/trace"
)

// EnableTelemetry arms the machine's telemetry collector — one flat
// accumulator block per shard, handed to the shard structs so hot-path
// updates are a nil check plus an array increment. Idempotent; survives
// Reset (which zeroes the counters but keeps the wiring).
func (m *Machine) EnableTelemetry() *telemetry.Collector {
	if m.tele == nil {
		m.tele = telemetry.NewCollector(len(m.shards))
		for s, sh := range m.shards {
			sh.tele = m.tele.Shard(s)
		}
	}
	return m.tele
}

// Telemetry returns the collector, or nil when telemetry is off.
func (m *Machine) Telemetry() *telemetry.Collector { return m.tele }

// CollectChannelBusy folds every channel's accumulated serialization
// time into the CtrChannelBusyPs counter (on shard 0's block — the
// channel bank is machine-global and byte-identical at any shard count,
// so attribution to a shard is arbitrary as long as it is fixed).
// Harnesses call it once per run, after the kernels drain.
func (m *Machine) CollectChannelBusy() {
	if m.tele == nil {
		return
	}
	var sum int64
	for i := range m.chanBank {
		sum += int64(m.chanBank[i].BusyTime())
	}
	m.tele.Shard(0).Ctr[telemetry.CtrChannelBusyPs] += sum
}

// ChannelBusy reports each wired outbound channel's accumulated
// serialization time in dense (node, spec) index order — the
// deterministic walk behind the saturation heatmap.
func (m *Machine) ChannelBusy(fn func(node topo.Coord, spec chip.ChannelSpec, busy sim.Time)) {
	for _, n := range m.nodes {
		for j, ch := range n.out {
			if ch != nil {
				fn(n.Coord, chip.ChannelSpecAt(j), ch.BusyTime())
			}
		}
	}
}

// noteUnpark records a parked packet's departure at now: park duration
// into the park histogram, parked flit-time (injection parks) or
// credit-stall time (transit-head parks) into the counters, and the
// park slice onto the node's trace track. Callers guard on
// sh.tele/sh.trec being non-nil so the default path pays one branch.
func (m *Machine) noteUnpark(n *Node, q *packet.Packet, now sim.Time, flits int32) {
	sh := n.sh
	dur := int64(now - q.ParkedAt)
	if sh.tele != nil {
		if q.In < 0 {
			sh.tele.Ctr[telemetry.CtrParkFlitPs] += dur * int64(flits)
		} else {
			sh.tele.Ctr[telemetry.CtrCreditStallPs] += dur
		}
		sh.tele.Park.Observe(dur)
	}
	if sh.trec != nil {
		sh.trec.Add(m.ptrace.park[n.idx], q.ParkedAt, now)
	}
}

// noteEscapeEntry records a hop accepted onto the escape VC pair: a
// counter bump and a 1-ps instant slice on the node's escape track.
func (m *Machine) noteEscapeEntry(sh *mshard, p *packet.Packet) {
	if sh.tele != nil {
		sh.tele.Ctr[telemetry.CtrEscapeVCEntries]++
	}
	if sh.trec != nil {
		now := sh.k.Now()
		sh.trec.Add(m.ptrace.esc[p.CurIdx], now, now+1)
	}
}

// noteFaultReroute records a parked packet being redispatched after a
// fault trip killed its committed output: a counter bump and a 1-ps
// instant on the node's detour track.
func (m *Machine) noteFaultReroute(n *Node, _ *packet.Packet, now sim.Time) {
	sh := n.sh
	if sh.tele != nil {
		sh.tele.Ctr[telemetry.CtrFaultReroutes]++
	}
	if sh.trec != nil {
		sh.trec.Add(m.ptrace.det[n.idx], now, now+1)
	}
}

// packetTrace is the machine's packet-lifecycle trace state: one
// recorder per shard (updated lock-free by the owning shard) and
// prebuilt track names per (node x spec) and per node, so the hot path
// never formats a string.
type packetTrace struct {
	recs   []*trace.Recorder
	chName []string // (node x spec) -> channel track, "" where unwired
	park   []string // node -> park-phase track
	esc    []string // node -> escape-VC-entry track
	det    []string // node -> fault-detour track
	order  []string // every track in node-index order, for pinning
}

// AttachPacketTrace arms packet-lifecycle tracing with the given track
// prefix (harnesses pass the policy name so several machines can drain
// into one recorder without colliding). One track per wired channel
// ("<prefix>/(x,y,z)/x+.s0" — serialization slices via the serdes
// OnSend hook), plus per-node park, escape and detour phase tracks.
// Intervals accumulate across Reset until DrainPacketTrace. Idempotent;
// overwrites any OnSend observer installed earlier (the timestep
// engine's AttachChannelTrace and this are mutually exclusive).
func (m *Machine) AttachPacketTrace(prefix string) {
	if m.ptrace != nil {
		return
	}
	pt := &packetTrace{
		recs:   make([]*trace.Recorder, len(m.shards)),
		chName: make([]string, len(m.nodes)*chip.NumChannelSpecs),
		park:   make([]string, len(m.nodes)),
		esc:    make([]string, len(m.nodes)),
		det:    make([]string, len(m.nodes)),
	}
	for s := range pt.recs {
		pt.recs[s] = trace.NewRecorder()
	}
	for i, n := range m.nodes {
		rec := pt.recs[n.sh.id]
		for j, ch := range n.out {
			if ch == nil {
				continue
			}
			name := fmt.Sprintf("%s/%v/%v", prefix, n.Coord, chip.ChannelSpecAt(j))
			pt.chName[int(n.idx)*chip.NumChannelSpecs+j] = name
			pt.order = append(pt.order, name)
			rec.Touch(name)
			r := rec
			ch.OnSend = func(_ *packet.Packet, start, end sim.Time) {
				r.Add(name, start, end)
			}
		}
		pt.park[i] = fmt.Sprintf("%s/%v/park", prefix, n.Coord)
		pt.esc[i] = fmt.Sprintf("%s/%v/escape", prefix, n.Coord)
		pt.det[i] = fmt.Sprintf("%s/%v/detour", prefix, n.Coord)
		pt.order = append(pt.order, pt.park[i], pt.esc[i], pt.det[i])
		rec.Touch(pt.park[i])
		rec.Touch(pt.esc[i])
		rec.Touch(pt.det[i])
	}
	m.ptrace = pt
	for _, sh := range m.shards {
		sh.trec = pt.recs[sh.id]
	}
}

// DrainPacketTrace moves every recorded interval into dst, pre-pinning
// the full track set in node-index order and draining shards in shard
// order — the same canonical layout at any shard count. No-op when
// tracing is off.
func (m *Machine) DrainPacketTrace(dst *trace.Recorder) {
	if m.ptrace == nil {
		return
	}
	for _, name := range m.ptrace.order {
		dst.Touch(name)
	}
	for _, rec := range m.ptrace.recs {
		rec.DrainInto(dst)
	}
}
