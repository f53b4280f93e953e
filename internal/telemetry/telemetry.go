// Package telemetry is the simulator's flag-gated observability layer:
// a fixed registry of per-shard counters and log-bucketed latency
// histograms, merged in shard order so every derived report is
// byte-identical at any -shards/-jobs count, plus a Chrome trace-event
// exporter for packet-lifecycle traces (traceevents.go).
//
// The design constraints, in order:
//
//   - Off by default, invisible when off: machines carry a nil collector
//     pointer and every hot-path touch point is a single nil check.
//   - Zero allocations when on: Shard is a flat value type (a counter
//     array plus two fixed-bucket histograms), each machine shard owns
//     one, and merging reuses a scratch Shard inside the Collector.
//   - Deterministic: counters increment exactly once on the shard that
//     owns the event, and the simulation itself is byte-identical at any
//     shard count, so bucket-wise sums merged in shard order are too.
package telemetry

import (
	"fmt"

	"anton3/internal/stats"
)

// The fixed counter registry. Counters with a Ps suffix accumulate
// simulated picoseconds (sim.Time deltas); the rest are event counts.
const (
	// CtrInjected counts packets entering the network at a source.
	CtrInjected = iota
	// CtrDelivered counts packets applied at their destination.
	CtrDelivered
	// CtrParkEvents counts flow-control parks: a packet (injection or
	// transit head) stalled waiting for VC credits.
	CtrParkEvents
	// CtrEscapeVCEntries counts request-class hops accepted onto the
	// Duato escape VC pair.
	CtrEscapeVCEntries
	// CtrFaultReroutes counts parked packets redispatched after a fault
	// trip invalidated their committed route.
	CtrFaultReroutes
	// CtrParkFlitPs accumulates parked flit-picoseconds at injection
	// (park duration x packet flits) — the buffer-occupancy cost of
	// backpressure.
	CtrParkFlitPs
	// CtrCreditStallPs accumulates transit-head credit-stall
	// picoseconds — time a queue head waited for a downstream credit.
	CtrCreditStallPs
	// CtrChannelBusyPs accumulates per-channel serialization busy time,
	// folded in from the serdes layer after a run.
	CtrChannelBusyPs

	NumCounters
)

// Shard is one shard's flat accumulator block: the counter array plus
// injection-to-delivery and park-duration histograms (picosecond
// samples). It is a comparable value type — tests assert shard-count
// invariance with == — and merges bucket-wise.
type Shard struct {
	Ctr  [NumCounters]int64 `json:"ctr"`
	Lat  stats.LogHist      `json:"lat"`
	Park stats.LogHist      `json:"park"`
}

// Merge folds o into s.
func (s *Shard) Merge(o *Shard) {
	for i := range s.Ctr {
		s.Ctr[i] += o.Ctr[i]
	}
	s.Lat.Merge(&o.Lat)
	s.Park.Merge(&o.Park)
}

// Reset zeroes s.
func (s *Shard) Reset() { *s = Shard{} }

// Collector owns one Shard per machine shard plus a reused merge
// scratch. Machines hand out per-shard pointers at EnableTelemetry time;
// harnesses read Merged() after each run.
type Collector struct {
	shards []Shard
	merged Shard
}

// NewCollector returns a collector for n shards.
func NewCollector(n int) *Collector {
	return &Collector{shards: make([]Shard, n)}
}

// Shard returns the accumulator block owned by shard i.
func (c *Collector) Shard(i int) *Shard { return &c.shards[i] }

// Reset zeroes every shard (called from Machine.Reset).
func (c *Collector) Reset() {
	for i := range c.shards {
		c.shards[i].Reset()
	}
	c.merged.Reset()
}

// Merged folds every shard in shard order into the reused scratch block
// and returns it. The pointer is invalidated by the next Merged or
// Reset call; callers that keep the value copy it (Shard is a value
// type, so `snapshot := *c.Merged()` allocates nothing).
func (c *Collector) Merged() *Shard {
	c.merged.Reset()
	for i := range c.shards {
		c.merged.Merge(&c.shards[i])
	}
	return &c.merged
}

// Summary is the compact digest of a merged Shard surfaced in sweep
// renders and the runner's -json report: raw event counts plus
// nanosecond-converted time totals and histogram quantiles.
type Summary struct {
	Injected      int64   `json:"injected"`
	Delivered     int64   `json:"delivered"`
	ParkEvents    int64   `json:"park_events"`
	EscapeEntries int64   `json:"escape_vc_entries"`
	FaultReroutes int64   `json:"fault_reroutes"`
	ParkFlitNs    float64 `json:"park_flit_ns"`
	CreditStallNs float64 `json:"credit_stall_ns"`
	ChanBusyNs    float64 `json:"channel_busy_ns"`
	LatP50Ns      float64 `json:"lat_p50_ns"`
	LatP99Ns      float64 `json:"lat_p99_ns"`
	ParkP50Ns     float64 `json:"park_p50_ns"`
	ParkP99Ns     float64 `json:"park_p99_ns"`
}

// Summary derives the render/report digest from a (merged) shard block.
func (s *Shard) Summary() Summary {
	const psPerNs = 1000.0
	return Summary{
		Injected:      s.Ctr[CtrInjected],
		Delivered:     s.Ctr[CtrDelivered],
		ParkEvents:    s.Ctr[CtrParkEvents],
		EscapeEntries: s.Ctr[CtrEscapeVCEntries],
		FaultReroutes: s.Ctr[CtrFaultReroutes],
		ParkFlitNs:    float64(s.Ctr[CtrParkFlitPs]) / psPerNs,
		CreditStallNs: float64(s.Ctr[CtrCreditStallPs]) / psPerNs,
		ChanBusyNs:    float64(s.Ctr[CtrChannelBusyPs]) / psPerNs,
		LatP50Ns:      s.Lat.Quantile(0.50) / psPerNs,
		LatP99Ns:      s.Lat.Quantile(0.99) / psPerNs,
		ParkP50Ns:     s.Park.Quantile(0.50) / psPerNs,
		ParkP99Ns:     s.Park.Quantile(0.99) / psPerNs,
	}
}

// Line renders the one-line text form appended to sweep cells. Every
// telemetry line starts with the word "telemetry" at column 0, so the
// CI byte-identity smoke can strip the whole layer with grep -v.
func (s Summary) Line(label string) string {
	return fmt.Sprintf(
		"telemetry %s: inj %d dlv %d park %d esc %d reroute %d | lat p50 %.1f p99 %.1f ns | park p50 %.1f p99 %.1f ns | stall flit %.1f credit %.1f ns | wire busy %.1f ns",
		label,
		s.Injected, s.Delivered, s.ParkEvents, s.EscapeEntries, s.FaultReroutes,
		s.LatP50Ns, s.LatP99Ns,
		s.ParkP50Ns, s.ParkP99Ns,
		s.ParkFlitNs, s.CreditStallNs,
		s.ChanBusyNs,
	)
}
