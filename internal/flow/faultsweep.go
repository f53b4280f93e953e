package flow

import (
	"fmt"
	"strings"

	"anton3/internal/fault"
	"anton3/internal/telemetry"
)

// The faultsweep experiment measures graceful degradation: for each routing
// policy it locates the saturation knee of the healthy network and of the
// same network under a grid of link-fault severities (degraded bandwidth,
// degraded latency, one dead link, several dead links), and reports each
// faulted knee as a shift against the healthy baseline. The methodology is
// the saturate experiment's — same closed-loop rig, same swept loads, same
// per-load seeds, so the healthy row shares cache entries (and bytes) with
// saturate cells of the same shape and pattern.

// FaultRow is one fault severity's knee for one policy.
type FaultRow struct {
	// Severity is the grid row name ("healthy", "dead1", ...); Faults is
	// the canonical plan it denotes (empty for the healthy baseline).
	Severity string  `json:"severity"`
	Faults   string  `json:"faults,omitempty"`
	Knee     float64 `json:"knee"`
	KneeLB   bool    `json:"knee_lb,omitempty"`
	// ShiftPct is the knee shift vs the healthy baseline in percent:
	// (healthy - knee) / healthy x 100, so positive means degraded.
	ShiftPct float64 `json:"shift_pct"`
}

// FaultCurve is one policy's knee across the severity grid.
type FaultCurve struct {
	Policy string `json:"policy"`
	// Healthy is the baseline knee (duplicated from the "healthy" row for
	// convenience of report readers).
	Healthy float64    `json:"healthy_knee"`
	Rows    []FaultRow `json:"rows"`
	// Tel aggregates telemetry across every severity of this policy
	// (nil unless the sweep ran with Spec.Metrics); the fault-reroute
	// counter is the mid-run-trip visibility the grid exists for.
	Tel *telemetry.Summary `json:"telemetry,omitempty"`
}

// FaultResult is one pattern x shape table of the faultsweep experiment.
type FaultResult struct {
	Shape      string       `json:"shape"`
	Nodes      int          `json:"nodes"`
	Pattern    string       `json:"pattern"`
	QueueFlits int          `json:"queue_flits"`
	InjDepth   int          `json:"inj_depth"`
	Curves     []FaultCurve `json:"curves"`
}

// FaultSweep locates every policy's saturation knee under every severity in
// the grid. The first severity with an empty plan (conventionally sevs[0],
// "healthy") is the baseline all shifts are measured against; if the grid
// carries no healthy row, shifts are reported as zero. Swept loads and knee
// probes reuse Sweep's seeding, so the healthy cells are bit-identical to —
// and cache-shared with — saturate's. Telemetry aggregates per policy
// across the whole severity grid; trace tracks are prefixed
// "<policy>/<severity>" so every harness stays distinguishable.
func FaultSweep(s Spec, sevs []fault.Severity) FaultResult {
	s = s.withDefaults()
	res := FaultResult{
		Shape:      s.Shape.String(),
		Nodes:      s.Shape.Nodes(),
		Pattern:    s.Pattern.Name,
		QueueFlits: s.QueueFlits,
		InjDepth:   s.InjDepth,
		Curves:     make([]FaultCurve, len(s.Policies)),
	}
	for pi, pol := range s.Policies {
		c := FaultCurve{Policy: pol.Name(), Rows: make([]FaultRow, 0, len(sevs))}
		var agg telemetry.Shard
		for _, sev := range sevs {
			plan := sev.Plan
			h := s.harness(pol, &plan, pol.Name()+"/"+sev.Name)
			row := FaultRow{Severity: sev.Name, Faults: plan.Canon()}
			_, row.Knee, row.KneeLB = s.sweepKnee(h)
			if row.Faults == "" && c.Healthy == 0 {
				c.Healthy = row.Knee
			}
			c.Rows = append(c.Rows, row)
			if s.Metrics {
				agg.Merge(h.Telemetry())
			}
			if s.Trace != nil {
				h.DrainTrace(s.Trace)
			}
		}
		if s.Metrics {
			sum := agg.Summary()
			c.Tel = &sum
		}
		for ri := range c.Rows {
			if c.Healthy > 0 {
				c.Rows[ri].ShiftPct = (c.Healthy - c.Rows[ri].Knee) / c.Healthy * 100
			}
		}
		res.Curves[pi] = c
	}
	return res
}

// Render formats the table: one row per fault severity with a knee/shift
// column pair per policy, followed by a legend spelling out each severity's
// fault plan.
func (r FaultResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Faultsweep: pattern %s on %s (%d nodes) — saturation knee under link faults (%d-flit VC queues, %d-slot sources)\n",
		r.Pattern, r.Shape, r.Nodes, r.QueueFlits, r.InjDepth)
	fmt.Fprintf(&b, "%10s", "severity")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, " %12s %8s", c.Policy+" knee", "shift")
	}
	b.WriteByte('\n')
	if len(r.Curves) == 0 {
		return b.String()
	}
	for ri := range r.Curves[0].Rows {
		fmt.Fprintf(&b, "%10s", r.Curves[0].Rows[ri].Severity)
		for _, c := range r.Curves {
			row := c.Rows[ri]
			lb := " "
			if row.KneeLB {
				lb = ">"
			}
			fmt.Fprintf(&b, " %s%11.3f %7.1f%%", lb, row.Knee, row.ShiftPct)
		}
		b.WriteByte('\n')
	}
	b.WriteString("fault plans:\n")
	for ri := range r.Curves[0].Rows {
		row := r.Curves[0].Rows[ri]
		plan := row.Faults
		if plan == "" {
			plan = "(none)"
		}
		fmt.Fprintf(&b, "  %-8s %s\n", row.Severity, plan)
	}
	for _, c := range r.Curves {
		if c.Tel == nil {
			continue
		}
		b.WriteString(c.Tel.Line(c.Policy))
		b.WriteByte('\n')
	}
	return b.String()
}
