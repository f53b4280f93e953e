package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"time"
)

// tracer keeps spans in memory for the traced run. A nil tracer records
// nothing, so untraced ops pay one nil check per layer call.
type tracer struct {
	start time.Time
	op    int // op the next span belongs to; -1 during set-up
	spans []span
	open  []int // indices of the spans not yet ended, innermost last
}

// span is one timed call into a layer.
type span struct {
	name       string
	op         int
	parent     int // index into tracer.spans, or -1
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{start: time.Now(), op: -1} }

// span times fn as a span named name, nested in the innermost open span.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: time.Since(t.start)})
	t.open = append(t.open, i)
	defer func() {
		t.spans[i].end = time.Since(t.start)
		t.open = t.open[:len(t.open)-1]
	}()
	fn()
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered := time.Duration(0)
		reach := s.start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.start, reach), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanStat totals the spans of one name.
type spanStat struct {
	n    int
	self time.Duration
}

func spanStats(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	st := make(map[string]spanStat)
	for i, s := range spans {
		a := st[s.name]
		a.n++
		a.self += self[i]
		st[s.name] = a
	}
	return st
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"op": s.op, "parent": s.parent}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuLayers are the layers the CPU profile folds into, by the package
// directory under anton3/internal that a sample's innermost simulator
// frame belongs to. Samples with no simulator frame count as other.
var cpuLayers = map[string]string{
	"md": "md", "fixp": "md",
	"traffic": "compress", "pcache": "compress", "inz": "compress",
	"serdes":  "serdes",
	"sim":     "sim",
	"machine": "machine", "packet": "machine", "chip": "machine", "mem": "machine", "fence": "machine",
	"route": "route", "topo": "route",
	"synth": "harness", "flow": "harness",
}

// cpuShareNames lists every share foldCPU reports; the layer shares, GC
// and other sum to 100.
var cpuShareNames = []string{
	"cpu.md", "cpu.compress", "cpu.serdes", "cpu.sim", "cpu.machine", "cpu.route",
	"cpu.harness", "cpu.runtime_gc", "cpu.other", "cpu.md.pairforce", "cpu.sim.lineage",
}

// Runtime frames that root garbage collection and allocation work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.mallocgc", "runtime.gcStart",
}

// refFrame ends the name of the reference computation that follows every
// op; the CPU fold leaves its samples out, since it is the benchmark's, not
// the simulator's. The package prefix is main in the command and the
// import path in a test binary.
const refFrame = ".(*speedRef).speed"

// foldCPU reads a CPU profile through `go tool pprof -traces` and returns
// each layer's share of the samples in percent. A sample goes to GC when a
// GC or allocation frame is on its stack, else to the layer of its
// innermost simulator frame.
func foldCPU(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	sums := make(map[string]time.Duration)
	var total time.Duration
	fold := func(v time.Duration, stack []string) {
		if v == 0 || slices.ContainsFunc(stack, func(f string) bool { return strings.HasSuffix(f, refFrame) }) {
			return
		}
		total += v
		layer, sub := "other", map[string]bool{}
		for _, f := range stack {
			if layer == "other" {
				if l, ok := cpuLayers[simPackage(f)]; ok {
					layer = l
				}
			}
			for _, r := range gcRoots {
				if f == r {
					sums["runtime_gc"] += v
					return
				}
			}
			switch f {
			case "anton3/internal/md.(*System).pairForce":
				sub["md.pairforce"] = true
			case "anton3/internal/sim.(*Kernel).sinkRootLineage", "anton3/internal/sim.(*Kernel).siftUpLineage",
				"anton3/internal/sim.(*Kernel).tieBefore":
				sub["sim.lineage"] = true
			}
		}
		sums[layer] += v
		for s := range sub {
			sums[s] += v
		}
	}
	// Each sample block starts with a separator line, then "<value> <leaf>"
	// and one caller frame per line.
	var v time.Duration
	var stack []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	started := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			fold(v, stack)
			v, stack, started = 0, stack[:0], true
		case !started || strings.TrimSpace(line) == "":
		case len(stack) == 0:
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: unexpected line %q", line)
			}
			if v, err = time.ParseDuration(fields[0]); err != nil {
				return nil, fmt.Errorf("pprof traces: %v", err)
			}
			stack = append(stack, fields[1])
		default:
			stack = append(stack, strings.Fields(line)[0])
		}
	}
	fold(v, stack)
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s holds no samples", profile)
	}
	shares := make(map[string]float64, len(cpuShareNames))
	for _, name := range cpuShareNames {
		shares[name] = 100 * float64(sums[strings.TrimPrefix(name, "cpu.")]) / float64(total)
	}
	return shares, nil
}

// simPackage returns the anton3/internal package directory a frame's
// function belongs to, or "" for any other frame.
func simPackage(frame string) string {
	rest, ok := strings.CutPrefix(frame, "anton3/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg
}
