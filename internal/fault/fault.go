// Package fault describes deterministic link-fault plans for the torus
// network: per-channel health (dead links, bandwidth divisors, latency
// multipliers), either static from t=0 or scheduled to trip at a simulated
// timestamp. A Plan is pure data — the machine layer applies it — so the
// same plan text produces byte-identical behaviour at any shard count, and
// its canonical form hashes stably into resultstore keys.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"anton3/internal/sim"
	"anton3/internal/topo"
)

// Effect is what a fault does to a link. Dead wins over degradation; a
// degraded link divides its bandwidth by BWDiv (>= 2) and/or multiplies its
// fixed latency by LatMult (>= 2). Zero-valued divisor/multiplier fields
// mean "unchanged".
type Effect struct {
	Dead    bool
	BWDiv   int
	LatMult int
}

// Trivial reports whether the effect changes nothing.
func (e Effect) Trivial() bool { return !e.Dead && e.BWDiv == 0 && e.LatMult == 0 }

func (e Effect) String() string {
	if e.Dead {
		return "dead"
	}
	var parts []string
	if e.BWDiv != 0 {
		parts = append(parts, fmt.Sprintf("bw/%d", e.BWDiv))
	}
	if e.LatMult != 0 {
		parts = append(parts, fmt.Sprintf("lat*%d", e.LatMult))
	}
	return strings.Join(parts, ",")
}

// LinkFault targets one directed inter-node link: the channel(s) leaving
// Node in direction (Dim, Dir). Slice selects one of the two physical
// slices, or -1 for both. TripAt schedules the fault to fire at a simulated
// time; zero means static (present from reset).
type LinkFault struct {
	Node   topo.Coord
	Dim    topo.Dim
	Dir    int // +1 or -1
	Slice  int // 0, 1, or -1 for both slices
	Effect Effect
	TripAt sim.Time
}

func dimLetter(d topo.Dim) string {
	switch d {
	case topo.X:
		return "x"
	case topo.Y:
		return "y"
	default:
		return "z"
	}
}

func (f LinkFault) String() string {
	dir := "+"
	if f.Dir < 0 {
		dir = "-"
	}
	s := fmt.Sprintf("%d,%d,%d:%s%s", f.Node.X, f.Node.Y, f.Node.Z, dimLetter(f.Dim), dir)
	if f.Slice >= 0 {
		s += fmt.Sprintf(".%d", f.Slice)
	}
	s += ":" + f.Effect.String()
	if f.TripAt != 0 {
		s += fmt.Sprintf("@%d", int64(f.TripAt))
	}
	return s
}

// Plan is a set of link faults. The zero value is the healthy plan.
type Plan struct {
	Links []LinkFault
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Links) == 0 }

// HasDead reports whether any fault kills a link outright.
func (p *Plan) HasDead() bool {
	if p == nil {
		return false
	}
	for _, f := range p.Links {
		if f.Effect.Dead {
			return true
		}
	}
	return false
}

// Canon returns a canonical text form of the plan: every fault rendered in
// normalized syntax, sorted, joined with ";". Two equivalent plans produce
// the same string, so it is safe to hash into cache keys. The empty plan
// canonicalizes to "".
func (p *Plan) Canon() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, len(p.Links))
	for i, f := range p.Links {
		parts[i] = f.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// Validate checks the plan against a machine shape: nodes must lie inside
// the shape, faulted dimensions must actually have links (extent >= 2),
// directions must be +-1, slices in {-1, 0, 1}, effects non-trivial with
// sane divisors/multipliers, and no two faults may target the same channel.
func (p *Plan) Validate(s topo.Shape) error {
	if p.Empty() {
		return nil
	}
	type chanKey struct {
		node  topo.Coord
		dim   topo.Dim
		dir   int
		slice int
	}
	seen := make(map[chanKey]bool, 2*len(p.Links))
	for _, f := range p.Links {
		if f.Node.X < 0 || f.Node.X >= s.X || f.Node.Y < 0 || f.Node.Y >= s.Y ||
			f.Node.Z < 0 || f.Node.Z >= s.Z {
			return fmt.Errorf("fault %q: node outside shape %s", f, s)
		}
		if f.Dim > topo.Z {
			return fmt.Errorf("fault %q: bad dimension", f)
		}
		if s.Get(f.Dim) < 2 {
			return fmt.Errorf("fault %q: dimension %s has extent %d in shape %s — no links to fault",
				f, f.Dim, s.Get(f.Dim), s)
		}
		if f.Dir != 1 && f.Dir != -1 {
			return fmt.Errorf("fault %q: direction must be +1 or -1", f)
		}
		if f.Slice < -1 || f.Slice > 1 {
			return fmt.Errorf("fault %q: slice must be 0, 1 or -1 (both)", f)
		}
		if f.Effect.Trivial() {
			return fmt.Errorf("fault %q: effect changes nothing", f)
		}
		if f.Effect.BWDiv < 0 || f.Effect.BWDiv == 1 {
			return fmt.Errorf("fault %q: bandwidth divisor must be >= 2", f)
		}
		if f.Effect.LatMult < 0 || f.Effect.LatMult == 1 {
			return fmt.Errorf("fault %q: latency multiplier must be >= 2", f)
		}
		if f.TripAt < 0 {
			return fmt.Errorf("fault %q: trip time must be >= 0", f)
		}
		slices := []int{f.Slice}
		if f.Slice < 0 {
			slices = []int{0, 1}
		}
		for _, sl := range slices {
			k := chanKey{f.Node, f.Dim, f.Dir, sl}
			if seen[k] {
				return fmt.Errorf("fault %q: channel already faulted by an earlier entry", f)
			}
			seen[k] = true
		}
	}
	return nil
}

// Parse reads a plan from its text form: ";"-separated entries, each
//
//	X,Y,Z:<dim><dir>[.<slice>]:<effect>[,<effect>...][@<trip>]
//
// where <dim> is x|y|z, <dir> is +|-, <slice> is 0|1 (omitted = both), an
// <effect> is "dead", "bw/K" or "lat*M", and <trip> is a simulated time with
// an optional ps/ns/us suffix (bare integers are picoseconds). Examples:
//
//	0,0,0:x+:dead
//	1,2,3:y-.0:bw/4@50ns
//	0,1,0:z+:bw/2,lat*3
//
// Parse only checks syntax; Validate checks the plan against a shape.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return &Plan{}, nil
	}
	var p Plan
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		f, err := parseEntry(entry)
		if err != nil {
			return nil, err
		}
		p.Links = append(p.Links, f)
	}
	return &p, nil
}

func parseEntry(entry string) (LinkFault, error) {
	var f LinkFault
	bad := func(why string) (LinkFault, error) {
		return LinkFault{}, fmt.Errorf("fault entry %q: %s", entry, why)
	}
	parts := strings.SplitN(entry, ":", 3)
	if len(parts) != 3 {
		return bad(`want "X,Y,Z:<dim><dir>[.<slice>]:<effects>[@trip]"`)
	}
	coords := strings.Split(parts[0], ",")
	if len(coords) != 3 {
		return bad("node must be X,Y,Z")
	}
	vals := make([]int, 3)
	for i, c := range coords {
		v, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil {
			return bad("bad node coordinate " + c)
		}
		vals[i] = v
	}
	f.Node = topo.Coord{X: vals[0], Y: vals[1], Z: vals[2]}

	link := parts[1]
	f.Slice = -1
	if i := strings.IndexByte(link, '.'); i >= 0 {
		sl, err := strconv.Atoi(link[i+1:])
		if err != nil || sl < 0 || sl > 1 {
			return bad("slice must be 0 or 1")
		}
		f.Slice = sl
		link = link[:i]
	}
	if len(link) != 2 {
		return bad(`link must be <dim><dir>, e.g. "x+"`)
	}
	switch link[0] {
	case 'x':
		f.Dim = topo.X
	case 'y':
		f.Dim = topo.Y
	case 'z':
		f.Dim = topo.Z
	default:
		return bad("dimension must be x, y or z")
	}
	switch link[1] {
	case '+':
		f.Dir = 1
	case '-':
		f.Dir = -1
	default:
		return bad("direction must be + or -")
	}

	effects := parts[2]
	if i := strings.IndexByte(effects, '@'); i >= 0 {
		t, err := parseTime(effects[i+1:])
		if err != nil {
			return bad(err.Error())
		}
		f.TripAt = t
		effects = effects[:i]
	}
	for _, e := range strings.Split(effects, ",") {
		e = strings.TrimSpace(e)
		switch {
		case e == "dead":
			f.Effect.Dead = true
		case strings.HasPrefix(e, "bw/"):
			k, err := strconv.Atoi(e[len("bw/"):])
			if err != nil || k < 2 {
				return bad("bandwidth divisor must be an integer >= 2")
			}
			f.Effect.BWDiv = k
		case strings.HasPrefix(e, "lat*"):
			m, err := strconv.Atoi(e[len("lat*"):])
			if err != nil || m < 2 {
				return bad("latency multiplier must be an integer >= 2")
			}
			f.Effect.LatMult = m
		default:
			return bad(fmt.Sprintf(`unknown effect %q (want "dead", "bw/K" or "lat*M")`, e))
		}
	}
	if f.Effect.Trivial() {
		return bad("no effect given")
	}
	return f, nil
}

func parseTime(s string) (sim.Time, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "ps"):
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "ns"):
		s, mult = s[:len(s)-2], 1000
	case strings.HasSuffix(s, "us"):
		s, mult = s[:len(s)-2], 1000*1000
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || v < 0 || v > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad trip time %q (want a non-negative integer with optional ps/ns/us suffix)", s)
	}
	return sim.Time(v * mult), nil
}

// Severity is one named row of a fault-severity grid.
type Severity struct {
	Name string
	Plan Plan
}

// SeverityGrid builds the standard severity ladder for a shape, drawn
// deterministically from seed: healthy, one link at half bandwidth, one link
// at quarter bandwidth (same link, so the bw rows are comparable), one dead
// directed link, four dead directed links, and a directed plane cut (every
// link of one dimension-direction at one coordinate — the heavy row that
// visibly shifts the saturation knee).
//
// Multi-link rows keep every dead link in ONE dimension and ONE direction,
// each on a distinct ring. A packet detouring around a dead link reverses
// and commits to the opposite direction, which such a plan never touches —
// so rerouted traffic can never run into a second dead link, and delivery
// stays guaranteed for every policy exactly as in the single-link property
// sweep. (An opposite-direction pair on one ring would trap committed
// detours and wedge the run; the drawn grid never produces one.)
func SeverityGrid(s topo.Shape, seed uint64) []Severity {
	rng := sim.NewRand(seed)
	draw := func() (topo.Coord, topo.Dim, int) {
		for {
			c := s.CoordOf(rng.Intn(s.Nodes()))
			d := topo.Dim(rng.Intn(3))
			if s.Get(d) < 2 {
				continue
			}
			dir := 1
			if rng.Intn(2) == 1 {
				dir = -1
			}
			return c, d, dir
		}
	}
	bwNode, bwDim, bwDir := draw()
	deadNode, deadDim, deadDir := draw()

	// The multi-link rows use the faultable dimension with the most rings
	// (most room for distinct rings, heaviest plane cut); the direction and
	// ring positions are drawn.
	multiDim := topo.X
	rings := 0
	for d := topo.X; d <= topo.Z; d++ {
		if s.Get(d) < 2 {
			continue
		}
		if r := s.Nodes() / s.Get(d); r > rings {
			multiDim, rings = d, r
		}
	}
	multiDir := 1
	if rng.Intn(2) == 1 {
		multiDir = -1
	}

	link := func(c topo.Coord, d topo.Dim, dir int, e Effect) LinkFault {
		return LinkFault{Node: c, Dim: d, Dir: dir, Slice: -1, Effect: e}
	}
	grid := []Severity{
		{Name: "healthy"},
		{Name: "bw2x1", Plan: Plan{Links: []LinkFault{link(bwNode, bwDim, bwDir, Effect{BWDiv: 2})}}},
		{Name: "bw4x1", Plan: Plan{Links: []LinkFault{link(bwNode, bwDim, bwDir, Effect{BWDiv: 4})}}},
		{Name: "dead1", Plan: Plan{Links: []LinkFault{link(deadNode, deadDim, deadDir, Effect{Dead: true})}}},
	}

	want := 4
	if rings < want {
		want = rings
	}
	var dead4 []LinkFault
	seenRing := map[int]bool{}
	for len(dead4) < want {
		c := s.CoordOf(rng.Intn(s.Nodes()))
		ring := s.Index(c.With(multiDim, 0))
		if seenRing[ring] {
			continue
		}
		seenRing[ring] = true
		dead4 = append(dead4, link(c, multiDim, multiDir, Effect{Dead: true}))
	}
	grid = append(grid, Severity{Name: "dead4", Plan: Plan{Links: dead4}})

	cutAt := rng.Intn(s.Get(multiDim))
	var cut []LinkFault
	for i := 0; i < s.Nodes(); i++ {
		if c := s.CoordOf(i); c.Get(multiDim) == cutAt {
			cut = append(cut, link(c, multiDim, multiDir, Effect{Dead: true}))
		}
	}
	grid = append(grid, Severity{Name: "deadcut", Plan: Plan{Links: cut}})
	return grid
}
