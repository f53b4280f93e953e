package fault

import (
	"strings"
	"testing"

	"anton3/internal/sim"
	"anton3/internal/topo"
)

// roundTripCases pairs plan specs with their canonical forms.
var roundTripCases = []struct {
	spec, canon string
}{
	{"0,0,0:x+:dead", "0,0,0:x+:dead"},
	{" 1,2,3:y-.0:bw/4@50ns ", "1,2,3:y-.0:bw/4@50000"},
	{"0,1,0:z+:bw/2,lat*3", "0,1,0:z+:bw/2,lat*3"},
	{"0,0,1:x-:dead@2us;0,0,0:x+:bw/2", "0,0,0:x+:bw/2;0,0,1:x-:dead@2000000"},
	{"", ""},
}

func TestParseRoundTrip(t *testing.T) {
	for _, c := range roundTripCases {
		p, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if got := p.Canon(); got != c.canon {
			t.Errorf("Parse(%q).Canon() = %q, want %q", c.spec, got, c.canon)
		}
		// Canon must be re-parseable to the same canon (fixed point).
		p2, err := Parse(p.Canon())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p.Canon(), err)
		}
		if p2.Canon() != p.Canon() {
			t.Errorf("canon not a fixed point: %q -> %q", p.Canon(), p2.Canon())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"0,0:x+:dead",        // two coordinates
		"0,0,0:w+:dead",      // bad dim
		"0,0,0:x*:dead",      // bad dir
		"0,0,0:x+.2:dead",    // bad slice
		"0,0,0:x+:bw/1",      // divisor < 2
		"0,0,0:x+:lat*0",     // multiplier < 2
		"0,0,0:x+:slow",      // unknown effect
		"0,0,0:x+:dead@-5ns", // negative trip
		"0,0,0:x+",           // missing effects

		// Trip times that overflow int64 picoseconds once scaled: unchecked,
		// the first would wrap to 448384 ps and the second to -1000000.
		"0,0,0:x+:dead@18446744073710us",
		"0,0,0:x+:dead@9223372036854775807us",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestValidate(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	ok, err := Parse("0,0,0:x+:dead;3,3,7:z-:bw/2@10ns")
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Validate(s); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}

	cases := []struct {
		spec, want string
	}{
		{"4,0,0:x+:dead", "outside shape"},
		{"0,0,0:x+:dead;0,0,0:x+.1:bw/2", "already faulted"},
		{"0,0,0:y+:dead", "extent"},
	}
	flat := topo.Shape{X: 4, Y: 1, Z: 8}
	for _, c := range cases {
		p, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		sh := s
		if strings.Contains(c.want, "extent") {
			sh = flat
		}
		err = p.Validate(sh)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%q) = %v, want error containing %q", c.spec, err, c.want)
		}
	}

	var empty *Plan
	if err := empty.Validate(s); err != nil {
		t.Errorf("nil plan should validate: %v", err)
	}
}

func TestTripTimeUnits(t *testing.T) {
	p, err := Parse("0,0,0:x+:dead@3ns")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Links[0].TripAt; got != 3*sim.Nanosecond {
		t.Errorf("3ns parsed to %d ps, want %d", got, 3*sim.Nanosecond)
	}
	p, err = Parse("0,0,0:x+:dead@250")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Links[0].TripAt; got != 250 {
		t.Errorf("bare 250 parsed to %d ps, want 250", got)
	}
}

func TestSeverityGridDeterministic(t *testing.T) {
	s := topo.Shape{X: 4, Y: 4, Z: 8}
	a := SeverityGrid(s, 1)
	b := SeverityGrid(s, 1)
	if len(a) != 6 {
		t.Fatalf("grid has %d rows, want 6", len(a))
	}
	names := []string{"healthy", "bw2x1", "bw4x1", "dead1", "dead4", "deadcut"}
	for i := range a {
		if a[i].Name != names[i] {
			t.Errorf("row %d named %q, want %q", i, a[i].Name, names[i])
		}
		if ac, bc := a[i].Plan.Canon(), b[i].Plan.Canon(); ac != bc {
			t.Errorf("row %s not deterministic: %q vs %q", a[i].Name, ac, bc)
		}
		if err := a[i].Plan.Validate(s); err != nil {
			t.Errorf("row %s invalid: %v", a[i].Name, err)
		}
	}
	if !a[0].Plan.Empty() {
		t.Error("healthy row must be the empty plan")
	}
	// The two bw rows must degrade the same link so their knees compare.
	stripEffect := func(c string) string { return strings.SplitN(c, ":", 3)[0] + strings.SplitN(c, ":", 3)[1] }
	if stripEffect(a[1].Plan.Canon()) != stripEffect(a[2].Plan.Canon()) {
		t.Errorf("bw rows fault different links: %q vs %q", a[1].Plan.Canon(), a[2].Plan.Canon())
	}
	if len(a[4].Plan.Links) != 4 {
		t.Errorf("dead4 has %d links, want 4", len(a[4].Plan.Links))
	}
	// Multi-link rows must be structurally wedge-free: all dead links in one
	// dimension and direction, each on a distinct ring, so a committed
	// detour (which travels the opposite direction) can never hit a second
	// dead link.
	for _, row := range []Severity{a[4], a[5]} {
		d, dir := row.Plan.Links[0].Dim, row.Plan.Links[0].Dir
		rings := map[int]bool{}
		for _, f := range row.Plan.Links {
			if f.Dim != d || f.Dir != dir {
				t.Errorf("%s mixes dims/dirs: %s", row.Name, row.Plan.Canon())
			}
			ring := s.Index(f.Node.With(d, 0))
			if rings[ring] {
				t.Errorf("%s kills two links on one ring: %s", row.Name, row.Plan.Canon())
			}
			rings[ring] = true
		}
	}
	// The plane cut kills one link per ring of its dimension.
	cutDim := a[5].Plan.Links[0].Dim
	if got, want := len(a[5].Plan.Links), s.Nodes()/s.Get(cutDim); got != want {
		t.Errorf("deadcut has %d links, want one per ring = %d", got, want)
	}
	// Different seeds draw different links (overwhelmingly likely).
	c := SeverityGrid(s, 2)
	if a[3].Plan.Canon() == c[3].Plan.Canon() && a[1].Plan.Canon() == c[1].Plan.Canon() {
		t.Error("seeds 1 and 2 drew identical grids")
	}
}

// FuzzParseCanon checks that Parse never panics, that every accepted plan's
// canonical form parses back to the same canonical form, and that
// validating any accepted plan against a shape never panics.
func FuzzParseCanon(f *testing.F) {
	for _, c := range roundTripCases {
		f.Add(c.spec)
	}
	f.Add("0,0,0:x+:dead@18446744073710us")
	f.Add("0,0,0:x+:dead@9223372036854775807us")
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		canon := p.Canon()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its canon %q is rejected: %v", spec, canon, err)
		}
		if got := p2.Canon(); got != canon {
			t.Fatalf("canon of %q is not a fixed point: %q -> %q", spec, canon, got)
		}
		_ = p.Validate(shape)
	})
}
