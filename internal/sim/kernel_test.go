package sim

import (
	"testing"
	"testing/quick"
)

func TestClockPeriod(t *testing.T) {
	c := NewClock(2800)
	if got := c.Period(); got != 357*Picosecond {
		t.Fatalf("2.8GHz period = %d ps, want 357", got)
	}
	if got := c.Cycles(1000); got != 357000 {
		t.Fatalf("1000 cycles = %d ps, want 357000", got)
	}
	if got := c.ToCycles(714 * Picosecond); got != 2 {
		t.Fatalf("ToCycles(714ps) = %d, want 2", got)
	}
}

func TestClockRounding(t *testing.T) {
	// 1 GHz divides evenly; 3 GHz rounds 333.3 -> 333.
	if got := NewClock(1000).Period(); got != 1000 {
		t.Fatalf("1GHz period = %d, want 1000", got)
	}
	if got := NewClock(3000).Period(); got != 333 {
		t.Fatalf("3GHz period = %d, want 333", got)
	}
}

func TestClockInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.AtActor(30, Func(func() { order = append(order, 3) }))
	k.AtActor(10, Func(func() { order = append(order, 1) }))
	k.AtActor(20, Func(func() { order = append(order, 2) }))
	end := k.Run()
	if end != 30 {
		t.Fatalf("final time %d, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
}

func TestKernelTieBreakFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.AtActor(5, Func(func() { order = append(order, i) }))
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	hits := 0
	k.AtActor(10, Func(func() {
		hits++
		k.AfterActor(5, Func(func() {
			hits++
			if k.Now() != 15 {
				t.Errorf("nested event at %d, want 15", k.Now())
			}
		}))
	}))
	k.Run()
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

func TestKernelPastPanics(t *testing.T) {
	k := NewKernel()
	k.AtActor(10, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.AtActor(5, Func(func() {}))
	}))
	k.Run()
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	ran := 0
	inc := Func(func() { ran++ })
	k.AtActor(10, inc)
	k.AtActor(20, inc)
	if drained := k.RunUntil(15); drained {
		t.Fatal("RunUntil(15) reported drained with an event at 20 pending")
	}
	if ran != 1 || k.Now() != 15 {
		t.Fatalf("ran=%d now=%d, want 1,15", ran, k.Now())
	}
	if drained := k.RunUntil(100); !drained {
		t.Fatal("RunUntil(100) should drain")
	}
	if ran != 2 {
		t.Fatalf("ran=%d, want 2", ran)
	}
}

func TestKernelEventsFired(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 100; i++ {
		k.AtActor(Time(i), Func(func() {}))
	}
	k.Run()
	if k.EventsFired() != 100 {
		t.Fatalf("EventsFired = %d, want 100", k.EventsFired())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 42 and 43 collided %d times in 1000 draws", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	f := func(n uint8) bool {
		m := int(n%31) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(11)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(20)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestTimeString(t *testing.T) {
	if s := (1500 * Picosecond).String(); s != "1.500ns" {
		t.Fatalf("String = %q", s)
	}
}
