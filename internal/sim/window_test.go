package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// chainTestActor is a packet-like actor for the window-equivalence
// property test: each firing logs (name, clock), appends the fire time to
// its lineage history, and reschedules itself after the next pre-drawn
// strictly positive delay.
type chainTestActor struct {
	log    *[]string
	k      *Kernel
	name   string
	delays []Time
	hist   []Time
	inj    uint64
}

func (c *chainTestActor) Act() {
	c.hist = append(c.hist, c.k.Now())
	*c.log = append(*c.log, fmt.Sprintf("%s@%d", c.name, c.k.Now()))
	if len(c.delays) > 0 {
		d := c.delays[0]
		c.delays = c.delays[1:]
		c.k.AfterActor(d, c)
	}
}

func (c *chainTestActor) Lineage() ([]Time, uint64) { return c.hist, c.inj }

// buildWindowWorkload schedules an identical randomized workload into k:
// many actors starting at colliding times (small time range), each
// chaining through random positive delays. Half the actors go through the
// staged lane, half through the heap, so the pop-time ladder merge is
// exercised; lineage mode is switched on after setup when asked.
func buildWindowWorkload(k *Kernel, log *[]string, seed uint64, lineage bool) {
	rng := NewRand(seed)
	for i := 0; i < 64; i++ {
		a := &chainTestActor{log: log, k: k, name: fmt.Sprintf("a%d", i), inj: uint64(i)}
		hops := rng.Intn(4)
		for h := 0; h < hops; h++ {
			a.delays = append(a.delays, Time(1+rng.Intn(5)))
		}
		at := Time(rng.Intn(40))
		if i%2 == 0 {
			k.StageActor(at, a)
		} else {
			k.AtActor(at, a)
		}
	}
	k.SealStage()
	if lineage {
		k.BeginLineageOrder()
	}
}

// TestWindowedRunUntilMatchesRun is the window-equivalence property
// ParallelExec relies on: for the same workload, chopping the run into
// RunUntil windows produces the identical (time, order) firing sequence
// and last-event time as one Run — under sequence tie ordering and under
// lineage tie ordering.
func TestWindowedRunUntilMatchesRun(t *testing.T) {
	for _, lineage := range []bool{false, true} {
		name := "seq"
		if lineage {
			name = "lineage"
		}
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				var runLog []string
				kr := NewKernel()
				buildWindowWorkload(kr, &runLog, seed, lineage)
				runEnd := kr.Run()

				var winLog []string
				kw := NewKernel()
				buildWindowWorkload(kw, &winLog, seed, lineage)
				for dl := Time(7); !kw.RunUntil(dl); dl += 7 {
				}
				if !reflect.DeepEqual(runLog, winLog) {
					t.Fatalf("seed %d: windowed RunUntil order diverges from Run\nrun:    %v\nwindow: %v",
						seed, runLog, winLog)
				}
				if kw.lastAt != runEnd {
					t.Fatalf("seed %d: last event at %d via windows, %d via Run", seed, kw.lastAt, runEnd)
				}
			}
		})
	}
}

type countActor struct{ n int }

func (a *countActor) Act() { a.n++ }

// TestWindowedRunUntilAllocFreeWhenWarm pins the window loop's steady
// state: once the heap and event pool have grown, running a window
// (including the staged-lane merge) allocates nothing — the property that
// lets ParallelExec windows run without per-window garbage.
func TestWindowedRunUntilAllocFreeWhenWarm(t *testing.T) {
	k := NewKernel()
	actors := make([]countActor, 8)
	window := func() {
		at := k.Now() + 1
		for i := range actors {
			if i%2 == 0 {
				k.StageActor(at, &actors[i])
			} else {
				k.AtActor(at, &actors[i])
			}
		}
		k.SealStage()
		k.RunUntil(at)
	}
	for i := 0; i < 16; i++ {
		window()
	}
	if n := testing.AllocsPerRun(100, window); n != 0 {
		t.Fatalf("warm RunUntil window allocates %.1f times/op, want 0", n)
	}
}
