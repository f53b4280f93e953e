package sim

import "testing"

type recActor struct {
	log *[]int
	id  int
}

func (a *recActor) Act() { *a.log = append(*a.log, a.id) }

// TestActorAndClosureEventsInterleaveBySeq pins the determinism contract
// of the Func adapter: Func events order against other actors purely by
// (time, scheduling sequence), exactly as two actors would.
func TestActorAndClosureEventsInterleaveBySeq(t *testing.T) {
	k := NewKernel()
	var log []int
	k.AtActor(10, Func(func() { log = append(log, 1) }))
	k.AtActor(10, &recActor{log: &log, id: 2})
	k.AtActor(5, Func(func() { log = append(log, 0) }))
	k.AtActor(10, &recActor{log: &log, id: 3})
	k.Run()
	want := []int{0, 1, 2, 3}
	for i, v := range want {
		if i >= len(log) || log[i] != v {
			t.Fatalf("fired order %v, want %v", log, want)
		}
	}
}

func TestAtActorAllocFreeWhenWarm(t *testing.T) {
	k := NewKernel()
	a := &recActor{log: new([]int)}
	fire := func() {
		k.AtActor(k.Now(), a)
		k.Run()
	}
	for i := 0; i < 16; i++ {
		fire()
	}
	// The actor is a live pointer and the pool is warm: scheduling it must
	// not allocate. Tolerate sub-1 averages for the log slice's amortized
	// growth inside Act.
	if n := testing.AllocsPerRun(100, fire); n > 0.5 {
		t.Fatalf("AtActor allocates %.1f times/op when warm, want 0", n)
	}
}
