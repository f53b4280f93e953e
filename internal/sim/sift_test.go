package sim

import (
	"cmp"
	"slices"
	"testing"
)

// heapTestActor is an event of the pop-order test: it remembers the key the
// kernel filed it under and carries a lineage for lineage mode.
type heapTestActor struct {
	at   Time
	seq  uint64
	hist []Time
	inj  uint64
}

func (a *heapTestActor) Act()                      {}
func (a *heapTestActor) Lineage() ([]Time, uint64) { return a.hist, a.inj }

// lineageBefore is the documented lineage rule (see Kernel.tieBefore),
// written out independently of the kernel: earlier timestamps first; at
// equal timestamps, setup events (sequence <= setupSeq) precede runtime
// events and order by sequence among themselves, while runtime events
// compare their histories newest entry first, the history that runs out
// first ordering first, and then their injection order.
func lineageBefore(a, b *heapTestActor, setupSeq uint64) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	sa, sb := a.seq <= setupSeq, b.seq <= setupSeq
	if sa || sb {
		if sa != sb {
			return sa
		}
		return a.seq < b.seq
	}
	for d := 1; ; d++ {
		da, db := len(a.hist)-d, len(b.hist)-d
		if da < 0 || db < 0 {
			if (da < 0) != (db < 0) {
				return da < 0
			}
			return a.inj < b.inj
		}
		if a.hist[da] != b.hist[db] {
			return a.hist[da] < b.hist[db]
		}
	}
}

// TestSinkRootPopOrder drains randomized heaps through pop, in sequence and
// in lineage mode. Sizes 1..70 put a partial child block at every depth of
// the 4-ary heap; 20000 events run the tournament over many full levels.
// Timestamps come from a narrow range, so ties are common, and about one
// event in eight sits just above 1<<62, so keys differ in their high bits.
// Every pop may schedule a new event, so the heap is refilled while it
// drains.
//
// In sequence mode the pops must come out exactly as a sort of every
// scheduled event by (timestamp, sequence). In lineage mode each event
// carries a random history over a tiny range of fire times, so ties fall
// through to history and injection order, and no pop may order before the
// one before it under lineageBefore.
func TestSinkRootPopOrder(t *testing.T) {
	sizes := []int{20000}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, lineage := range []bool{false, true} {
		for _, n := range sizes {
			checkPopOrder(t, n, lineage)
		}
	}
}

func checkPopOrder(t *testing.T, n int, lineage bool) {
	t.Helper()
	r := NewRand(uint64(n)*2 + 1)
	span := 4 + n/8
	k := NewKernel()
	var pushed []*heapTestActor
	// schedule files one event at or after base (strictly after the last
	// pop in lineage mode, where a fresh history could order before it).
	schedule := func(base Time) {
		at := base + Time(r.Intn(span))
		if base < 1<<62 && r.Intn(8) == 0 {
			at = 1<<62 + Time(r.Intn(4))
		}
		a := &heapTestActor{at: at, seq: uint64(len(pushed) + 1), inj: r.Uint64()<<20 | uint64(len(pushed))}
		for h := r.Intn(4); h > 0; h-- {
			a.hist = append(a.hist, Time(r.Intn(3)))
		}
		pushed = append(pushed, a)
		k.AtActor(at, a)
	}
	var setupSeq uint64
	for i := 0; i < n; i++ {
		if lineage && i == n/8 {
			k.BeginLineageOrder()
			setupSeq = uint64(len(pushed))
		}
		schedule(0)
	}
	var popped []*heapTestActor
	for refills := 0; k.Pending() > 0; {
		a := k.pop().(*heapTestActor)
		if k.Now() != a.at {
			t.Fatalf("n=%d lineage=%v: clock %d after popping an event at %d", n, lineage, k.Now(), a.at)
		}
		if lineage && len(popped) > 0 {
			if prev := popped[len(popped)-1]; lineageBefore(a, prev, setupSeq) {
				t.Fatalf("n=%d: pop %d (at %d, seq %d, hist %v, inj %d) orders before pop %d (at %d, seq %d, hist %v, inj %d)",
					n, len(popped), a.at, a.seq, a.hist, a.inj, len(popped)-1, prev.at, prev.seq, prev.hist, prev.inj)
			}
		}
		popped = append(popped, a)
		if refills < n && r.Intn(3) == 0 {
			refills++
			base := k.Now()
			if lineage {
				base++
			}
			schedule(base)
		}
	}
	if len(popped) != len(pushed) {
		t.Fatalf("n=%d lineage=%v: popped %d of %d events", n, lineage, len(popped), len(pushed))
	}
	if lineage {
		seen := make(map[*heapTestActor]bool, len(popped))
		for _, a := range popped {
			if seen[a] {
				t.Fatalf("n=%d: event seq %d popped twice", n, a.seq)
			}
			seen[a] = true
		}
		return
	}
	want := slices.Clone(pushed)
	slices.SortFunc(want, func(a, b *heapTestActor) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := range want {
		if popped[i] != want[i] {
			t.Fatalf("n=%d: pop %d is (at %d, seq %d), want (at %d, seq %d)",
				n, i, popped[i].at, popped[i].seq, want[i].at, want[i].seq)
		}
	}
}
