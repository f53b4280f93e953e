package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// logActor records its firing in a per-kernel log and optionally defers a
// follow-up event to another shard's outbox, honoring the lookahead.
type logActor struct {
	k    *Kernel
	log  *[]string
	name string
	out  *Outbox
	at   Time // arrival time for the deferred follow-up
	next *logActor
}

func (a *logActor) Act() {
	*a.log = append(*a.log, fmt.Sprintf("%s@%d", a.name, a.k.Now()))
	if a.out != nil {
		a.out.Defer(a.at, a.next)
	}
}

func TestParallelExecWindowsAndMergeOrder(t *testing.T) {
	const look = 10
	k0, k1 := NewKernel(), NewKernel()
	x := NewParallelExec([]*Kernel{k0, k1}, look)

	var log0, log1 []string
	// Shard 0 fires a@5, which defers c to shard 1 at t=15 (= 5 + look);
	// shard 1 fires b@5, which defers d to shard 0 at t=15. Both shards
	// also defer same-time arrivals to shard 1 at t=25 from different
	// sources, exercising the (time, source shard, emission order) merge.
	c := &logActor{k: k1, log: &log1, name: "c"}
	d := &logActor{k: k0, log: &log0, name: "d"}
	a := &logActor{k: k0, log: &log0, name: "a", out: x.Outbox(0, 1), at: 15, next: c}
	b := &logActor{k: k1, log: &log1, name: "b", out: x.Outbox(1, 0), at: 15, next: d}
	k0.AtActor(5, a)
	k1.AtActor(5, b)

	tie0 := &logActor{k: k1, log: &log1, name: "from0"}
	tie1 := &logActor{k: k1, log: &log1, name: "from1"}
	f0 := &logActor{k: k0, log: &log0, name: "f0", out: x.Outbox(0, 1), at: 25, next: tie0}
	f1 := &logActor{k: k1, log: &log1, name: "f1", out: x.Outbox(1, 1), at: 25, next: tie1}
	k0.AtActor(6, f0)
	k1.AtActor(6, f1)

	end := x.Run()
	if end != 25 {
		t.Fatalf("last event at %d, want 25", end)
	}
	want0 := []string{"a@5", "f0@6", "d@15"}
	// Both tie arrivals land at t=25 on shard 1; source shard 0 merges
	// before source shard 1.
	want1 := []string{"b@5", "f1@6", "c@15", "from0@25", "from1@25"}
	if !reflect.DeepEqual(log0, want0) {
		t.Fatalf("shard 0 log = %v, want %v", log0, want0)
	}
	if !reflect.DeepEqual(log1, want1) {
		t.Fatalf("shard 1 log = %v, want %v", log1, want1)
	}
}

// chainActor bounces between two shards n times through outboxes, so a
// multi-window run exercises repeated barriers.
type chainActor struct {
	x     *ParallelExec
	ks    []*Kernel
	shard int
	left  int
	look  Time
	fired *[]Time
}

func (c *chainActor) Act() {
	*c.fired = append(*c.fired, c.ks[c.shard].Now())
	if c.left == 0 {
		return
	}
	dst := 1 - c.shard
	next := &chainActor{x: c.x, ks: c.ks, shard: dst, left: c.left - 1, look: c.look, fired: c.fired}
	c.x.Outbox(c.shard, dst).Defer(c.ks[c.shard].Now()+c.look, next)
}

func TestParallelExecMultiWindowDrain(t *testing.T) {
	const look = 7
	ks := []*Kernel{NewKernel(), NewKernel()}
	x := NewParallelExec(ks, look)
	var fired []Time
	start := &chainActor{x: x, ks: ks, shard: 0, left: 5, look: look, fired: &fired}
	ks[0].AtActor(3, start)
	end := x.Run()
	want := []Time{3, 10, 17, 24, 31, 38}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if end != 38 {
		t.Fatalf("Run returned %d, want 38", end)
	}
}

// lineagedStub is a Lineaged actor with a crafted history.
type lineagedStub struct {
	log  *[]string
	name string
	hist []Time
	inj  uint64
}

func (s *lineagedStub) Act()                      { *s.log = append(*s.log, s.name) }
func (s *lineagedStub) Lineage() ([]Time, uint64) { return s.hist, s.inj }

func TestKernelLineageTieOrder(t *testing.T) {
	var log []string
	mk := func(name string, hist []Time, inj uint64) *lineagedStub {
		return &lineagedStub{log: &log, name: name, hist: hist, inj: inj}
	}
	k := NewKernel()
	// One setup event at the tied time: must fire before every runtime
	// event regardless of schedule order below.
	k.AtActor(50, Func(func() { log = append(log, "setup") }))
	k.BeginLineageOrder()

	// All at t=50, scheduled in an order that disagrees with lineage:
	//   histB < histA on the most recent ancestor (40 < 45);
	//   histC equals histB until B's chain exhausts -> B first;
	//   histD ties with C everywhere -> injection order decides.
	k.AtActor(50, mk("a", []Time{10, 45}, 3))
	k.AtActor(50, mk("d", []Time{5, 10, 40}, 9))
	k.AtActor(50, mk("c", []Time{5, 10, 40}, 7))
	k.AtActor(50, mk("b", []Time{10, 40}, 8))
	k.Run()
	want := []string{"setup", "b", "c", "d", "a"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("lineage order = %v, want %v", log, want)
	}
}

func TestKernelResetReplaysIdentically(t *testing.T) {
	k := NewKernel()
	run := func() []Time {
		var fired []Time
		for _, at := range []Time{30, 10, 20, 10, 40} {
			at := at
			k.AtActor(at, Func(func() { fired = append(fired, k.Now()) }))
		}
		k.Run()
		return fired
	}
	first := run()
	k.Reset()
	if k.Now() != 0 || k.Pending() != 0 || k.EventsFired() != 0 || k.lastAt != 0 {
		t.Fatal("Reset did not clear kernel state")
	}
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replay after Reset differs: %v vs %v", first, second)
	}
}
