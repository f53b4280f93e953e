package sim

import "testing"

// BenchmarkKernelScheduleDrain measures the raw Schedule+Pop cost: fill the
// queue with out-of-order timestamps, then drain it. This is the access
// pattern of a machine warming up and finishing a timestep.
func BenchmarkKernelScheduleDrain(b *testing.B) {
	const n = 4096
	r := NewRand(1)
	times := make([]Time, n)
	for i := range times {
		times[i] = Time(r.Intn(1 << 20))
	}
	fn := Func(func() {})
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := k.Now()
		for _, t := range times {
			k.AtActor(base+t, fn)
		}
		k.Run()
	}
}

// TestKernelScheduleAllocFree pins the hot-path guarantee the 4-ary
// pool heap exists for: once the pool has grown to the peak queue depth,
// scheduling (AtActor) and popping (inside Run) do not allocate.
func TestKernelScheduleAllocFree(t *testing.T) {
	const depth = 512
	k := NewKernel()
	r := NewRand(3)
	fn := Func(func() {})
	// Warm the pool, heap and free list to their peak sizes.
	for i := 0; i < depth; i++ {
		k.AtActor(Time(r.Intn(1<<16)), fn)
	}
	k.Run()
	avg := testing.AllocsPerRun(100, func() {
		base := k.Now()
		for i := 0; i < depth; i++ {
			k.AtActor(base+Time(r.Intn(1<<16)), fn)
		}
		// Drain through RunUntil first so the cached-root peek path is
		// under the same 0-alloc contract, then finish with Run.
		k.RunUntil(base + 1<<15)
		k.Run()
	})
	if avg != 0 {
		t.Fatalf("warm Schedule/Run allocated %.1f times per %d events, want 0", avg, depth)
	}
}

// TestRunUntilPeeksCachedRoot pins the root-timestamp cache: RunUntil must
// stop exactly at the cached earliest event, and the cache must track
// schedule/pop churn (including AtActor calls made while paused
// mid-drain).
func TestRunUntilPeeksCachedRoot(t *testing.T) {
	k := NewKernel()
	var fired []Time
	rec := Func(func() { fired = append(fired, k.Now()) })
	for _, at := range []Time{50, 10, 30, 70} {
		k.AtActor(at, rec)
	}
	if k.rootAt != 10 {
		t.Fatalf("rootAt = %v after scheduling, want 10", k.rootAt)
	}
	if k.RunUntil(30) {
		t.Fatal("queue should not have drained by t=30")
	}
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 30 {
		t.Fatalf("fired %v, want [10 30]", fired)
	}
	if k.rootAt != 50 {
		t.Fatalf("rootAt = %v mid-drain, want 50", k.rootAt)
	}
	// A newly scheduled earlier event must refresh the cache.
	k.AtActor(40, rec)
	if k.rootAt != 40 {
		t.Fatalf("rootAt = %v after AtActor(40), want 40", k.rootAt)
	}
	if !k.RunUntil(100) {
		t.Fatal("queue should have drained")
	}
	if len(fired) != 5 || fired[2] != 40 || fired[4] != 70 {
		t.Fatalf("fired %v", fired)
	}
}

// TestKernelFreeListBoundsPool checks that fired events recycle their pool
// slots: scheduling in waves must not grow the pool past the peak depth.
func TestKernelFreeListBoundsPool(t *testing.T) {
	const depth = 64
	k := NewKernel()
	fn := Func(func() {})
	for wave := 0; wave < 50; wave++ {
		base := k.Now()
		for i := 0; i < depth; i++ {
			k.AtActor(base+Time(i), fn)
		}
		k.Run()
	}
	if got := len(k.pool); got > depth {
		t.Fatalf("pool grew to %d slots across waves of %d events; free list not reusing", got, depth)
	}
}

// BenchmarkKernelSteadyState measures the hot loop every simulation spends
// its life in: events firing and rescheduling follow-ups, with the queue at
// a steady depth — the pattern of routers, adapters and pipelines in flight.
func BenchmarkKernelSteadyState(b *testing.B) {
	const depth = 1024
	k := NewKernel()
	r := NewRand(2)
	var tick Func
	tick = func() { k.AfterActor(Time(1+r.Intn(997)), tick) }
	for i := 0; i < depth; i++ {
		k.AtActor(Time(r.Intn(997)), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.pop().Act()
	}
}

// lineagedTicker is BenchmarkKernelSteadyStateLineage's actor: each firing
// records its fire time in a short history window and reschedules itself.
type lineagedTicker struct {
	k    *Kernel
	r    *Rand
	hist [4]Time
	inj  uint64
}

func (a *lineagedTicker) Act() {
	copy(a.hist[:], a.hist[1:])
	a.hist[len(a.hist)-1] = a.k.Now()
	a.k.AfterActor(Time(8*(1+a.r.Intn(125))), a)
}

func (a *lineagedTicker) Lineage() ([]Time, uint64) { return a.hist[:], a.inj }

// BenchmarkKernelSteadyStateLineage is BenchmarkKernelSteadyState under
// lineage tie ordering. Delays are multiples of 8 ps up to 1000 ps, so
// about eight pending events share each timestamp and the sifts fall into
// tieBefore often, as they do on the closed-loop network workloads.
func BenchmarkKernelSteadyStateLineage(b *testing.B) {
	const depth = 1024
	k := NewKernel()
	r := NewRand(2)
	for i := 0; i < depth; i++ {
		k.AtActor(Time(8*r.Intn(125)), &lineagedTicker{k: k, r: r, inj: uint64(i)})
	}
	k.BeginLineageOrder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.pop().Act()
	}
}
