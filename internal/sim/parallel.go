package sim

// Deferrer accepts an event whose target lives on another shard's kernel:
// instead of scheduling immediately, the event is buffered and scheduled
// at the next window barrier. serdes channels whose far end belongs to a
// different shard send through a Deferrer.
type Deferrer interface {
	Defer(at Time, a Actor)
}

// deferred is one buffered cross-shard event.
type deferred struct {
	at    Time
	actor Actor
}

// Outbox buffers the cross-shard events one source shard emits toward one
// destination shard during a window. It has exactly one writer (the source
// shard's goroutine, during the window) and one reader (the barrier, after
// the window), so it needs no locking.
type Outbox struct {
	entries []deferred
}

// Defer implements Deferrer.
func (o *Outbox) Defer(at Time, a Actor) {
	o.entries = append(o.entries, deferred{at: at, actor: a})
}

// ParallelExec runs a group of shard kernels as one logical simulation
// using classic conservative (Chandy–Misra style) lookahead. Every event
// that crosses from one shard to another is guaranteed to arrive at least
// `lookahead` picoseconds after it was emitted — in this repository the
// guarantee comes from the serdes channel's FixedLatency floor, which every
// inter-node packet pays. That lets all shards execute the window
// [T, T+lookahead) independently: no event generated inside the window can
// land inside it on another shard.
//
// The loop is:
//
//  1. T = earliest pending event across all kernels; stop if none.
//  2. All shards run their own events with timestamps in [T, T+lookahead)
//     concurrently, appending cross-shard emissions to per-(src,dst)
//     outboxes.
//  3. Barrier: each destination kernel absorbs its inbound outboxes in a
//     deterministic order — (arrival time, source shard, source emission
//     order) — so the merged schedule sequence never depends on goroutine
//     interleaving.
//
// Determinism: for a fixed shard count, results are exactly reproducible
// (each kernel is sequential within a window and merges are canonically
// ordered). For results that are additionally *independent of the shard
// count*, same-timestamp execution order must also match the sequential
// kernel's — that is what Kernel.BeginLineageOrder provides for workloads
// whose runtime events are Lineaged actors.
type ParallelExec struct {
	ks      []*Kernel
	look    Time
	out     [][]Outbox // [src][dst]
	scratch []deferred // merge buffer, reused across barriers

	// Persistent window workers: one goroutine per shard, parked on its
	// work channel between windows, spawned lazily at the first window
	// with more than one active shard and stopped when Run returns. The
	// channels and the active-shard scratch live here so a reused
	// executive's Run is allocation-free in steady state.
	work  []chan Time
	done  chan struct{}
	spawn []func() // spawn[i] runs worker i; prebuilt because `go` with arguments allocates a wrapper closure per spawn
	act   []int
}

// NewParallelExec builds an executive over the given shard kernels.
// lookahead is the minimum cross-shard event latency; it must be positive,
// and every Defer must honor it or Run panics scheduling into the past.
func NewParallelExec(ks []*Kernel, lookahead Time) *ParallelExec {
	if len(ks) == 0 {
		panic("sim: ParallelExec needs at least one kernel")
	}
	if lookahead < 1 {
		panic("sim: ParallelExec lookahead must be positive")
	}
	out := make([][]Outbox, len(ks))
	for i := range out {
		out[i] = make([]Outbox, len(ks))
	}
	return &ParallelExec{ks: ks, look: lookahead, out: out}
}

// Outbox returns the buffer for events shard src emits toward shard dst.
// Wiring code (the machine) hands it to every cross-shard channel.
func (x *ParallelExec) Outbox(src, dst int) *Outbox { return &x.out[src][dst] }

// Run executes windows until every kernel drains and every outbox is
// empty, and returns the timestamp of the last executed event across all
// shards — the value a sequential Kernel.Run over the same event set would
// have returned.
func (x *ParallelExec) Run() Time {
	started := false
	for {
		// Window floor T and the set of shards with events inside the
		// window. Shards with nothing before the deadline are skipped
		// entirely — their kernels' clocks catch up when they next run —
		// and a window with a single active shard executes inline on this
		// goroutine, no handoff. Worker goroutines spawn only at the first
		// genuinely parallel window and park on their channels between
		// windows, so per-window cost is a channel send per active shard
		// instead of a goroutine spawn per shard.
		T, have := Time(0), false
		for _, k := range x.ks {
			if at, ok := k.nextAt(); ok && (!have || at < T) {
				T, have = at, true
			}
		}
		if !have {
			break
		}
		deadline := T + x.look - 1
		x.act = x.act[:0]
		for i, k := range x.ks {
			if at, ok := k.nextAt(); ok && at <= deadline {
				x.act = append(x.act, i)
			}
		}
		if len(x.act) == 1 {
			x.ks[x.act[0]].RunUntil(deadline)
		} else {
			if !started {
				x.startWorkers()
				started = true
			}
			for _, i := range x.act {
				x.work[i] <- deadline
			}
			for range x.act {
				<-x.done
			}
		}
		x.merge()
	}
	if started {
		// Retire the workers and wait for each to acknowledge: the ack is
		// the last thing a worker does before returning, so by the time Run
		// returns the worker goroutines are (about to be) dead and the next
		// Run's spawns recycle them instead of allocating fresh ones.
		for _, c := range x.work {
			c <- stopWorker
		}
		for range x.work {
			<-x.done
		}
	}
	var last Time
	for _, k := range x.ks {
		if k.lastAt > last {
			last = k.lastAt
		}
	}
	// Align every kernel clock to the last executed event. RunUntil leaves a
	// drained kernel at its window deadline, which depends on the window
	// geometry (and therefore the shard count); callers that chain phases
	// with `Now()` — the timestep engine starts step N+1 at the clock step N
	// ended on — need the post-run clock to be the sequential kernel's:
	// the timestamp of the last event, exactly what Kernel.Run leaves
	// behind. Safe to force in both directions: every kernel has drained,
	// every outbox is empty, and last >= every kernel's own lastAt, so no
	// executed event lies beyond the clock and nothing can schedule into
	// the past.
	for _, k := range x.ks {
		k.now = last
	}
	return last
}

// stopWorker is the sentinel deadline that retires a window worker; real
// deadlines are never negative. A sentinel (rather than closing the work
// channels) lets a reused executive keep its channels across Runs.
const stopWorker = Time(-1)

// startWorkers spawns one parked window worker per shard, building the
// channels on first use only — a reused executive's later Runs respawn
// workers on the cached channels without allocating.
func (x *ParallelExec) startWorkers() {
	if x.work == nil {
		x.work = make([]chan Time, len(x.ks))
		x.spawn = make([]func(), len(x.ks))
		for i := range x.work {
			i := i
			x.work[i] = make(chan Time, 1)
			x.spawn[i] = func() { x.worker(i) }
		}
		x.done = make(chan struct{}, len(x.ks))
	}
	for i := range x.ks {
		go x.spawn[i]()
	}
}

// worker runs shard i's window deadlines until retired.
func (x *ParallelExec) worker(i int) {
	k := x.ks[i]
	for {
		dl := <-x.work[i]
		if dl == stopWorker {
			x.done <- struct{}{}
			return
		}
		k.RunUntil(dl)
		x.done <- struct{}{}
	}
}

// merge drains every outbox into its destination kernel. Entries for one
// destination are concatenated in source-shard order (which preserves each
// source's emission order) and then stable-sorted by arrival time, so the
// destination's schedule sequence is exactly (arrival time, source shard,
// source emission order) no matter how the window's goroutines interleaved.
func (x *ParallelExec) merge() {
	for d := range x.ks {
		s := x.scratch[:0]
		for src := range x.ks {
			ob := &x.out[src][d]
			s = append(s, ob.entries...)
			ob.entries = ob.entries[:0]
		}
		if len(s) == 0 {
			continue
		}
		// Stable insertion sort by arrival time: batches are small and
		// nearly sorted, and sorting in place keeps the barrier
		// allocation-free in steady state.
		for i := 1; i < len(s); i++ {
			e := s[i]
			j := i - 1
			for j >= 0 && s[j].at > e.at {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = e
		}
		k := x.ks[d]
		for _, e := range s {
			k.AtActor(e.at, e.actor)
		}
		x.scratch = s[:0]
	}
}
