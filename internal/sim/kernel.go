package sim

import (
	"math/bits"
	"slices"
)

// Actor is the kernel's one event kind: objects that carry their own
// callback state (e.g. an in-flight packet) implement Act and are scheduled
// with AtActor/AfterActor. The interface value is two words copied into the
// event pool, so scheduling an existing object allocates nothing — the
// property the machine's packet hot path is built on.
type Actor interface {
	Act()
}

// Func adapts a plain function to an Actor, for the few callbacks scheduled
// off the hot path. A Func is not Lineaged, so same-timestamp Func events
// order by schedule sequence.
type Func func()

// Act calls f.
func (f Func) Act() { f() }

// heapKey is one heap entry's ordering key. Keeping timestamp and schedule
// sequence adjacent in a single 16-byte struct means a sift comparison
// loads one key with one cache access instead of gathering from two
// parallel arrays.
type heapKey struct {
	at  Time
	seq uint64
}

// heapRoot is the array index of the heap's root. Indices 0..2 are unused
// padding: with the root at 3, the four children of node i sit at
// 4i-8..4i-5 — a block whose byte offset (16 bytes per key) is a multiple
// of 64, so every child block sinkRoot compares touches exactly one cache
// line once the keys array is cache-line aligned (large allocations are).
const heapRoot = 3

// Kernel is a discrete-event simulation executive. It is not safe for
// concurrent use; all components of one simulated machine share one Kernel
// and run in a single goroutine, which is what makes runs deterministic.
// Distinct Kernels share nothing, so independent simulations may run on
// separate goroutines concurrently (the runner package relies on this).
//
// The pending-event queue is a 4-ary min-heap laid out structure-of-arrays:
// heap holds pool slot indices while keys holds the (timestamp, schedule
// sequence) ordering keys in a parallel array, so sift comparisons read one
// flat key array instead of dereferencing the event pool — only lineage
// tie-breaks (equal timestamps in lineage mode) touch the pool for the
// actors. The pool itself stores just the two-word Actor, recycled through
// a free list, so scheduling is allocation-free once the pool has grown to
// the simulation's peak queue depth.
type Kernel struct {
	now    Time
	seq    uint64
	heap   []int32   // 4-ary min-heap of pool slots, rooted at heapRoot
	keys   []heapKey // keys[i] is slot heap[i]'s ordering key
	rootAt Time      // keys[heapRoot].at, cached; valid while the heap is non-empty
	pool   []Actor
	free   []int32 // recycled pool slots
	fired  uint64
	lastAt Time // timestamp of the last executed event (unlike now, never forced forward by RunUntil)

	// Staged lane: bulk setup events (e.g. a harness's pre-drawn injection
	// schedule) live here as a flat (at, seq)-sorted array consumed front to
	// back, instead of inflating the heap with thousands of far-future
	// entries that every hot-path pop would sift across. Because staged
	// events are always setup events (scheduled before BeginLineageOrder),
	// comparing (at, seq) against the heap root reproduces the exact order
	// a single heap would produce in both sequence and lineage modes —
	// lineage only diverges from sequence comparison when both events are
	// runtime-scheduled.
	ladder    []ladderEvt
	ladderPos int

	// Lineage tie ordering (see BeginLineageOrder): armed by machines that
	// are sharded or have per-VC queues.
	lineage  bool
	setupSeq uint64 // highest seq scheduled before BeginLineageOrder
}

// NewKernel returns a kernel with the clock at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// EventsFired reports how many events have executed so far (useful for
// performance accounting in benchmarks).
func (k *Kernel) EventsFired() uint64 { return k.fired }

// heapLen reports the number of events in the heap (excluding padding).
func (k *Kernel) heapLen() int {
	if n := len(k.heap) - heapRoot; n > 0 {
		return n
	}
	return 0
}

// Pending reports the number of scheduled-but-unfired events.
func (k *Kernel) Pending() int { return k.heapLen() + len(k.ladder) - k.ladderPos }

// ladderEvt is one staged-lane event (see Kernel.StageActor).
type ladderEvt struct {
	at    Time
	seq   uint64
	actor Actor
}

// StageActor schedules a.Act() at absolute time at in the staged lane: a
// flat array the kernel keeps sorted by (time, schedule sequence) and merges
// with the heap at pop time. Use it for bulk setup schedules — thousands of
// pre-drawn future events that would otherwise deepen the heap every
// hot-path pop has to sift across. SealStage must be called after the last
// StageActor and before any event fires; both belong to the setup phase
// (before BeginLineageOrder / running), where firing order is defined by
// schedule sequence alone.
func (k *Kernel) StageActor(at Time, a Actor) {
	if at < k.now {
		panic("sim: event scheduled in the past")
	}
	k.seq++
	k.ladder = append(k.ladder, ladderEvt{at: at, seq: k.seq, actor: a})
}

// SealStage sorts the staged lane into firing order. Events staged after
// the previous seal (or reset) are sorted together with any not yet fired.
func (k *Kernel) SealStage() {
	lad := k.ladder[k.ladderPos:]
	sortLadder(lad)
}

// sortLadder sorts staged events by (at, seq) — a total order, since
// schedule sequences are unique — with a plain in-place pdq-style sort from
// the standard library, allocation-free.
func sortLadder(lad []ladderEvt) {
	slices.SortFunc(lad, func(a, b ladderEvt) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
}

// nextAt returns the timestamp of the earliest pending event and whether
// any event is pending, merging the heap root with the staged-lane head.
func (k *Kernel) nextAt() (Time, bool) {
	hasLad := k.ladderPos < len(k.ladder)
	if len(k.heap) > heapRoot {
		if hasLad && k.ladder[k.ladderPos].at < k.rootAt {
			return k.ladder[k.ladderPos].at, true
		}
		return k.rootAt, true
	}
	if hasLad {
		return k.ladder[k.ladderPos].at, true
	}
	return 0, false
}

// Lineaged is implemented by actors that carry their own event-history
// rank: the fire times of every past event of their causal chain (oldest
// first) plus a globally unique injection order. Kernels in lineage mode
// use it to break same-timestamp ties exactly as a single sequential
// kernel's schedule order would (see BeginLineageOrder).
type Lineaged interface {
	Actor
	// Lineage returns the chain of past fire times (oldest first) and the
	// setup order of the chain's injection event.
	Lineage() (hist []Time, inj uint64)
}

// tieBefore orders two same-timestamp events in lineage mode the way the
// equivalent sequential kernel would, identified by pool slot and schedule
// sequence. In a sequential kernel, same-time events fire in schedule
// order, and an event's schedule position is its scheduler's execution
// position — recursively, until the chains reach setup-scheduled events,
// which all precede every runtime-scheduled event and order among
// themselves by setup sequence. Comparing the actors' fire-time histories
// newest-first implements exactly that recursion, so the order of any two
// events is a function of event content alone — independent of which shard
// kernel hosts them, in what order cross-shard merges inserted them, and
// of the shard count itself. Slot-based (rather than heap-positional)
// operands let the lineage sifts carry entries in registers like the
// sequence-mode sifts; only this tie path touches the pool.
func (k *Kernel) tieBefore(slotA int32, qa uint64, slotB int32, qb uint64) bool {
	sa, sb := qa <= k.setupSeq, qb <= k.setupSeq
	if sa || sb {
		if sa != sb {
			// Setup events were all scheduled before any runtime event.
			return sa
		}
		// Both setup: local schedule order is the global setup order
		// restricted to this shard, which preserves relative order.
		return qa < qb
	}
	la, okA := k.pool[slotA].(Lineaged)
	lb, okB := k.pool[slotB].(Lineaged)
	if !okA || !okB {
		// Funcs or unranked actors at runtime: schedule order is the best
		// available (deterministic, but only sequential-equivalent for
		// Lineaged chains).
		return qa < qb
	}
	ha, ia := la.Lineage()
	hb, ib := lb.Lineage()
	da, db := len(ha)-1, len(hb)-1
	for da >= 0 && db >= 0 {
		if ha[da] != hb[db] {
			return ha[da] < hb[db]
		}
		da--
		db--
	}
	if (da < 0) != (db < 0) {
		// The exhausted chain's next ancestor is its setup-scheduled
		// injection event, which precedes the other chain's runtime
		// ancestor at the same (tied) fire time.
		return da < 0
	}
	return ia < ib
}

// BeginLineageOrder switches the kernel to lineage tie ordering: events at
// equal timestamps compare by their actors' Lineage instead of schedule
// sequence. Call it after all setup events have been scheduled and before
// running; events already queued are treated as setup events. A sharded
// machine arms it on every shard kernel to make results independent of
// the shard count, not merely of goroutine interleaving, and a machine
// with per-VC queues arms it at one shard too, because credit arrivals
// revive parked packets from foreign events.
func (k *Kernel) BeginLineageOrder() {
	k.lineage = true
	k.setupSeq = k.seq
}

// Reset returns the kernel to its just-constructed state while retaining
// the event pool's capacity, so a reused kernel schedules without heap
// allocations from the first event. It must not be called while Run is
// executing.
func (k *Kernel) Reset() {
	k.now, k.seq, k.rootAt, k.lastAt = 0, 0, 0, 0
	k.heap = k.heap[:0]
	k.keys = k.keys[:0]
	k.pool = k.pool[:0]
	k.free = k.free[:0]
	k.ladder = k.ladder[:0]
	k.ladderPos = 0
	k.fired = 0
	k.lineage = false
	k.setupSeq = 0
}

// heap index arithmetic, rooted at heapRoot: children of i sit at
// 4i-8..4i-5 and the parent of c is c/4+2.

// siftUp restores heap order after appending at position i. The sequence
// comparison is inlined here (a schedule sequence strictly orders every
// same-timestamp pair), so the hot path runs branch-light over the flat
// key array; lineage mode routes through the comparator-based variant.
func (k *Kernel) siftUp(i int) {
	if k.lineage {
		k.siftUpLineage(i)
		return
	}
	h, ks := k.heap, k.keys
	slot, key := h[i], ks[i]
	for i > heapRoot {
		p := i/4 + 2
		pk := ks[p]
		if pk.at < key.at || (pk.at == key.at && pk.seq < key.seq) {
			break
		}
		h[i], ks[i] = h[p], pk
		i = p
	}
	h[i], ks[i] = slot, key
}

// siftUpLineage is siftUp with lineage tie ordering: the timestamp
// comparison stays inlined over the flat key array, and only an exact
// timestamp tie pays the tieBefore call into the pool.
func (k *Kernel) siftUpLineage(i int) {
	h, ks := k.heap, k.keys
	slot, key := h[i], ks[i]
	for i > heapRoot {
		p := i/4 + 2
		pk := ks[p]
		if pk.at < key.at || (pk.at == key.at && k.tieBefore(h[p], pk.seq, slot, key.seq)) {
			break
		}
		h[i], ks[i] = h[p], pk
		i = p
	}
	h[i], ks[i] = slot, key
}

// keyLess reports, as 0 or 1, whether key a orders before key b: the
// borrow out of the 128-bit subtraction (a.at, a.seq) - (b.at, b.seq).
// Timestamps are never negative, so their unsigned compare is exact. The
// borrow is a value rather than a branch condition, which lets sinkRoot
// select with conditional moves instead of data-dependent jumps.
func keyLess(a, b heapKey) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// atLess reports, as 0 or 1, whether timestamp a precedes b, as a borrow
// like keyLess.
func atLess(a, b Time) uint64 {
	_, borrow := bits.Sub64(uint64(a), uint64(b), 0)
	return borrow
}

// minOf returns whichever of the entries (i, x) and (j, y) orders first,
// and (i, x) when the keys are equal.
func minOf(i int, x heapKey, j int, y heapKey) (int, heapKey) {
	return pick(keyLess(y, x), i, x, j, y)
}

// pick returns (j, y) when lt is 1 and (i, x) when it is 0, with no branch:
// the index by mask arithmetic, and each key word by a conditional move
// (one if per word, because the compiler turns only a single-value select
// into a conditional move).
func pick(lt uint64, i int, x heapKey, j int, y heapKey) (int, heapKey) {
	if lt != 0 {
		x.at = y.at
	}
	if lt != 0 {
		x.seq = y.seq
	}
	return i ^ (i^j)&-int(lt), x
}

// sinkRoot refills the root hole left by pop with the carried entry
// (formerly the heap's last element) using the bottom-up strategy: sink
// the hole to a leaf along the min-child path with no carried-key
// compares, then sift the carried entry back up from the leaf. Because
// the carried entry was a leaf, it nearly always belongs at the bottom,
// so the up-pass exits after one compare — saving the per-level
// carried-key compare a top-down sift pays on the way down. The final
// heap arrangement can differ from a top-down sift's, but pop order is
// the (timestamp, sequence) total order either way.
//
// A full block of four children is resolved by a branch-free tournament:
// keyLess compares (c, c+1) and (c+2, c+3), then the two winners, and
// conditional moves carry each winner's index and key. Which child wins
// is data-dependent and close to random, so the jumps of a
// compare-and-jump scan are often mispredicted; the tournament has no jump
// to mispredict, and the next level's load issues as soon as the winner's
// index is known. Only the bottom level's partial block (fewer than four
// children) is scanned. The minimum of a strict total order is unique,
// so the heap arrangement and pop order match a scan's exactly.
func (k *Kernel) sinkRoot(slot int32, key heapKey) {
	if k.lineage {
		k.sinkRootLineage(slot, key)
		return
	}
	h, ks := k.heap, k.keys
	n := len(h)
	i := heapRoot
	for {
		c := 4*i - 8
		if c+4 > n {
			if c < n {
				min, minK := c, ks[c]
				for j := c + 1; j < n; j++ {
					if keyLess(ks[j], minK) != 0 {
						min, minK = j, ks[j]
					}
				}
				h[i], ks[i] = h[min], minK
				i = min
			}
			break
		}
		blk := ks[c : c+4 : c+4]
		a, ka := minOf(c, blk[0], c+1, blk[1])
		b, kb := minOf(c+2, blk[2], c+3, blk[3])
		a, ka = minOf(a, ka, b, kb)
		h[i], ks[i] = h[a], ka
		i = a
	}
	for i > heapRoot {
		p := i/4 + 2
		pk := ks[p]
		if pk.at < key.at || (pk.at == key.at && pk.seq < key.seq) {
			break
		}
		h[i], ks[i] = h[p], pk
		i = p
	}
	h[i], ks[i] = slot, key
}

// sinkRootLineage is sinkRoot's bottom-up refill under lineage tie
// ordering. A full child block runs the same tournament, with each
// compare a timestamp borrow that calls tieBefore only when the two
// timestamps are equal; the partial last block and the leaf-to-root sift
// compare timestamps inline and likewise fall into tieBefore only on
// exact ties. The bottom-up argument carries over unchanged — pop order is
// whatever total order the comparator defines, regardless of internal
// arrangement, and tieBefore is a strict total order on same-timestamp
// events.
func (k *Kernel) sinkRootLineage(slot int32, key heapKey) {
	h, ks := k.heap, k.keys
	n := len(h)
	i := heapRoot
	for {
		c := 4*i - 8
		if c+4 > n {
			if c < n {
				min, minK := c, ks[c]
				for j := c + 1; j < n; j++ {
					jk := ks[j]
					if jk.at < minK.at || (jk.at == minK.at && k.tieBefore(h[j], jk.seq, h[min], minK.seq)) {
						min, minK = j, jk
					}
				}
				h[i], ks[i] = h[min], minK
				i = min
			}
			break
		}
		blk := ks[c : c+4 : c+4]
		hb := h[c : c+4 : c+4]
		lt := atLess(blk[1].at, blk[0].at)
		if blk[1].at == blk[0].at && k.tieBefore(hb[1], blk[1].seq, hb[0], blk[0].seq) {
			lt = 1
		}
		a, ka := pick(lt, c, blk[0], c+1, blk[1])
		lt = atLess(blk[3].at, blk[2].at)
		if blk[3].at == blk[2].at && k.tieBefore(hb[3], blk[3].seq, hb[2], blk[2].seq) {
			lt = 1
		}
		b, kb := pick(lt, c+2, blk[2], c+3, blk[3])
		lt = atLess(kb.at, ka.at)
		if kb.at == ka.at && k.tieBefore(h[b], kb.seq, h[a], ka.seq) {
			lt = 1
		}
		a, ka = pick(lt, a, ka, b, kb)
		h[i], ks[i] = h[a], ka
		i = a
	}
	for i > heapRoot {
		p := i/4 + 2
		pk := ks[p]
		if pk.at < key.at || (pk.at == key.at && k.tieBefore(h[p], pk.seq, slot, key.seq)) {
			break
		}
		h[i], ks[i] = h[p], pk
		i = p
	}
	h[i], ks[i] = slot, key
}

// AtActor schedules a.Act() to run at absolute time at. The two-word
// interface value is stored in the event pool directly, so the call is
// allocation-free once the pool has grown. Scheduling in the past panics:
// it is always a modeling bug.
func (k *Kernel) AtActor(at Time, a Actor) {
	if at < k.now {
		panic("sim: event scheduled in the past")
	}
	k.seq++
	var idx int32
	if n := len(k.free) - 1; n >= 0 {
		idx = k.free[n]
		k.free = k.free[:n]
	} else {
		k.pool = append(k.pool, nil)
		idx = int32(len(k.pool) - 1)
	}
	k.pool[idx] = a
	if len(k.heap) == 0 {
		// Reserve the root padding (see heapRoot).
		k.heap = append(k.heap, 0, 0, 0)
		k.keys = append(k.keys, heapKey{}, heapKey{}, heapKey{})
	}
	k.heap = append(k.heap, idx)
	k.keys = append(k.keys, heapKey{at: at, seq: k.seq})
	k.siftUp(len(k.heap) - 1)
	k.rootAt = k.keys[heapRoot].at
}

// AfterActor schedules a.Act() delay picoseconds from now (see AtActor).
func (k *Kernel) AfterActor(delay Time, a Actor) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	k.AtActor(k.now+delay, a)
}

// pop removes the earliest pending event — merging the heap root with the
// staged-lane head by (timestamp, schedule sequence) — and returns its
// actor, advancing the clock to its timestamp. It must not be called with
// no events pending.
func (k *Kernel) pop() Actor {
	if k.ladderPos < len(k.ladder) {
		le := &k.ladder[k.ladderPos]
		if len(k.heap) <= heapRoot || le.at < k.rootAt || (le.at == k.rootAt && le.seq < k.keys[heapRoot].seq) {
			k.ladderPos++
			k.now = le.at
			k.lastAt = le.at
			k.fired++
			a := le.actor
			le.actor = nil
			if k.ladderPos == len(k.ladder) {
				k.ladder = k.ladder[:0]
				k.ladderPos = 0
			}
			return a
		}
	}
	slot := k.heap[heapRoot]
	at := k.keys[heapRoot].at
	a := k.pool[slot]
	// Drop the reference so the GC can collect the actor.
	k.pool[slot] = nil
	k.free = append(k.free, slot)
	last := len(k.heap) - 1
	lslot, lkey := k.heap[last], k.keys[last]
	k.heap = k.heap[:last]
	k.keys = k.keys[:last]
	if last > heapRoot {
		k.sinkRoot(lslot, lkey)
		k.rootAt = k.keys[heapRoot].at
	}
	k.now = at
	k.lastAt = at
	k.fired++
	return a
}

// Run executes events until the queue drains. It returns the time of the
// last executed event.
func (k *Kernel) Run() Time {
	for k.Pending() > 0 {
		k.pop().Act()
	}
	return k.now
}

// RunUntil executes events with timestamps <= deadline, one at a time in
// the same order Run fires them, so chopping a run into windows (as
// ParallelExec does) never changes what fires when. Events scheduled beyond
// the deadline remain queued. It returns true if the queue drained before
// the deadline. The peek reads the cached root timestamp, so the hot loop
// touches only the Kernel header — no heap/pool indirection.
func (k *Kernel) RunUntil(deadline Time) bool {
	for {
		at, ok := k.nextAt()
		if !ok {
			break
		}
		if at > deadline {
			k.now = deadline
			return false
		}
		k.pop().Act()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.Pending() == 0
}
