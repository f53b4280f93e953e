package main

import "time"

// refNominal is about the shortest time of one reference round seen on the
// calibration host, a 2-vCPU Intel Xeon (Emerald Rapids) VM shared with
// other tenants. Normalized host times read as host time on that host when
// it runs that fast.
const refNominal = 2500 * time.Microsecond

// refRound is how many times one reference round replaces the top of its
// heap.
const refRound = 1 << 15

// refEvery is the least host time between two reference samples, and
// refShare the share of that time a sample takes. One round is noisy, since
// the host takes the vCPU away in slices of milliseconds; a sample as long
// as a tenth of the time it normalizes averages over enough of them.
const (
	refEvery = 20 * time.Millisecond
	refShare = 0.1
)

// speedRef measures how fast the host runs at the moment. Other tenants of
// a shared host slow this process by up to 2x for minutes at a time, and the
// guest sees no steal time, so a wall-clock time alone says as much about the
// neighbours as about the simulator. speedRef times a fixed computation that
// shares no code with the simulator: replacing the top of a 64 KiB binary
// heap. It allocates nothing and its heap stays in the core's own cache, so
// the simulator's memory use does not change its time.
type speedRef struct {
	heap []uint64
	x    uint64
}

func newSpeedRef() *speedRef {
	r := &speedRef{heap: make([]uint64, 1<<13), x: 1}
	for i := range r.heap {
		r.x = splitmix(r.x)
		r.heap[i] = r.x >> 44
	}
	for i := len(r.heap)/2 - 1; i >= 0; i-- {
		siftDown(r.heap, i)
	}
	r.speed(0) // warm up
	return r
}

// speed runs whole reference rounds for at least the given host time, and
// at least one, and returns the host's speed as a share of the nominal
// host's. A host time measured just before, times the speed, is that time
// on the nominal host.
func (r *speedRef) speed(atLeast time.Duration) float64 {
	t := time.Now()
	rounds := 0
	for rounds == 0 || time.Since(t) < atLeast {
		for i := 0; i < refRound; i++ {
			r.x = splitmix(r.x)
			r.heap[0] += r.x % 1024
			siftDown(r.heap, 0)
		}
		rounds++
	}
	return float64(rounds) * float64(refNominal) / float64(time.Since(t))
}

// siftDown restores the min-heap order below h[i].
func siftDown(h []uint64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
