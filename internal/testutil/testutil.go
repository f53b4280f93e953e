// Package testutil holds helpers shared by the simulator test suites.
// It imports testing, so only _test.go files should depend on it.
package testutil

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// Size selects between the full-size and -short variants of a test
// parameter. Short mode shrinks systems rather than skipping tests, so
// the CI fast lane still exercises every assertion.
func Size(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// FillGoroutineCaches fills the runtime's caches of free goroutines and
// of wait records. Starting a goroutine allocates one only when the
// current P's free list and the shared list are both empty, and a
// blocking wait allocates its record on the same terms. Code that starts
// a helper goroutine on every call, and waits for it, moves both between
// the Ps at random, so warming up by calls alone can leave one P's list
// empty for thousands of calls. This starts 256 goroutines, more than two
// Ps' lists hold, has them all block on one channel, and then releases
// them.
func FillGoroutineCaches() {
	var started, exited sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 256; i++ {
		started.Add(1)
		exited.Add(1)
		go func() {
			defer exited.Done()
			started.Done()
			<-release
		}()
	}
	started.Wait()
	close(release)
	exited.Wait()
}

// LeastMallocs calls call in up to windows windows of n calls each and
// returns the fewest mallocs the process counted over one window,
// stopping at the first window that counts none. Unlike
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 and rounds a fraction
// of an allocation per call down to 0, it counts every goroutine's
// mallocs at the current GOMAXPROCS. Under CPU contention the runtime may
// still allocate now and then (a goroutine, an OS thread, one malloc when
// ReadMemStats restarts the world), so a caller should pass when any
// window reads 0: code that allocates on every call fails all of them.
func LeastMallocs(windows, n int, call func()) uint64 {
	least := uint64(math.MaxUint64)
	for w := 0; w < windows && least != 0; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}
