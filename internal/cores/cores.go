// Package cores keeps one process-wide count of held cores, so that the
// code putting work on spare cores draws from one budget: the runner's
// jobs and their kernel shards, and the helper lanes of the MD force pass
// and the traffic replay. Nothing is held outside a runner.Run, so there
// a Lane starts whenever GOMAXPROCS is above 1.
package cores

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var held atomic.Int64

// Free returns how many cores nobody holds besides the caller's own:
// GOMAXPROCS - 1 - held. It reads GOMAXPROCS at each call, so it follows
// a change of it. It is negative while holders overdraw the budget.
func Free() int { return runtime.GOMAXPROCS(0) - 1 - int(held.Load()) }

// Hold adds n cores to the held count; a negative n frees them.
func Hold(n int) { held.Add(int64(n)) }

// Lane runs one function at a time on a helper goroutine, on a core it
// holds from Start until Wait. Its zero value is ready to use; a Lane is
// not safe for concurrent Starts.
type Lane struct {
	// body runs f and marks the lane done. It is bound once, so that
	// starting the goroutine allocates nothing.
	body func()
	f    func()
	done sync.WaitGroup
}

// Start holds a free core and runs f on it in a new goroutine, and
// reports true; with no core free it reports false and runs nothing, and
// the caller does the work itself. Each true Start needs one Wait.
func (l *Lane) Start(f func()) bool {
	if int(held.Add(1)) > runtime.GOMAXPROCS(0)-1 {
		held.Add(-1)
		return false
	}
	if l.body == nil {
		l.body = l.run
	}
	l.f = f
	l.done.Add(1)
	go l.body()
	return true
}

func (l *Lane) run() {
	l.f()
	l.done.Done()
}

// Wait blocks until the function of the last Start has returned, and
// frees its core.
func (l *Lane) Wait() {
	l.done.Wait()
	held.Add(-1)
}
