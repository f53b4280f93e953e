package cores

import (
	"runtime"
	"testing"
)

// TestLaneStartsOnlyOnAFreeCore checks that a Lane starts only when
// GOMAXPROCS leaves a core besides the caller's, that its function runs
// before Wait returns, and that Wait frees the core it held.
func TestLaneStartsOnlyOnAFreeCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var l Lane
	ran := false
	f := func() { ran = true }
	if l.Start(f) {
		l.Wait()
		t.Fatal("a Lane started at GOMAXPROCS 1")
	}
	if ran || Free() != 0 {
		t.Fatalf("a Lane that did not start ran %v and left Free() = %d, want false and 0", ran, Free())
	}

	runtime.GOMAXPROCS(2)
	if !l.Start(f) {
		t.Fatal("a Lane did not start at GOMAXPROCS 2 with nothing held")
	}
	if got := Free(); got != 0 {
		t.Errorf("Free() = %d while the Lane runs, want 0", got)
	}
	var other Lane
	if other.Start(func() {}) {
		other.Wait()
		t.Error("a second Lane started while the first held the only free core")
	}
	l.Wait()
	if !ran {
		t.Fatal("Wait returned before the Lane's function ran")
	}
	if got := Free(); got != 1 {
		t.Fatalf("Free() = %d after Wait, want 1", got)
	}
}

// TestFreeFollowsGOMAXPROCS checks that Free reads GOMAXPROCS at each
// call and subtracts the held cores.
func TestFreeFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if got := Free(); got != 3 {
		t.Fatalf("Free() = %d at GOMAXPROCS 4, want 3", got)
	}
	Hold(2)
	if got := Free(); got != 1 {
		t.Errorf("Free() = %d at GOMAXPROCS 4 with 2 held, want 1", got)
	}
	runtime.GOMAXPROCS(2)
	if got := Free(); got != -1 {
		t.Errorf("Free() = %d at GOMAXPROCS 2 with 2 held, want -1", got)
	}
	Hold(-2)
	if got := Free(); got != 1 {
		t.Fatalf("Free() = %d at GOMAXPROCS 2 after freeing, want 1", got)
	}
}
