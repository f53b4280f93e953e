// Package sim provides a small, deterministic discrete-event simulation
// kernel used by every timing model in this repository.
//
// Time is kept as an integer number of picoseconds so that the 2.8 GHz core
// clock of the Anton 3 ASIC (357 ps/cycle), the 29 Gb/s SERDES bit time
// (34.48 ps/bit) and cable flight times can all be expressed without floating
// point drift. Events scheduled for the same instant fire in the order they
// were scheduled, which makes every simulation in this repository
// reproducible run-to-run.
package sim

import "fmt"

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common duration units, all in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
)

// Nanoseconds reports t as a float64 number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String renders the time in nanoseconds with picosecond resolution.
func (t Time) String() string { return fmt.Sprintf("%.3fns", t.Nanoseconds()) }

// Clock converts between cycles of a fixed-frequency clock and Time.
// The zero Clock is invalid; use NewClock.
type Clock struct {
	psPerCycle Time
}

// NewClock returns a clock running at the given frequency in MHz.
// The Anton 3 core clock is NewClock(2800): 2.8 GHz, 357 ps per cycle
// (rounded to the nearest picosecond; the 0.04% rounding error is far below
// every latency the paper reports).
func NewClock(mhz int64) Clock {
	if mhz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	return Clock{psPerCycle: Time((1000*1000 + mhz/2) / mhz)}
}

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.psPerCycle }

// Period returns the duration of one cycle.
func (c Clock) Period() Time { return c.psPerCycle }

// ToCycles reports how many full cycles fit in d.
func (c Clock) ToCycles(d Time) int64 { return int64(d / c.psPerCycle) }
