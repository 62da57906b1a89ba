// Package kernel defines the simulator kernel modes and the wakeup
// protocol shared by the cycle-accurate SoC and the continuous-time
// drivers (DESIGN.md §11).
//
// A simulated unit that consumes clock cycles implements the wakeup
// protocol: it reports the next cycle at which ticking it would change
// state (a miss completing, the Walloc FSM moving a way, a task release).
// When every unit reports Never, the kernel may jump the clock directly
// to the earliest external wakeup instead of idling through no-op ticks —
// the "events" kernel, which every command runs. The "ticked" kernel
// advances one cycle at a time regardless and is the test oracle: both
// must produce identical flight recordings, metrics and experiment
// outputs. The tests that hold them to it select the mode through the
// Kernel field of soc.Config, rtsim.Config, schedsim.Options and the
// experiment configs: internal/experiments/kernel_test.go (every sweep
// entry point), internal/monitor/demo_test.go (the repro SoC smoke run),
// internal/rtos/kernel_test.go (the full stack), and the per-simulator
// kernel tests of soc, rtsim and schedsim.
package kernel

import "fmt"

// Mode selects the simulator kernel. The zero value is Events, the
// time-skipping kernel; Ticked is the cycle-by-cycle kernel the tests
// diff it against.
type Mode uint8

const (
	// Events is the event-driven time-skipping kernel: when no unit is
	// runnable the clock jumps to the minimum reported wakeup.
	Events Mode = iota

	// Ticked is the oracle kernel: every unit is ticked every cycle,
	// even through known-latency stalls.
	Ticked
)

// String returns the name of the mode, as memo fingerprints record it.
func (m Mode) String() string {
	switch m {
	case Events:
		return "events"
	case Ticked:
		return "ticked"
	}
	return fmt.Sprintf("kernel.Mode(%d)", uint8(m))
}

// Never is the wakeup a unit reports when no future tick can change its
// state without an intervening external call. A unit reporting Never may
// be skipped to any future cycle.
const Never = ^uint64(0)

// Waker is one clock-consuming unit of the wakeup protocol.
type Waker interface {
	// NextWakeup returns the earliest cycle at which ticking the unit
	// would change state, or Never when the unit is idle.
	NextWakeup() uint64
}

// Earliest returns the minimum of the given wakeups (Never when the list
// is empty or all-idle) — the cycle the events kernel jumps to.
func Earliest(wakeups ...uint64) uint64 {
	min := uint64(Never)
	for _, w := range wakeups {
		if w < min {
			min = w
		}
	}
	return min
}
