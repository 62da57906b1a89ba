// Package flight is puritycheck testdata for the flight recorder, whose
// Run-family functions are entry points like any simulator package's. It
// has no carve-out: wall-clock, global-rand and fs-read hazards all
// report. Run makes this package's functions entry points.
package flight

import (
	"math/rand"
	"os"
	"time"
)

// Recorder is the fake recorder.
type Recorder struct{}

// Run is an entry-point-named method so the closure roots here.
func (r *Recorder) Run() {
	_ = stamp()
	_ = jitter()
	_ = readEnv()
}

// stamp reads the wall clock behind a helper — banned here too.
func stamp() int64 {
	return time.Now().UnixNano() // want "impure path to time.Now .wall-clock."
}

// jitter draws from the global generator — banned.
func jitter() int64 {
	return rand.Int63() // want "impure path to rand.Int63 .global-rand."
}

// readEnv consults the host environment — banned.
func readEnv() string {
	return os.Getenv("FLIGHT_MODE") // want "impure path to os.Getenv .fs-read."
}
