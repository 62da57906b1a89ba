// Package flight (testdata): the flight recorder has no clock carve-out.
// Its events are cycle-stamped sim-time and nothing in it paces or
// timestamps anything, so a wall-clock read here is a finding like in any
// simulator package, and the global math/rand generator stays banned.
package flight

import (
	"math/rand"
	"time"
)

// pollEvents paces a loop off a wall-clock ticker: flagged.
func pollEvents(interval time.Duration, send func()) *time.Ticker {
	tick := time.NewTicker(interval) // want "time.NewTicker reads the wall clock"
	go func() {
		for range tick.C {
			send()
		}
	}()
	return tick
}

// waited measures host time: flagged.
func waited(since time.Time) time.Duration {
	return time.Since(since) // want "time.Since reads the wall clock"
}

// badSampleJitter may not draw from the global generator; any randomness
// in the recorder must come from an injected seed.
func badSampleJitter() int {
	return rand.Intn(8) // want "rand.Intn uses the global generator"
}
