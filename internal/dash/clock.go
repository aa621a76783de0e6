package dash

import (
	"sync"
	"time"
)

// Clock abstracts wall-clock access for the testbed. Every read of the
// current time in this package goes through a Clock, so unit tests drive
// the shaper, the fault injector and the client on a FakeClock. This file
// is the only place in the package allowed to read the real clock
// (abrlint's determinism allowlist names it). Not every wait goes through
// it yet: the client's fetch pipeline (fetch.go) sleeps on time.NewTimer
// and bounds attempts with context.WithTimeout, both on the wall clock, so
// on a FakeClock those waits take no virtual time.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep pauses the calling goroutine for d.
	Sleep(d time.Duration)
}

// systemClock is the real wall clock.
type systemClock struct{}

func (systemClock) Now() time.Time        { return time.Now() }
func (systemClock) Sleep(d time.Duration) { time.Sleep(d) }

// RealClock returns the process wall clock.
func RealClock() Clock { return systemClock{} }

// Seconds converts float seconds to a time.Duration.
func Seconds(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// realClockOr substitutes the real clock for a nil one.
func realClockOr(c Clock) Clock {
	if c == nil {
		return systemClock{}
	}
	return c
}

// FakeClock is a manually advanced clock for tests. Sleep advances the
// clock immediately instead of blocking, so polling loops (the shaper's
// token wait) make deterministic progress with no real delay. The zero
// value starts at the zero time; use NewFakeClock to pick an epoch.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewFakeClock returns a fake clock starting at the given instant.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the clock by d without blocking.
func (c *FakeClock) Sleep(d time.Duration) {
	c.Advance(d)
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}
