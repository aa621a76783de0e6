package edge

import (
	"fmt"
	"testing"
	"time"

	"cava/internal/dash"
)

// breakerTestEdge builds a 2-origin edge whose per-origin breakers trip
// after 2 consecutive failures and cool down for 2 virtual seconds.
func breakerTestEdge(t *testing.T) (*Edge, *dash.FakeClock, *testOrigin, *testOrigin) {
	t.Helper()
	o0, o1 := newTestOrigin(t, 0), newTestOrigin(t, 1)
	e, clock, _ := newTestEdge(t, Config{
		VideoID: "vid",
		Breaker: dash.BreakerConfig{ConsecutiveFailures: 2, OpenSec: 2},
	}, o0, o1)
	order := e.OriginOrder("")
	origins := []*testOrigin{o0, o1}
	return e, clock, origins[order[0]], origins[order[1]]
}

// TestOpenBreakerSkipsOriginImmediately pins the dead-origin fast path: once
// an origin's breaker opens, subsequent requests go straight to the next
// replica without burning an attempt (or its timeout) on the dead one.
func TestOpenBreakerSkipsOriginImmediately(t *testing.T) {
	e, _, primary, backup := breakerTestEdge(t)
	primary.failing.Store(true)

	// Two failed attempts trip the primary's breaker (distinct uncached
	// paths so each request exercises failover, not the segment cache).
	for i := 0; i < 2; i++ {
		if rec := get(e, fmt.Sprintf("/blob/%d", i), "s1"); rec.Code != 200 {
			t.Fatalf("request %d = %d, want 200 via backup", i, rec.Code)
		}
	}
	if n := primary.requests.Load(); n != 2 {
		t.Fatalf("primary saw %d attempts while closed, want 2", n)
	}
	order := e.OriginOrder("")
	if st := e.breakers[order[0]].State(); st != dash.BreakerOpen {
		t.Fatalf("primary breaker state = %v, want open", st)
	}

	// With the breaker open the primary is skipped: its request count must
	// not move, and the edge records breaker skips instead of failovers.
	before := e.Stats()
	for i := 2; i < 5; i++ {
		if rec := get(e, fmt.Sprintf("/blob/%d", i), "s1"); rec.Code != 200 {
			t.Fatalf("request %d = %d, want 200 via backup", i, rec.Code)
		}
	}
	if n := primary.requests.Load(); n != 2 {
		t.Errorf("open breaker leaked %d attempts to the dead primary", n-2)
	}
	after := e.Stats()
	if got := after.BreakerSkips - before.BreakerSkips; got != 3 {
		t.Errorf("BreakerSkips grew by %d, want 3", got)
	}
	if after.Failovers != before.Failovers {
		t.Errorf("Failovers grew while the breaker was open (%d -> %d)",
			before.Failovers, after.Failovers)
	}
	if n := backup.requests.Load(); n != 5 {
		t.Errorf("backup saw %d requests, want all 5", n)
	}
}

// TestHalfOpenProbesCappedAtOne pins recovery probing on the raw breaker:
// after the cool-down exactly one in-flight probe is admitted; a second
// concurrent Allow is refused until the probe reports back, and a probe
// success closes the circuit.
func TestHalfOpenProbesCappedAtOne(t *testing.T) {
	clock := dash.NewFakeClock(time.Unix(1000, 0))
	b := dash.NewOriginBreaker(dash.BreakerConfig{ConsecutiveFailures: 2, OpenSec: 2}).WithClock(clock)

	// Trip it: two consecutive failures.
	for i := 0; i < 2; i++ {
		pass, probe, _ := b.Allow()
		if !pass || probe {
			t.Fatalf("closed Allow() = %v, %v", pass, probe)
		}
		b.Observe(probe, true)
	}
	if pass, _, retrySec := b.Allow(); pass || retrySec <= 0 {
		t.Fatalf("open Allow() = pass %v, retryAfter %v; want refusal with cool-down", pass, retrySec)
	}

	// Cool-down elapses: exactly one probe may be in flight.
	clock.Advance(2 * time.Second)
	pass, probe, _ := b.Allow()
	if !pass || !probe {
		t.Fatalf("half-open Allow() = %v, %v, want one probe", pass, probe)
	}
	if pass2, _, _ := b.Allow(); pass2 {
		t.Fatal("second concurrent Allow() passed; half-open must cap probes at 1")
	}

	// The probe succeeds: circuit closes, traffic flows freely again.
	b.Observe(true, false)
	if st := b.State(); st != dash.BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", st)
	}
	if pass, probe, _ := b.Allow(); !pass || probe {
		t.Fatalf("closed Allow() after recovery = %v, %v", pass, probe)
	}
	b.Observe(false, false)
}

// TestHalfOpenProbeFailureReopens completes the state machine: a failed
// probe re-opens the circuit for another full cool-down.
func TestHalfOpenProbeFailureReopens(t *testing.T) {
	e, clock, primary, _ := breakerTestEdge(t)
	primary.failing.Store(true)
	for i := 0; i < 2; i++ {
		get(e, fmt.Sprintf("/blob/%d", i), "s1")
	}
	order := e.OriginOrder("")
	pb := e.breakers[order[0]]
	if st := pb.State(); st != dash.BreakerOpen {
		t.Fatalf("primary breaker = %v, want open", st)
	}

	// Cool-down elapses; the next request is the probe and it fails against
	// the still-dead primary, re-opening the circuit.
	clock.Advance(2 * time.Second)
	if rec := get(e, "/blob/probe", "s1"); rec.Code != 200 {
		t.Fatalf("probe-carrying request = %d, want 200 via backup", rec.Code)
	}
	if n := primary.requests.Load(); n != 3 {
		t.Fatalf("primary saw %d attempts, want 3 (2 trips + 1 probe)", n)
	}
	if st := pb.State(); st != dash.BreakerOpen {
		t.Fatalf("breaker after failed probe = %v, want open again", st)
	}

	// Primary recovers; after another cool-down the probe succeeds and the
	// primary serves again.
	primary.failing.Store(false)
	clock.Advance(2 * time.Second)
	if rec := get(e, "/blob/recovered", "s1"); rec.Code != 200 {
		t.Fatalf("recovery request = %d", rec.Code)
	}
	if st := pb.State(); st != dash.BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", st)
	}
	if n := primary.requests.Load(); n != 4 {
		t.Errorf("primary saw %d attempts, want 4", n)
	}
}
