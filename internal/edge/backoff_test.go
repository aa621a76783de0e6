package edge

import "testing"

// TestFailoverBackoffSchedule pins the first failover waits of a seeded
// edge bit for bit: the capped exponential, the full-jitter draw and the
// RNG draw order must not move under refactoring.
func TestFailoverBackoffSchedule(t *testing.T) {
	e, err := New(Config{Origins: []string{"http://127.0.0.1:1"}, JitterSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	want := []float64{0.009188921592527636, 0.004630143480975041, 0.00965550268261191,
		0.0729249739497454, 0.06982355437875076, 0.014615594819178637}
	for r, w := range want {
		if got := e.failoverBackoff(r); got != w {
			t.Errorf("failoverBackoff(%d) = %v, want %v", r, got, w)
		}
	}
}
