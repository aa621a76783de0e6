package edge

import "testing"

// TestFailoverBackoffSchedule pins the first failover waits of seeded edges
// bit for bit: the capped exponential, the full-jitter draw and the RNG
// draw order must not move under refactoring.
func TestFailoverBackoffSchedule(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want []float64
	}{
		{"defaults seed 7", Config{JitterSeed: 7}, []float64{0.009188921592527636, 0.004630143480975041, 0.00965550268261191,
			0.0729249739497454, 0.06982355437875076, 0.014615594819178637}},
		{"custom base/cap seed 42", Config{JitterSeed: 42, FailoverBackoffSec: 0.05, FailoverBackoffMaxSec: 0.3},
			[]float64{0.01865141805233163, 0.006600049679351791, 0.12081877031172841,
				0.06264561091639774, 0.01314553757981229, 0.11495798997671569}},
	}
	for _, tc := range cases {
		tc.cfg.Origins = []string{"http://127.0.0.1:1"}
		e, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r, want := range tc.want {
			if got := e.failoverBackoff(r); got != want {
				t.Errorf("%s: failoverBackoff(%d) = %v, want %v", tc.name, r, got, want)
			}
		}
		e.Close()
	}
}
