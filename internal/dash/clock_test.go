package dash

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cava/internal/trace"
)

func TestFakeClock(t *testing.T) {
	epoch := time.Unix(1000, 0)
	c := NewFakeClock(epoch)
	if !c.Now().Equal(epoch) {
		t.Fatalf("Now = %v, want %v", c.Now(), epoch)
	}
	c.Advance(2 * time.Second)
	c.Sleep(500 * time.Millisecond) // advances, never blocks
	if got, want := c.Now(), epoch.Add(2500*time.Millisecond); !got.Equal(want) {
		t.Fatalf("after advance+sleep: %v, want %v", got, want)
	}
	if realClockOr(nil) == nil || realClockOr(c) != Clock(c) {
		t.Fatal("realClockOr substitution wrong")
	}
}

// TestShaperFakeClockRate drives the shaper on a fake clock: admitting n
// bytes over a constant-bandwidth trace must consume exactly the virtual
// time the trace prescribes, with zero real sleeping.
func TestShaperFakeClockRate(t *testing.T) {
	// 8 Mbps -> 1e6 bytes of link capacity per virtual second.
	tr := trace.Constant("c", 8e6, 60, 1)
	for _, scale := range []float64{1, 10} {
		clk := NewFakeClock(time.Unix(0, 0))
		s := NewShaper(tr, scale).WithClock(clk)
		wallStart := clk.Now()
		s.Wait(100_000) // 0.1 virtual seconds of capacity

		if v := s.VirtualNow(); math.Abs(v-0.1) > 0.005 {
			t.Errorf("scale %.0f: virtual completion %.4fs, want ~0.1s", scale, v)
		}
		// Wall time compresses by the scale; virtual dynamics do not.
		wall := clk.Now().Sub(wallStart).Seconds()
		if want := 0.1 / scale; math.Abs(wall-want) > 0.005 {
			t.Errorf("scale %.0f: wall time %.4fs, want ~%.4fs", scale, wall, want)
		}
	}
}

// TestShaperFakeClockDeterministic pins byte-identical virtual timing across
// runs: two shapers over the same trace and clock epoch agree exactly.
func TestShaperFakeClockDeterministic(t *testing.T) {
	tr := trace.GenLTE(3)
	run := func() []float64 {
		clk := NewFakeClock(time.Unix(42, 0))
		s := NewShaper(tr, 5).WithClock(clk)
		var marks []float64
		for i := 0; i < 4; i++ {
			s.Wait(250_000)
			marks = append(marks, s.VirtualNow())
		}
		return marks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wait %d: virtual times differ (%v vs %v)", i, a[i], b[i])
		}
	}
}

// TestFaultInjectorLatencyFakeClock verifies the injected latency spike is
// taken from the injector's clock (and scaled), not the wall clock: on a
// fake clock the handler returns immediately having advanced virtual time.
func TestFaultInjectorLatencyFakeClock(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	cfg := faultConfig{Seed: 1, LatencyProb: 1, LatencySec: 3, TimeScale: 10}
	clk := NewFakeClock(time.Unix(0, 0))
	fi := newFaultInjector(cfg, inner).WithClock(clk)

	wallStart := time.Now()
	rec := httptest.NewRecorder()
	fi.ServeHTTP(rec, httptest.NewRequest("GET", "/seg/0/0", nil))

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	// 3 virtual seconds at scale 10 = 0.3 s advanced on the fake clock.
	if got := clk.Now().Sub(time.Unix(0, 0)); got != 300*time.Millisecond {
		t.Errorf("fake clock advanced %v, want 300ms", got)
	}
	if real := time.Since(wallStart); real > time.Second {
		t.Errorf("handler blocked %v of real time on a fake clock", real)
	}
}

// TestFaultWriterStallFakeClock pins the mid-body stall to the injected
// clock as well.
func TestFaultWriterStallFakeClock(t *testing.T) {
	body := make([]byte, 1000)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1000")
		w.Write(body[:500])
		w.Write(body[500:])
	})
	cfg := faultConfig{Seed: 7, StallProb: 1, StallSec: 2}
	clk := NewFakeClock(time.Unix(0, 0))
	fi := newFaultInjector(cfg, inner).WithClock(clk)

	rec := httptest.NewRecorder()
	fi.ServeHTTP(rec, httptest.NewRequest("GET", "/seg/0/1", nil))
	if rec.Body.Len() != 1000 {
		t.Fatalf("body %d bytes, want 1000 (stall is not truncation)", rec.Body.Len())
	}
	if got := clk.Now().Sub(time.Unix(0, 0)); got != 2*time.Second {
		t.Errorf("fake clock advanced %v, want 2s", got)
	}
}
