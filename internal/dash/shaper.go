package dash

import (
	"net"
	"sync"
	"time"

	"cava/internal/telemetry"
	"cava/internal/trace"
)

// Shaper is a trace-driven token bucket: it limits bytes to the bandwidth
// the trace prescribes at the current (virtual) time, emulating `tc netem`
// on the testbed link (§6.8).
//
// TimeScale compresses time: with TimeScale = S the shaper advances through
// the trace S times faster and permits S times the byte rate, so a session
// that would take 600 s of trace time completes in 600/S wall seconds with
// identical dynamics. Virtual-time quantities (what the client reports) are
// wall time × S.
type Shaper struct {
	tr    *trace.Trace
	scale float64
	clock Clock

	mu         sync.Mutex
	start      time.Time
	lastRefill time.Time
	tokens     float64 // bytes available

	// Telemetry handles (nil-safe; SetMetrics wires them).
	queueBytes *telemetry.Gauge   // bytes currently waiting for tokens
	waiters    *telemetry.Gauge   // writes currently blocked in Wait
	shapedTot  *telemetry.Counter // bytes admitted through the link
}

// NewShaper creates a shaper over the trace with the given time scale
// (coerced to 1 when non-positive). The clock starts at the first Wait.
func NewShaper(tr *trace.Trace, timeScale float64) *Shaper {
	if timeScale <= 0 {
		timeScale = 1
	}
	return &Shaper{tr: tr, scale: timeScale, clock: RealClock()}
}

// WithClock substitutes the shaper's clock (tests use a FakeClock). Call
// before the first Wait.
func (s *Shaper) WithClock(c Clock) *Shaper {
	s.clock = realClockOr(c)
	return s
}

// SetMetrics registers the shaper's queue-depth gauges and throughput
// counter on reg (nil disables). Call before serving.
func (s *Shaper) SetMetrics(reg *telemetry.Registry) {
	s.queueBytes = reg.Gauge("dash_shaper_queue_bytes", "bytes waiting for link tokens")
	s.waiters = reg.Gauge("dash_shaper_waiters", "writes currently blocked on the shaper")
	s.shapedTot = reg.Counter("dash_shaper_bytes_total", "bytes admitted through the shaped link")
}

// Wait blocks until n bytes may pass the link.
func (s *Shaper) Wait(n int) {
	remaining := float64(n)
	s.waiters.Add(1)
	s.queueBytes.Add(remaining)
	defer s.waiters.Add(-1)
	for remaining > 0 {
		s.mu.Lock()
		now := s.clock.Now()
		if s.start.IsZero() {
			s.start = now
			s.lastRefill = now
		}
		elapsed := now.Sub(s.lastRefill).Seconds()
		s.lastRefill = now
		vt := now.Sub(s.start).Seconds() * s.scale
		rateBytes := s.tr.BandwidthAt(vt) * s.scale / 8 // wall bytes/sec
		s.tokens += elapsed * rateBytes
		// Bound the bucket to ~50 ms of line rate plus a small floor so
		// bursts stay trace-faithful at high time scales.
		if burst := rateBytes*0.05 + 16384; s.tokens > burst {
			s.tokens = burst
		}
		take := remaining
		if take > s.tokens {
			take = s.tokens
		}
		s.tokens -= take
		remaining -= take
		s.mu.Unlock()
		if take > 0 {
			s.queueBytes.Add(-take)
			s.shapedTot.Add(uint64(take))
		}
		if remaining > 0 {
			s.clock.Sleep(time.Millisecond)
		}
	}
}

// shapedConn rate-limits writes through the shaper. Reads pass through
// (requests are tiny; the paper's bottleneck is the download direction).
type shapedConn struct {
	net.Conn
	shaper *Shaper
}

// Write implements net.Conn with shaping, pushing data in slices so the
// token bucket granularity stays fine.
func (c *shapedConn) Write(b []byte) (int, error) {
	written := 0
	for written < len(b) {
		n := len(b) - written
		if n > 32<<10 {
			n = 32 << 10
		}
		c.shaper.Wait(n)
		m, err := c.Conn.Write(b[written : written+n])
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ShapedListener wraps a listener so every accepted connection's writes are
// shaped by the same Shaper (one bottleneck link shared by all
// connections, like a last-mile access link).
type ShapedListener struct {
	net.Listener
	shaper *Shaper
}

// NewShapedListener wraps ln with the shaper.
func NewShapedListener(ln net.Listener, shaper *Shaper) *ShapedListener {
	return &ShapedListener{Listener: ln, shaper: shaper}
}

// Accept implements net.Listener.
func (l *ShapedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &shapedConn{Conn: c, shaper: l.shaper}, nil
}
