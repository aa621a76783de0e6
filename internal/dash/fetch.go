package dash

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"

	"cava/internal/abr"
	"cava/internal/telemetry"
)

// ResilienceConfig tunes the client's fault-tolerant fetch pipeline.
// A nil ResilienceConfig on the ClientConfig keeps the legacy fail-fast
// behaviour (any transport error aborts the session); a non-nil config —
// DefaultResilience() for the standard policy — makes the client survive
// transient faults the way production players do: capped-backoff retries,
// truncation detection, mid-download abandonment with a downshift, and
// skip-with-stall accounting once retries are exhausted.
//
// All durations are virtual seconds (scaled by ClientConfig.TimeScale),
// so the policy is invariant under time compression.
type ResilienceConfig struct {
	// MaxRetries is the number of re-attempts per segment after the first
	// try fails (default 3).
	MaxRetries int
	// BaseBackoffSec and MaxBackoffSec bound the exponential backoff
	// between attempts (defaults 0.25 and 4 virtual seconds). The actual
	// wait is the capped exponential scaled by a seeded jitter in
	// [0.5, 1.0), so retry storms from concurrent clients decorrelate
	// while staying reproducible.
	BaseBackoffSec float64
	MaxBackoffSec  float64
	// JitterSeed seeds the backoff jitter (sessions with equal seeds
	// replay identical schedules).
	JitterSeed int64
	// DeadlineFactor caps each attempt at DeadlineFactor × the predicted
	// download time (from the bandwidth estimate), clamped to
	// [MinDeadlineSec, MaxDeadlineSec]. 0 disables per-attempt deadlines.
	DeadlineFactor float64
	// MinDeadlineSec and MaxDeadlineSec clamp the per-attempt deadline
	// (defaults 4 and 60 virtual seconds).
	MinDeadlineSec float64
	MaxDeadlineSec float64
	// AbandonEnabled turns on mid-download segment abandonment (the
	// BOLA-E/paper "proactive" rule): when the projected finish time of an
	// in-flight download would drain the playback buffer, give up and
	// downshift one track.
	AbandonEnabled bool
	// AbandonSafetySec is the buffer headroom (virtual seconds) kept when
	// projecting: abandon when projected remaining time exceeds
	// buffer − AbandonSafetySec (default 1).
	AbandonSafetySec float64
	// AbandonCheckBytes is the minimum bytes observed before the rate
	// projection is trusted (default 16 KiB).
	AbandonCheckBytes int64
	// MaxConsecutiveSkips bounds graceful degradation: after this many
	// back-to-back skipped segments the session aborts (the server is
	// gone, not glitching). Default 20.
	MaxConsecutiveSkips int
}

// DefaultResilience returns the standard resilient-fetch policy.
func DefaultResilience() *ResilienceConfig {
	return &ResilienceConfig{
		MaxRetries:          3,
		BaseBackoffSec:      0.25,
		MaxBackoffSec:       4,
		DeadlineFactor:      6,
		MinDeadlineSec:      4,
		MaxDeadlineSec:      60,
		AbandonEnabled:      true,
		AbandonSafetySec:    1,
		AbandonCheckBytes:   16 << 10,
		MaxConsecutiveSkips: 20,
	}
}

// withDefaults fills zero fields with the standard policy values.
func (rc ResilienceConfig) withDefaults() ResilienceConfig {
	d := DefaultResilience()
	if rc.MaxRetries <= 0 {
		rc.MaxRetries = d.MaxRetries
	}
	if rc.BaseBackoffSec <= 0 {
		rc.BaseBackoffSec = d.BaseBackoffSec
	}
	if rc.MaxBackoffSec <= 0 {
		rc.MaxBackoffSec = d.MaxBackoffSec
	}
	if rc.MinDeadlineSec <= 0 {
		rc.MinDeadlineSec = d.MinDeadlineSec
	}
	if rc.MaxDeadlineSec <= 0 {
		rc.MaxDeadlineSec = d.MaxDeadlineSec
	}
	if rc.AbandonSafetySec <= 0 {
		rc.AbandonSafetySec = d.AbandonSafetySec
	}
	if rc.AbandonCheckBytes <= 0 {
		rc.AbandonCheckBytes = d.AbandonCheckBytes
	}
	if rc.MaxConsecutiveSkips <= 0 {
		rc.MaxConsecutiveSkips = d.MaxConsecutiveSkips
	}
	return rc
}

// errTruncated marks a download whose body fell short of Content-Length.
var errTruncated = errors.New("dash: truncated segment body")

// statusError reports a non-200 response, carrying the server's
// Retry-After hint (wall seconds; 0 when absent) so the retry loop can
// honor server-paced backoff instead of guessing.
type statusError struct {
	msg           string
	code          int
	retryAfterSec float64
}

func (e *statusError) Error() string { return e.msg }

// retryAfterSecOf extracts the wall-seconds Retry-After hint from an
// attempt error (0 when the error carries none).
func retryAfterSecOf(err error) float64 {
	var se *statusError
	if errors.As(err, &se) {
		return se.retryAfterSec
	}
	return 0
}

// parseRetryAfterSec reads the delay-seconds form of a Retry-After header
// (the only form the testbed emits); 0 means absent or unparseable.
func parseRetryAfterSec(h http.Header) float64 {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	sec, err := strconv.Atoi(v)
	if err != nil || sec < 0 {
		return 0
	}
	return float64(sec)
}

// errAbandoned marks a download given up mid-flight for being too slow.
var errAbandoned = errors.New("dash: segment download abandoned")

// segmentFetch is the outcome of the resilient pipeline for one segment.
type segmentFetch struct {
	// Bytes is the delivered size of the successful attempt (0 if skipped).
	Bytes int64
	// Level is the track actually delivered (≤ requested after downshifts).
	Level int
	// Retries counts failed attempts that were retried.
	Retries int
	// Truncations counts attempts rejected for a short body.
	Truncations int
	// Abandonments counts mid-flight downshifts.
	Abandonments int
	// WastedBits counts bits of abandoned partial downloads (they crossed
	// the link but deliver no video).
	WastedBits float64
	// Skipped reports that every attempt failed and playback moves on.
	Skipped bool
}

// fetcher runs the resilient download pipeline for one session. It is
// created per Run and is not safe for concurrent use (sessions are
// sequential by construction).
type fetcher struct {
	c     *Client
	m     *Manifest
	rc    ResilienceConfig
	rng   *rand.Rand
	vnow  func() float64
	sleep func(float64) error // virtual-seconds sleep, ctx-aware
	scale float64

	// Decision tracing (set by Client.Run once the session id is known).
	trc     telemetry.Recorder
	session string
}

func newFetcher(c *Client, m *Manifest, rc ResilienceConfig,
	vnow func() float64, sleep func(float64) error) *fetcher {
	return &fetcher{
		c:     c,
		m:     m,
		rc:    rc.withDefaults(),
		rng:   rand.New(rand.NewSource(rc.JitterSeed)),
		vnow:  vnow,
		sleep: sleep,
		scale: c.cfg.TimeScale,
	}
}

// JitteredBackoff returns the pause before retry r (0-based): the capped
// exponential min(baseSec·2^r, maxSec) scaled by one seeded FULL-jitter
// draw from rng — uniform in [0, cap) rather than [cap/2, cap) — so
// concurrent retriers that failed together spread across the whole window
// instead of re-colliding in lockstep. The result is in the units of
// baseSec and maxSec. rng is not locked: callers that share it across
// goroutines serialize the call.
func JitteredBackoff(rng *rand.Rand, r int, baseSec, maxSec float64) float64 {
	d := baseSec
	for i := 0; i < r && d < maxSec; i++ {
		d *= 2
	}
	if d > maxSec {
		d = maxSec
	}
	return d * rng.Float64()
}

// retryWait returns the virtual-seconds wait before retry r (0-based): the
// jittered backoff under the policy's bounds. When the failed attempt
// carried a server Retry-After hint (wall seconds, from load shedding or an
// open breaker), the hint is honored as a floor: the client never returns
// before the server asked it to, with the jitter decorrelating arrivals
// beyond it.
func (f *fetcher) retryWait(r int, retryAfterWallSec float64) float64 {
	wait := JitteredBackoff(f.rng, r, f.rc.BaseBackoffSec, f.rc.MaxBackoffSec)
	if retryAfterWallSec > 0 {
		// Retry-After is wall seconds; the wait below is virtual.
		wait += retryAfterWallSec * f.scale
		f.c.mRetryAfter.Inc()
	}
	return wait
}

// deadline returns the per-attempt virtual-time budget for a segment of
// sizeBits under bandwidth estimate est, or 0 for no deadline.
func (f *fetcher) deadline(sizeBits, est float64) float64 {
	if f.rc.DeadlineFactor <= 0 {
		return 0
	}
	d := f.rc.MaxDeadlineSec
	if est > 0 {
		d = f.rc.DeadlineFactor * sizeBits / est
	}
	if d < f.rc.MinDeadlineSec {
		d = f.rc.MinDeadlineSec
	}
	if d > f.rc.MaxDeadlineSec {
		d = f.rc.MaxDeadlineSec
	}
	return d
}

// fetch downloads segment index at the requested level, absorbing faults
// per the policy. It returns an error only for fatal conditions (context
// cancellation or the consecutive-skip bound tripping elsewhere); per-
// segment failure surfaces as Skipped.
func (f *fetcher) fetch(ctx context.Context, level, index int,
	buffer, est float64, playing bool) (segmentFetch, error) {
	sf := segmentFetch{Level: level}
	for {
		if err := ctx.Err(); err != nil {
			return sf, err
		}
		attemptCtx := ctx
		cancel := context.CancelFunc(func() {})
		if d := f.deadline(f.m.Tracks[sf.Level].SegmentBits[index], est); d > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, wallDuration(d, f.scale))
		}
		n, err := f.fetchOnce(attemptCtx, sf.Level, index, buffer, est, playing)
		cancel()
		if err == nil {
			sf.Bytes = n
			return sf, nil
		}
		if ctx.Err() != nil {
			// The session, not the attempt, was cancelled.
			return sf, ctx.Err()
		}
		if errors.Is(err, context.DeadlineExceeded) {
			// The per-attempt deadline fired (the session context is live).
			f.c.mDeadlines.Inc()
		}
		switch {
		case errors.Is(err, errAbandoned):
			// Downshift and refetch immediately; the partial bytes are
			// sunk cost on the link.
			sf.Abandonments++
			sf.WastedBits += float64(n) * 8
			f.c.mAbandons.Inc()
			prev := sf.Level
			sf.Level = abr.ClampLevel(sf.Level-1, len(f.m.Tracks))
			if f.trc != nil {
				f.trc.Record(telemetry.Event{
					Session: f.session, TimeSec: f.vnow(), Kind: telemetry.KindAbandon,
					Chunk: index, Level: sf.Level, PrevLevel: prev,
					BufferSec: buffer, EstBps: est,
					SizeBits: float64(n) * 8, Detail: "projected stall, downshifting",
				})
			}
			continue
		case errors.Is(err, errTruncated):
			sf.Truncations++
			f.c.mTruncs.Inc()
		}
		if sf.Retries >= f.rc.MaxRetries {
			sf.Skipped = true
			sf.Bytes = 0
			return sf, nil
		}
		sf.Retries++
		f.c.mRetries.Inc()
		if f.trc != nil {
			f.trc.Record(telemetry.Event{
				Session: f.session, TimeSec: f.vnow(), Kind: telemetry.KindRetry,
				Chunk: index, Level: sf.Level, PrevLevel: sf.Level,
				BufferSec: buffer, EstBps: est,
				Attempt: sf.Retries, Detail: err.Error(),
			})
		}
		if err := f.sleep(f.retryWait(sf.Retries-1, retryAfterSecOf(err))); err != nil {
			return sf, err
		}
	}
}

// fetchOnce performs a single monitored download attempt.
func (f *fetcher) fetchOnce(ctx context.Context, level, index int,
	buffer, est float64, playing bool) (int64, error) {
	req, err := f.c.newRequest(ctx, SegmentURL(level, index))
	if err != nil {
		return 0, err
	}
	resp, err := f.c.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("dash: fetching segment %d/%d: %w", level, index, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, &statusError{
			msg:           fmt.Sprintf("dash: segment %d/%d status %s", level, index, resp.Status),
			code:          resp.StatusCode,
			retryAfterSec: parseRetryAfterSec(resp.Header),
		}
	}

	declared := resp.ContentLength
	startV := f.vnow()
	var total int64
	buf := make([]byte, 16<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		total += int64(n)

		// Abandonment check: would finishing this download at the observed
		// rate stall playback? Only meaningful mid-download, with a rate
		// sample, a known size, and a lower track to fall back to.
		if f.rc.AbandonEnabled && playing && level > 0 && declared > 0 &&
			total >= f.rc.AbandonCheckBytes && total < declared {
			elapsed := f.vnow() - startV
			if elapsed > 0 {
				rate := float64(total) / elapsed // bytes per virtual second
				remainSec := float64(declared-total) / rate
				if remainSec > buffer-elapsed-f.rc.AbandonSafetySec {
					return total, errAbandoned
				}
			}
		}

		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			if cerr := ctx.Err(); cerr != nil {
				// Attempt deadline or session cancellation, not a short
				// body from the server.
				return total, fmt.Errorf("dash: segment %d/%d: %w", level, index, cerr)
			}
			if declared >= 0 && total < declared {
				return total, fmt.Errorf("dash: segment %d/%d: %w after %d/%d bytes (%v)",
					level, index, errTruncated, total, declared, rerr)
			}
			return total, rerr
		}
	}
	if declared >= 0 && total != declared {
		return total, fmt.Errorf("dash: segment %d/%d: %w: read %d of %d bytes",
			level, index, errTruncated, total, declared)
	}
	return total, nil
}

// fetchManifestResilient retries the manifest fetch under the same backoff
// policy (full jitter, Retry-After honored), so a session can start
// through a transient fault without piling onto a shedding server.
func (f *fetcher) fetchManifestResilient(ctx context.Context) (*Manifest, error) {
	var lastErr error
	for attempt := 0; attempt <= f.rc.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := f.sleep(f.retryWait(attempt-1, retryAfterSecOf(lastErr))); err != nil {
				return nil, err
			}
		}
		m, err := f.c.FetchManifest(ctx)
		if err == nil {
			return m, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
	}
	return nil, fmt.Errorf("dash: manifest unavailable after %d retries: %w",
		f.rc.MaxRetries, lastErr)
}
