package dash

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"cava/internal/abr"
	"cava/internal/telemetry"
)

// fetchPolicy is the fault tolerance of the client's one fetch pipeline;
// failFast and resilient are its two values. Durations are virtual
// seconds (scaled by ClientConfig.TimeScale), so a policy is invariant
// under time compression. A zero field turns its feature off.
type fetchPolicy struct {
	// maxRetries is the number of re-attempts per request after the first
	// try fails.
	maxRetries int
	// baseBackoffSec and maxBackoffSec bound the exponential backoff
	// between attempts; JitteredBackoff draws the wait with full jitter.
	baseBackoffSec, maxBackoffSec float64
	// deadlineFactor caps each segment attempt at deadlineFactor × the
	// predicted download time (from the bandwidth estimate), clamped to
	// [minDeadlineSec, maxDeadlineSec].
	deadlineFactor                 float64
	minDeadlineSec, maxDeadlineSec float64
	// abandon enables mid-download abandonment (the BOLA-E rule): once
	// abandonCheckBytes have arrived, an attempt whose projected finish
	// would leave less than abandonSafetySec of buffer is given up and the
	// segment refetched one track lower.
	abandon           bool
	abandonSafetySec  float64
	abandonCheckBytes int64
	// maxConsecutiveSkips bounds graceful degradation: a segment whose
	// attempts all fail is skipped (accounted as a stall), and one skip
	// in a row more than this aborts the session.
	maxConsecutiveSkips int
}

// MaxRetries is the resilient policy's re-attempts per request after the
// first try fails.
const MaxRetries = 3

// failFast, the zero policy, makes one attempt per request with no
// deadline and no abandonment: the first segment that fails aborts the
// session.
var failFast = fetchPolicy{}

// resilient survives transient faults the way production players do:
// capped-backoff retries, per-attempt deadlines, abandonment with a
// downshift, and skip-with-stall accounting once retries are exhausted.
var resilient = fetchPolicy{
	maxRetries:          MaxRetries,
	baseBackoffSec:      0.25,
	maxBackoffSec:       4,
	deadlineFactor:      6,
	minDeadlineSec:      4,
	maxDeadlineSec:      60,
	abandon:             true,
	abandonSafetySec:    1,
	abandonCheckBytes:   16 << 10,
	maxConsecutiveSkips: 20,
}

// errTruncated marks a download whose body fell short of Content-Length.
var errTruncated = errors.New("dash: truncated segment body")

// statusError reports a non-200 response, carrying the server's
// Retry-After hint (wall seconds; 0 when absent) so the retry loop can
// honor server-paced backoff instead of guessing.
type statusError struct {
	msg           string
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

// segmentFetch is the outcome of the fetch pipeline for one segment.
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

// fetcher runs the fetch pipeline for one session under the client's
// policy. It is created per Run and is not safe for concurrent use
// (sessions are sequential by construction).
type fetcher struct {
	c     *Client
	p     fetchPolicy
	m     *Manifest // set once fetched
	rng   *rand.Rand
	clk   Clock
	start time.Time // virtual time zero
	scale float64
	skips int // consecutive skipped segments

	// Decision tracing (session is set once the step core knows its id).
	trc     telemetry.Recorder
	session string
}

func newFetcher(c *Client) *fetcher {
	clk := realClockOr(c.cfg.Clock)
	return &fetcher{
		c:     c,
		p:     c.policy,
		rng:   rand.New(rand.NewSource(c.cfg.JitterSeed)),
		clk:   clk,
		start: clk.Now(),
		scale: c.cfg.TimeScale,
		trc:   c.cfg.Recorder,
	}
}

// vnow returns the virtual seconds since the session started.
func (f *fetcher) vnow() float64 { return f.clk.Now().Sub(f.start).Seconds() * f.scale }

// sleep idles for d virtual seconds, or until ctx is done.
func (f *fetcher) sleep(ctx context.Context, d float64) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(Seconds(d / f.scale))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
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
	wait := JitteredBackoff(f.rng, r, f.p.baseBackoffSec, f.p.maxBackoffSec)
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
	if f.p.deadlineFactor <= 0 {
		return 0
	}
	d := f.p.maxDeadlineSec
	if est > 0 {
		d = f.p.deadlineFactor * sizeBits / est
	}
	if d < f.p.minDeadlineSec {
		d = f.p.minDeadlineSec
	}
	if d > f.p.maxDeadlineSec {
		d = f.p.maxDeadlineSec
	}
	return d
}

// fetch downloads segment index at the requested level, absorbing faults
// per the policy: a segment whose attempts all fail surfaces as Skipped.
// It returns an error only when the session must end: its context is
// done, or a skip exceeds the policy's consecutive-skip bound, in which
// case the error wraps the last attempt's.
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
			attemptCtx, cancel = context.WithTimeout(ctx, Seconds(d/f.scale))
		}
		n, err := f.fetchOnce(attemptCtx, sf.Level, index, buffer, playing)
		cancel()
		if err == nil {
			sf.Bytes = n
			f.skips = 0
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
		if sf.Retries >= f.p.maxRetries {
			if f.skips++; f.skips > f.p.maxConsecutiveSkips {
				return sf, fmt.Errorf("dash: aborting on skipped segment %d (%d in a row): %w",
					index, f.skips, err)
			}
			sf.Skipped = true
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
		if err := f.sleep(ctx, f.retryWait(sf.Retries-1, retryAfterSecOf(err))); err != nil {
			return sf, err
		}
	}
}

// get performs one GET of path, stamped with the client's session
// identity (when known) so server-side admission control and rate
// limiting key on sessions rather than connections; what names the
// resource in errors. A non-200 answer is a *statusError carrying any
// Retry-After hint, so the retry loop can honor a shed.
func (f *fetcher) get(ctx context.Context, path, what string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.c.cfg.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	if f.c.cfg.SessionID != "" {
		req.Header.Set(SessionIDHeader, f.c.cfg.SessionID)
	}
	resp, err := f.c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dash: fetching %s: %w", what, err)
	}
	if resp.StatusCode != http.StatusOK {
		_ = resp.Body.Close() // the body is discarded unread
		return nil, &statusError{
			msg:           fmt.Sprintf("dash: %s status %s", what, resp.Status),
			retryAfterSec: parseRetryAfterSec(resp.Header),
		}
	}
	return resp, nil
}

// fetchOnce performs a single monitored download attempt.
func (f *fetcher) fetchOnce(ctx context.Context, level, index int,
	buffer float64, playing bool) (int64, error) {
	resp, err := f.get(ctx, SegmentURL(level, index), fmt.Sprintf("segment %d/%d", level, index))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()

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
		if f.p.abandon && playing && level > 0 && declared > 0 &&
			total >= f.p.abandonCheckBytes && total < declared {
			elapsed := f.vnow() - startV
			if elapsed > 0 {
				rate := float64(total) / elapsed // bytes per virtual second
				remainSec := float64(declared-total) / rate
				if remainSec > buffer-elapsed-f.p.abandonSafetySec {
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

// fetchManifest fetches and validates the native JSON manifest, retrying
// under the policy's backoff (full jitter, Retry-After honored), so a
// session can start through a transient fault without piling onto a
// shedding server.
func (f *fetcher) fetchManifest(ctx context.Context) (*Manifest, error) {
	var lastErr error
	for attempt := 0; attempt <= f.p.maxRetries; attempt++ {
		if attempt > 0 {
			if err := f.sleep(ctx, f.retryWait(attempt-1, retryAfterSecOf(lastErr))); err != nil {
				return nil, err
			}
		}
		m, err := f.manifestOnce(ctx)
		if err == nil {
			return m, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
	}
	return nil, fmt.Errorf("dash: manifest unavailable after %d retries: %w",
		f.p.maxRetries, lastErr)
}

// manifestOnce performs a single manifest attempt.
func (f *fetcher) manifestOnce(ctx context.Context) (*Manifest, error) {
	resp, err := f.get(ctx, "/manifest.json", "manifest")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return DecodeManifest(resp.Body)
}
