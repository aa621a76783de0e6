package dash

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"cava/internal/abr"
	"cava/internal/player"
	"cava/internal/telemetry"
)

// ClientConfig configures a streaming client session.
type ClientConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient performs the requests; nil uses a client with sane
	// connect/header/overall timeouts (http.DefaultClient never times out,
	// so a hung server would block Run until the caller's context fires).
	HTTPClient *http.Client
	// NewAlgorithm builds the adaptation logic from the client-side video
	// view reconstructed from the manifest.
	NewAlgorithm abr.Factory
	// TimeScale must match the link shaper's scale so buffer dynamics run
	// in the same virtual time as the network (1 for real time).
	TimeScale float64
	// StartupSec mirrors the simulator configuration (virtual seconds;
	// zero selects player.DefaultStartupSec). The buffer cap is
	// player.DefaultMaxBufferSec and the bandwidth predictor the harmonic
	// mean of the past 5 segments, as in the simulator.
	StartupSec float64
	// MaxChunks truncates the session after this many segments (0 = all),
	// keeping integration tests fast.
	MaxChunks int
	// Resilience, when non-nil, enables the fault-tolerant fetch pipeline
	// (retries, truncation detection, abandonment, skip accounting); see
	// ResilienceConfig. Nil keeps the legacy fail-fast behaviour.
	Resilience *ResilienceConfig
	// Recorder receives the session's decision-trace events under the same
	// schema as player.Simulate (nil disables tracing).
	Recorder telemetry.Recorder
	// SessionID overrides the trace event session identifier; empty uses
	// video|live|scheme. When set it is also stamped on every request as
	// the X-Session-Id header, which server-side admission control and
	// per-session rate limiting key on (see Protection).
	SessionID string
	// Metrics registers the client's fetch-pipeline counters (retries,
	// abandonments, deadline hits, download latency) on the given registry;
	// nil disables at zero cost.
	Metrics *telemetry.Registry
	// Clock supplies the session clock; nil uses the real wall clock.
	// Tests substitute a FakeClock for reproducible virtual time.
	Clock Clock
}

// newDefaultHTTPClient builds the default transport: bounded connect and
// response-header waits plus a generous overall backstop, so a dead or
// hung server surfaces as an error instead of a silent hang.
func newDefaultHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 5 * time.Minute,
		Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
			ResponseHeaderTimeout: 30 * time.Second,
			TLSHandshakeTimeout:   10 * time.Second,
			MaxIdleConnsPerHost:   4,
		},
	}
}

// Client streams a video over HTTP under an ABR algorithm, reporting the
// same Result structure as the simulator so the metrics pipeline applies
// unchanged.
type Client struct {
	cfg ClientConfig

	// Fetch-pipeline telemetry handles (nil-safe, resolved once here so
	// the download loop never touches the registry map).
	mRetries    *telemetry.Counter
	mTruncs     *telemetry.Counter
	mAbandons   *telemetry.Counter
	mSkips      *telemetry.Counter
	mDeadlines  *telemetry.Counter
	mRetryAfter *telemetry.Counter
	mBytes      *telemetry.Counter
	mFetchSec   *telemetry.Histogram
}

// NewClient validates the config and returns a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("dash: client needs a BaseURL")
	}
	if cfg.NewAlgorithm == nil {
		return nil, fmt.Errorf("dash: client needs an algorithm factory")
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = newDefaultHTTPClient()
	}
	reg := cfg.Metrics
	return &Client{
		cfg:         cfg,
		mRetries:    reg.Counter("dash_client_retries_total", "failed segment attempts that were retried"),
		mTruncs:     reg.Counter("dash_client_truncations_total", "segment attempts rejected for a short body"),
		mAbandons:   reg.Counter("dash_client_abandonments_total", "mid-flight downloads abandoned for a lower track"),
		mSkips:      reg.Counter("dash_client_skips_total", "segments skipped after exhausting retries"),
		mDeadlines:  reg.Counter("dash_client_deadline_hits_total", "segment attempts cancelled by the per-attempt deadline"),
		mRetryAfter: reg.Counter("dash_client_retry_after_waits_total", "retry delays floored by a server Retry-After hint"),
		mBytes:      reg.Counter("dash_client_bytes_total", "segment payload bytes delivered"),
		mFetchSec:   reg.Histogram("dash_client_fetch_virtual_seconds", "per-segment fetch time in virtual seconds", nil),
	}, nil
}

// newRequest builds a GET for path with the client's session identity
// stamped (when known), so server-side admission control and rate limiting
// key on sessions rather than connections.
func (c *Client) newRequest(ctx context.Context, path string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	if c.cfg.SessionID != "" {
		req.Header.Set(SessionIDHeader, c.cfg.SessionID)
	}
	return req, nil
}

// Close releases the client's idle transport connections. Call when the
// client will issue no further requests; tests rely on it to return the
// process to its goroutine baseline.
func (c *Client) Close() {
	c.cfg.HTTPClient.CloseIdleConnections()
}

// FetchManifest retrieves and validates the native JSON manifest. A
// non-200 answer is a *statusError carrying any Retry-After hint, so the
// resilient retry loop can honor a shed.
func (c *Client) FetchManifest(ctx context.Context) (*Manifest, error) {
	req, err := c.newRequest(ctx, "/manifest.json")
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{
			msg:           fmt.Sprintf("dash: fetching manifest: status %s", resp.Status),
			code:          resp.StatusCode,
			retryAfterSec: parseRetryAfterSec(resp.Header),
		}
	}
	return DecodeManifest(resp.Body)
}

// Run streams the video and returns the session result in virtual time.
// With cfg.Resilience set, transient faults (5xx, resets, truncation, slow
// segments) are absorbed per the policy and surface as resilience counters
// on the Result instead of aborting the session.
//
// The buffer/startup/telemetry state machine is the shared player.StepState
// core — the same engine behind player.Simulate and the discrete-event
// fleet simulator — driven here by measured virtual time: the client
// supplies real fetch outcomes and clock readings, the core does every
// piece of session accounting.
func (c *Client) Run(ctx context.Context) (*player.Result, error) {
	scale := c.cfg.TimeScale
	clk := realClockOr(c.cfg.Clock)
	start := clk.Now()
	vnow := func() float64 { return clk.Now().Sub(start).Seconds() * scale }
	// sleepVirtual idles for d virtual seconds.
	sleepVirtual := func(d float64) error {
		if d <= 0 {
			return nil
		}
		t := time.NewTimer(time.Duration(d / scale * float64(time.Second)))
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}

	var fx *fetcher
	if c.cfg.Resilience != nil {
		fx = newFetcher(c, nil, *c.cfg.Resilience, vnow, sleepVirtual)
	}

	var m *Manifest
	var err error
	if fx != nil {
		m, err = fx.fetchManifestResilient(ctx)
	} else {
		m, err = c.FetchManifest(ctx)
	}
	if err != nil {
		return nil, err
	}
	if fx != nil {
		fx.m = m
	}
	view := m.ToVideo()
	algo := c.cfg.NewAlgorithm(view)

	var s player.StepState
	s.Init(view, m.VideoID, "live", algo, player.Config{
		StartupSec: c.cfg.StartupSec,
		Recorder:   c.cfg.Recorder,
		SessionID:  c.cfg.SessionID,
	}, true)
	s.LimitChunks(c.cfg.MaxChunks)

	trc := c.cfg.Recorder
	if fx != nil {
		fx.trc = trc
		fx.session = s.Session()
	}

	res := s.Res()
	consecSkips := 0

	for !s.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := s.Chunk
		s.SetNow(vnow())
		st := s.BeginChunk()
		if d := s.WantDelay(st); d > 0 {
			s.NoteWait(d)
			if err := sleepVirtual(d); err != nil {
				return nil, err
			}
			s.AddStall(s.ElapseTo(vnow()))
		}
		if wait := s.FullBufferWait(); wait > 0 {
			s.NoteWait(wait)
			if err := sleepVirtual(wait); err != nil {
				return nil, err
			}
			s.ElapseTo(vnow()) // cannot stall: buffer is at its maximum
		}

		s.SetNow(vnow())
		s.Refresh(&st)
		level := s.Decide(st)

		v0 := vnow()
		var sf segmentFetch
		if fx != nil {
			sf, err = fx.fetch(ctx, level, i, s.BufferSec, st.Est, s.Playing)
			if err != nil {
				return nil, err
			}
		} else {
			bytes, err := c.fetchSegment(ctx, level, i)
			if err != nil {
				return nil, err
			}
			sf = segmentFetch{Bytes: bytes, Level: level}
		}
		v1 := vnow()
		vdur := v1 - v0
		bits := float64(sf.Bytes) * 8

		s.Rec.Level = sf.Level
		s.Rec.SizeBits = bits
		s.Rec.StartTime = v0
		s.Rec.DownloadSec = vdur
		s.Rec.Retries = sf.Retries
		s.Rec.Truncations = sf.Truncations
		s.Rec.Abandonments = sf.Abandonments
		s.Rec.WastedBits = sf.WastedBits
		s.Rec.Skipped = sf.Skipped
		if vdur > 0 && !sf.Skipped {
			s.Rec.ThroughputBps = bits / vdur
		}
		s.AddStall(s.ElapseTo(v1))
		res.TotalRetries += sf.Retries
		res.TotalTruncations += sf.Truncations
		res.TotalAbandonments += sf.Abandonments
		res.WastedBits += sf.WastedBits

		c.mBytes.Add(uint64(sf.Bytes))
		if !sf.Skipped {
			c.mFetchSec.Observe(vdur)
		}
		if sf.Skipped {
			// Graceful degradation: the segment is gone; playback jumps
			// the gap, which the viewer experiences as a stall of one
			// segment duration.
			consecSkips++
			if fx != nil && consecSkips > fx.rc.MaxConsecutiveSkips {
				return nil, fmt.Errorf("dash: aborting after %d consecutive skipped segments (segment %d)",
					consecSkips, i)
			}
			s.SkipChunk()
			c.mSkips.Inc()
			if trc != nil {
				trc.Record(telemetry.Event{
					Session: s.Session(), TimeSec: v1, Kind: telemetry.KindSkip,
					Chunk: i, Level: sf.Level, PrevLevel: s.PrevLevel,
					BufferSec: s.BufferSec, RebufferSec: s.Rec.RebufferSec,
					Attempt: sf.Retries, Detail: "retries exhausted",
				})
			}
			// The gap is real time: playback freezes for one segment
			// duration when the playhead reaches the hole. Let it elapse
			// without draining the buffer (playback is frozen, and the
			// stall is already accounted above).
			if err := sleepVirtual(m.ChunkDurSec); err != nil {
				return nil, err
			}
			s.SetNow(vnow())
		} else {
			consecSkips = 0
			s.FinishDownload(st.Est)
		}

		s.MaybeStartup(vnow())
		s.NextChunk()
	}
	s.SetNow(vnow())
	return s.Take(), nil
}

// fetchSegment downloads one segment fully, returning its byte count. The
// bytes read are verified against the declared Content-Length: a truncated
// body must error, not masquerade as a smaller, faster download (which
// would corrupt the throughput estimate feeding the ABR loop).
func (c *Client) fetchSegment(ctx context.Context, track, index int) (int64, error) {
	req, err := c.newRequest(ctx, SegmentURL(track, index))
	if err != nil {
		return 0, err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("dash: fetching segment %d/%d: %w", track, index, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("dash: segment %d/%d status %s", track, index, resp.Status)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if declared := resp.ContentLength; declared >= 0 && n != declared {
		return n, fmt.Errorf("dash: segment %d/%d: %w: read %d of %d bytes",
			track, index, errTruncated, n, declared)
	}
	return n, err
}
