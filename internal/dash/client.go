package dash

import (
	"context"
	"fmt"
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
	// Resilient selects the fetch pipeline's resilient policy: it survives
	// transient faults with capped-backoff retries, per-attempt deadlines,
	// mid-download abandonment with a downshift, and skip-with-stall
	// accounting once retries are exhausted. False selects fail-fast: one
	// attempt per request, and the first failed request aborts the session
	// with an error wrapping that attempt's.
	Resilient bool
	// JitterSeed seeds the retry backoff jitter (sessions with equal seeds
	// replay identical schedules).
	JitterSeed int64
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
	cfg    ClientConfig
	policy fetchPolicy

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
	policy := failFast
	if cfg.Resilient {
		policy = resilient
	}
	reg := cfg.Metrics
	return &Client{
		cfg:         cfg,
		policy:      policy,
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

// Close releases the client's idle transport connections. Call when the
// client will issue no further requests; tests rely on it to return the
// process to its goroutine baseline.
func (c *Client) Close() {
	c.cfg.HTTPClient.CloseIdleConnections()
}

// Run streams the video and returns the session result in virtual time.
// Under the resilient policy, transient faults (5xx, resets, truncation,
// slow segments) are absorbed and surface as resilience counters on the
// Result instead of aborting the session.
//
// The buffer/startup/telemetry state machine is the shared player.StepState
// core — the same engine behind player.Simulate and the discrete-event
// fleet simulator — driven here by measured virtual time: the client
// supplies real fetch outcomes and clock readings, the core does every
// piece of session accounting.
func (c *Client) Run(ctx context.Context) (*player.Result, error) {
	f := newFetcher(c)
	m, err := f.fetchManifest(ctx)
	if err != nil {
		return nil, err
	}
	f.m = m
	view := m.ToVideo()
	algo := c.cfg.NewAlgorithm(view)

	var s player.StepState
	s.Init(view, m.VideoID, "live", algo, player.Config{
		StartupSec: c.cfg.StartupSec,
		Recorder:   c.cfg.Recorder,
		SessionID:  c.cfg.SessionID,
	}, true)
	s.LimitChunks(c.cfg.MaxChunks)
	f.session = s.Session()
	// Each segment's fetch outcome, in chunk order: the step core records
	// the simulation fields, and the resilience counters join them on the
	// Result once the session ends.
	var fetches []segmentFetch

	for !s.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := s.Chunk
		s.SetNow(f.vnow())
		st := s.BeginChunk()
		if d := s.WantDelay(st); d > 0 {
			s.NoteWait(d)
			if err := f.sleep(ctx, d); err != nil {
				return nil, err
			}
			s.AddStall(s.ElapseTo(f.vnow()))
		}
		if wait := s.FullBufferWait(); wait > 0 {
			s.NoteWait(wait)
			if err := f.sleep(ctx, wait); err != nil {
				return nil, err
			}
			s.ElapseTo(f.vnow()) // cannot stall: buffer is at its maximum
		}

		s.SetNow(f.vnow())
		s.Refresh(&st)
		level := s.Decide(st)

		v0 := f.vnow()
		sf, err := f.fetch(ctx, level, i, s.BufferSec, st.Est, s.Playing)
		if err != nil {
			return nil, err
		}
		v1 := f.vnow()
		vdur := v1 - v0
		bits := float64(sf.Bytes) * 8

		s.Rec.Level = sf.Level
		s.Rec.SizeBits = bits
		s.Rec.StartTime = v0
		s.Rec.DownloadSec = vdur
		if vdur > 0 && !sf.Skipped {
			s.Rec.ThroughputBps = bits / vdur
		}
		s.AddStall(s.ElapseTo(v1))
		fetches = append(fetches, sf)

		c.mBytes.Add(uint64(sf.Bytes))
		if sf.Skipped {
			// Graceful degradation: the segment is gone; playback jumps
			// the gap, which the viewer experiences as a stall of one
			// segment duration.
			s.SkipChunk()
			c.mSkips.Inc()
			if f.trc != nil {
				f.trc.Record(telemetry.Event{
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
			if err := f.sleep(ctx, m.ChunkDurSec); err != nil {
				return nil, err
			}
			s.SetNow(f.vnow())
		} else {
			c.mFetchSec.Observe(vdur)
			s.FinishDownload(st.Est)
		}

		s.MaybeStartup(f.vnow())
		s.NextChunk()
	}
	s.SetNow(f.vnow())
	res := s.Take()
	for i, sf := range fetches {
		c := &res.Chunks[i]
		c.Retries, c.Truncations, c.Abandonments, c.WastedBits = sf.Retries, sf.Truncations, sf.Abandonments, sf.WastedBits
		res.TotalRetries += sf.Retries
		res.TotalTruncations += sf.Truncations
		res.TotalAbandonments += sf.Abandonments
		res.WastedBits += sf.WastedBits
	}
	return res, nil
}
