package player

import (
	"fmt"
	"math"

	"cava/internal/abr"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

// Multi-client simulation: several players share one bottleneck link whose
// capacity follows a trace and is split equally among clients with an
// active download (the TCP-fair idealization used throughout the ABR
// fairness literature, e.g. FESTIVE). Clients that are not downloading
// (full buffer, scheme pause, done) consume nothing, so the remaining
// clients speed up — which is exactly the coupling that causes bitrate
// oscillation and unfairness among competing players.

// SharedClient is one participant in a shared-link session.
type SharedClient struct {
	// Video is the content this client streams.
	Video *video.Video
	// Algo is the client's adaptation logic (fresh instance).
	Algo abr.Algorithm
	// Config is the client's player configuration; zero values take the
	// §6.1 defaults.
	Config Config
	// JoinDelaySec staggers this client's session start: it issues no
	// requests before this time. Staggered joins are what break the
	// lockstep of identical clients and expose (un)fairness.
	JoinDelaySec float64
}

// SimulateShared runs all clients to completion over the shared link and
// returns one Result per client, in input order.
//
// Each client is a StepState driven through the phase API; this function
// only schedules the link. Between events every client's clock advances by
// the same span, so all unfinished clients share one virtual time.
func SimulateShared(tr *trace.Trace, clients []SharedClient) ([]*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("player: no clients")
	}

	// link is one client's scheduler state around its session core.
	type link struct {
		s         StepState
		est       float64 // estimate the in-flight decision saw
		remaining float64 // bits left of the in-flight download (0 = none)
		inflight  bool
		wakeAt    float64 // waiting (join, full buffer, scheme delay) until this time
		done      bool
	}
	links := make([]link, len(clients))
	for i, sc := range clients {
		if err := sc.Video.Validate(); err != nil {
			return nil, fmt.Errorf("player: client %d: %w", i, err)
		}
		cfg := sc.Config
		if cfg.Recorder != nil && cfg.SessionID == "" {
			// Clients may share video, trace and scheme; keep their
			// trace events apart.
			cfg.SessionID = fmt.Sprintf("%s#%d", telemetry.SessionID(sc.Video.ID(), tr.ID, sc.Algo.Name()), i)
		}
		links[i].s.Init(sc.Video, sc.Video.ID(), tr.ID, sc.Algo, cfg, true)
		links[i].wakeAt = sc.JoinDelaySec
	}

	now := 0.0
	const eps = 1e-9

	// decide prompts a client for its next action at time now; it either
	// starts a download (remaining > 0) or sets a wake time.
	decide := func(l *link) {
		s := &l.s
		if s.Done() {
			l.done = true
			return
		}
		st := s.BeginChunk()
		if w := s.WantDelay(st); w > 0 {
			l.wakeAt = now + w
			return
		}
		if w := s.FullBufferWait(); w > 0 {
			l.wakeAt = now + w
			return
		}
		level := s.Decide(st)
		s.Rec.Level = level
		s.Rec.SizeBits = s.v.ChunkSize(level, s.Chunk)
		s.Rec.StartTime = now
		l.est, l.remaining, l.inflight, l.wakeAt = st.Est, s.Rec.SizeBits, true, 0
	}

	for i := range links {
		if links[i].wakeAt <= 0 {
			decide(&links[i])
		}
	}

	for {
		// Count active downloaders and find the next wake/boundary event.
		active := 0
		next := math.Inf(1)
		allDone := true
		for i := range links {
			l := &links[i]
			if l.done {
				continue
			}
			allDone = false
			if l.remaining > 0 {
				active++
			} else if l.wakeAt > now && l.wakeAt < next {
				next = l.wakeAt
			} else if l.wakeAt <= now {
				// Ready to decide again right now.
				next = now
			}
		}
		if allDone {
			break
		}
		// Trace boundary bounds the constant-rate span.
		boundary := (math.Floor(now/tr.IntervalSec) + 1) * tr.IntervalSec
		if boundary < next {
			next = boundary
		}
		share := 0.0
		if active > 0 {
			share = tr.BandwidthAt(now) / float64(active)
			for i := range links {
				l := &links[i]
				if !l.done && l.remaining > 0 {
					if fin := now + l.remaining/math.Max(share, eps); fin < next {
						next = fin
					}
				}
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("player: shared simulation wedged at t=%.1f", now)
		}
		if next < now+eps {
			next = now + eps
		}
		dt := next - now

		// Advance downloads and playback. A stall counts toward the chunk
		// only while its download is still incomplete after the span.
		for i := range links {
			l := &links[i]
			if l.done {
				continue
			}
			if l.remaining > 0 && share > 0 {
				l.remaining -= share * dt
			}
			if stall := l.s.ElapseTo(next); l.remaining > 0 {
				l.s.AddStall(stall)
			} else {
				l.s.AddSessionStall(stall)
			}
		}
		now = next

		// Complete downloads and re-decide.
		for i := range links {
			l := &links[i]
			if l.done {
				continue
			}
			if l.remaining > 0 && l.remaining <= eps*10 {
				l.remaining = 0
			}
			if l.inflight && l.remaining <= 0 {
				s := &l.s
				s.Rec.DownloadSec = now - s.Rec.StartTime
				if s.Rec.DownloadSec > 0 {
					s.Rec.ThroughputBps = s.Rec.SizeBits / s.Rec.DownloadSec
				}
				s.FinishDownload(l.est)
				s.MaybeStartup(now)
				s.NextChunk()
				l.inflight = false
				decide(l)
			} else if l.remaining <= 0 && l.wakeAt <= now {
				decide(l)
			}
		}
	}

	out := make([]*Result, len(links))
	for i := range links {
		out[i] = links[i].s.Take()
	}
	return out, nil
}

// JainIndex computes Jain's fairness index over per-client values
// (1 = perfectly fair, 1/n = maximally unfair).
func JainIndex(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(values)) * sumSq)
}
