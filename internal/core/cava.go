// Package core implements CAVA — Control-theoretic Adaptation for VBR-based
// ABR streaming — the paper's primary contribution (§5).
//
// CAVA consists of two controllers working in synergy:
//
//   - The inner controller selects the track. A PID feedback block (Eq. 1–2)
//     regulates the relative buffer filling rate u_t toward a dynamic target
//     buffer level; an optimizer (Eq. 3–4) then picks the track minimizing a
//     weighted sum of (i) deviation of the required bandwidth from the
//     assumed bandwidth and (ii) track change, where the required bandwidth
//     uses the average bitrate of a window of W future chunks (non-myopic,
//     P1) and the assumed bandwidth is inflated for complex Q4 chunks and
//     deflated for simple chunks (differential treatment, P2).
//   - The outer controller sets the target buffer level (Eq. 5): when large
//     chunks loom within a window of W′ future chunks it raises the target
//     proactively (P3), so the buffer is charged before complex scenes
//     arrive.
//
// CAVA uses only information available in today's DASH/HLS manifests:
// per-chunk sizes, declared track bitrates, and client-side buffer and
// throughput observations.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"cava/internal/abr"
	"cava/internal/scene"
	"cava/internal/telemetry"
	"cava/internal/video"
)

// Params holds every tunable of CAVA with the paper's defaults (§5, §6).
type Params struct {
	// HorizonN is the optimizer's look-ahead horizon in chunks (N = 5).
	HorizonN int
	// InnerWindowSec is the inner-controller window W in seconds over
	// which future chunk bitrates are averaged (40 s; §6.2).
	InnerWindowSec float64
	// OuterWindowSec is the outer-controller look-ahead W′ in seconds
	// (200 s; §6.2).
	OuterWindowSec float64
	// AlphaComplex inflates the bandwidth estimate for Q4 chunks (1.1).
	AlphaComplex float64
	// AlphaSimple deflates the bandwidth estimate for Q1–Q3 chunks (0.8).
	AlphaSimple float64
	// NoDeflateBuffer is the buffer level (seconds) above which the
	// deflation heuristic is skipped when it would pick a very low level
	// (10 s; §5.3).
	NoDeflateBuffer float64
	// NoDeflateMaxLevel is the highest 0-based level considered "very
	// low" for the no-deflate heuristic (1, i.e. the paper's levels 1–2).
	NoDeflateMaxLevel int
	// Q4NoInflate enables the optional heuristic that skips inflation for
	// Q4 chunks when the buffer is below Q4NoInflateBuffer. Disabled in
	// the paper's reported results (§5.3).
	Q4NoInflate bool
	// Q4NoInflateBuffer is the low-buffer threshold for Q4NoInflate.
	Q4NoInflateBuffer float64
	// BaseTargetBuffer is the base target buffer level x̄r in seconds
	// (60; 40 yields similar results per §5.4).
	BaseTargetBuffer float64
	// TargetCapFactor clamps the dynamic target at factor·x̄r (2).
	TargetCapFactor float64
	// TargetMax additionally clamps the dynamic target below the player's
	// reachable buffer; a target above the buffer cap would bias the
	// controller conservative permanently (90 for the paper's 100 s
	// player buffer).
	TargetMax float64
	// Kp and Ki are the PID proportional and integral gains; a wide
	// range performs well (§6.1, following PIA's methodology).
	Kp, Ki float64
	// UMin and UMax clamp the controller output to keep the track search
	// meaningful under extreme buffer errors.
	UMin, UMax float64
	// EtaWeight is the track-change penalty weight applied when the
	// current and previous chunks are in the same complexity category
	// (Eq. 3's η_t). The paper uses 1 to weigh the two penalty terms
	// equally; since the deviation term is summed over the N-chunk
	// horizon, weighing the change term by N keeps the two terms at
	// equal per-chunk scale.
	EtaWeight float64
	// Lookahead bounds how many future chunks (beyond the current one)
	// the controllers may inspect; 0 means unbounded (VoD). In live
	// streaming only the chunks the encoder has already produced are
	// known, so both the inner window and the outer preview truncate at
	// the live edge — the §8 future-work extension.
	Lookahead int
	// RefLevel is the reference track ℓ̃ for chunk classification and the
	// outer controller; negative selects the middle track.
	RefLevel int
	// NumClasses is the size-quantile class count (4 ⇒ quartiles).
	NumClasses int
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{
		HorizonN:          5,
		InnerWindowSec:    40,
		OuterWindowSec:    200,
		AlphaComplex:      1.5,
		AlphaSimple:       0.7,
		NoDeflateBuffer:   10,
		NoDeflateMaxLevel: 2,
		Q4NoInflate:       true,
		Q4NoInflateBuffer: 20,
		BaseTargetBuffer:  60,
		TargetCapFactor:   2,
		TargetMax:         90,
		Kp:                0.06,
		Ki:                0.0004,
		UMin:              0.35,
		UMax:              2.5,
		EtaWeight:         5,
		RefLevel:          -1,
		NumClasses:        scene.DefaultNumClasses,
	}
}

// Principles toggles the three design principles for the §6.4 ablation.
type Principles struct {
	// NonMyopic enables P1: window-W bitrate averaging in the optimizer.
	NonMyopic bool
	// Differential enables P2: α inflation/deflation and the
	// category-aware track-change weight η.
	Differential bool
	// Proactive enables P3: the outer preview controller.
	Proactive bool
}

// AllPrinciples is full CAVA (p123).
var AllPrinciples = Principles{NonMyopic: true, Differential: true, Proactive: true}

// plan is CAVA's preparation for one video: everything Eq. 3 and Eq. 5
// read that depends only on the manifest (per-chunk sizes and declared
// bitrates) and the structural parameters. It is read-only once built, so
// every session of a factory on the same video shares one plan; a session
// that retunes (Tune) gets a private copy of the header and still shares
// the tables. It copies the little a decision reads from the video (chunk
// count and duration, track average bitrates), so a decision touches only
// the session and the plan.
type plan struct {
	p    Params
	pr   Principles
	name string
	cats []scene.Category

	ref            int     // resolved reference track
	refAvgSizeBits float64 // mean chunk size of the reference track (bits)

	nChunks       int
	chunkDurSec   float64
	avgBitrateBps []float64 // per track, for the track-change term

	// target[i] is the outer controller's target buffer x_r(i) (Eq. 5),
	// and rbar[ℓ·nChunks+i] the inner window's R̄(ℓ, i) (Eq. 3).
	target []float64
	rbar   []float64
}

// newPlan tabulates the plan of v. Each entry is computed by the
// per-decision loops of the unshared controller, in the same summation
// order, so a tabled decision is bit-identical to a direct one.
func newPlan(v *video.Video, p Params, pr Principles, name string) *plan {
	ref := p.RefLevel
	if ref < 0 || ref >= v.NumTracks() {
		ref = scene.DefaultReferenceTrack(v.NumTracks())
	}
	n, nTracks := v.NumChunks(), v.NumTracks()
	pl := &plan{
		p:             p,
		pr:            pr,
		name:          name,
		cats:          scene.Classify(v, ref, p.NumClasses),
		ref:           ref,
		nChunks:       n,
		chunkDurSec:   v.ChunkDurSec,
		avgBitrateBps: make([]float64, nTracks),
	}
	sum := 0.0
	for _, s := range v.Tracks[ref].ChunkSizesBits {
		sum += s
	}
	pl.refAvgSizeBits = sum / float64(n)
	for l := range pl.avgBitrateBps {
		pl.avgBitrateBps[l] = v.AvgBitrateBps(l)
	}
	tables := make([]float64, n*(1+nTracks))
	pl.target, pl.rbar = tables[:n:n], tables[n:]
	for i := range pl.target {
		pl.target[i] = pl.targetBuffer(v, i)
	}
	for l := 0; l < nTracks; l++ {
		for i := 0; i < n; i++ {
			pl.rbar[l*n+i] = pl.windowAvgBitrate(v, l, i)
		}
	}
	return pl
}

// targetBuffer computes the outer controller's dynamic target buffer level
// x_r(t) for a decision at chunk index i (Eq. 5). Without P3 the target is
// the base level.
func (pl *plan) targetBuffer(v *video.Video, i int) float64 {
	xr := pl.p.BaseTargetBuffer
	if !pl.pr.Proactive {
		return xr
	}
	wChunks := int(math.Round(pl.p.OuterWindowSec / v.ChunkDurSec))
	if wChunks < 1 {
		wChunks = 1
	}
	// Eq. 5's preview window starts at the current chunk.
	start := i
	end := start + wChunks
	if end > v.NumChunks() {
		end = v.NumChunks()
	}
	if limit := pl.liveEdge(i); end > limit {
		end = limit
	}
	if end <= start {
		return xr
	}
	sum := 0.0
	for k := start; k < end; k++ {
		sum += v.ChunkSize(pl.ref, k)
	}
	n := float64(end - start)
	// Deviation of the upcoming window from the track average, converted
	// to seconds by dividing by the reference track's average bitrate.
	refAvgBitrate := v.AvgBitrateBps(pl.ref)
	dev := (sum - pl.refAvgSizeBits*n) / refAvgBitrate
	if dev > 0 {
		xr += dev
	}
	if cap := pl.p.TargetCapFactor * pl.p.BaseTargetBuffer; xr > cap {
		xr = cap
	}
	if pl.p.TargetMax > 0 && xr > pl.p.TargetMax {
		xr = pl.p.TargetMax
	}
	return xr
}

// windowAvgBitrate computes R̄_t(ℓ): the average bitrate of the W-chunk
// window starting at chunk i on track ℓ (P1). With P1 disabled it is the
// single chunk's bitrate (myopic).
func (pl *plan) windowAvgBitrate(v *video.Video, level, i int) float64 {
	if !pl.pr.NonMyopic {
		return v.ChunkBitrate(level, i)
	}
	wChunks := int(math.Round(pl.p.InnerWindowSec / v.ChunkDurSec))
	if wChunks < 1 {
		wChunks = 1
	}
	end := i + wChunks
	if end > v.NumChunks() {
		end = v.NumChunks()
	}
	if limit := pl.liveEdge(i); end > limit {
		end = limit
	}
	sum := 0.0
	for k := i; k < end; k++ {
		sum += v.ChunkSize(level, k)
	}
	return sum / (float64(end-i) * v.ChunkDurSec)
}

// liveEdge returns one past the last chunk index whose size is known at a
// decision for chunk i (the whole video for VoD).
func (pl *plan) liveEdge(i int) int {
	if pl.p.Lookahead <= 0 {
		return pl.nChunks
	}
	edge := i + 1 + pl.p.Lookahead
	if edge > pl.nChunks {
		edge = pl.nChunks
	}
	return edge
}

// planMemo shares one plan per video among the sessions of one factory.
// Factories are called concurrently (fleet shards, sim workers), so the
// memo is a sync.Map. It holds the plans of at most memoVideos videos for
// the factory's life; past that every session builds its own plan, as New
// does, so a caller that makes a fresh video per session (the testbed
// client's manifest view) cannot grow it without bound.
type planMemo struct {
	p     Params
	pr    Principles
	name  string
	plans sync.Map // *video.Video → *plan
	n     atomic.Int32
}

// memoVideos bounds a factory's memo; the dataset has 16 videos.
const memoVideos = 64

// get returns the plan of v, building it on the first session.
func (m *planMemo) get(v *video.Video) *plan {
	if pl, ok := m.plans.Load(v); ok {
		return pl.(*plan)
	}
	pl := newPlan(v, m.p, m.pr, m.name)
	if m.n.Load() >= memoVideos {
		return pl
	}
	got, loaded := m.plans.LoadOrStore(v, pl)
	if !loaded {
		m.n.Add(1)
	}
	return got.(*plan)
}

// CAVA is a per-session instance implementing abr.Algorithm: the shared
// plan, the PID state and the decision-trace recorder.
type CAVA struct {
	pl *plan

	integral float64 // PID integral accumulator (seconds²)
	lastNow  float64
	// lastP and lastI hold the proportional and integral contributions of
	// the most recent controlSignal call — cheap scalar stores that let the
	// decision trace expose the PID decomposition without recomputation.
	lastP, lastI float64

	rec     telemetry.Recorder // nil = tracing disabled
	session string
	primed  bool
}

// New returns a full CAVA instance with default parameters.
func New(v *video.Video) *CAVA { return NewWith(v, DefaultParams(), AllPrinciples, "CAVA") }

// NewWith returns a CAVA instance with explicit parameters, principle
// toggles and display name (used for the p1/p12/p123 ablation variants).
// It builds a plan of its own; a factory that builds many sessions shares
// one plan per video (FactoryWith).
func NewWith(v *video.Video, p Params, pr Principles, name string) *CAVA {
	return &CAVA{pl: newPlan(v, p, pr, name)}
}

// FactoryWith returns a factory of CAVA sessions with explicit parameters,
// principle toggles and display name. Its sessions on one video share one
// plan, built by the first of them.
func FactoryWith(p Params, pr Principles, name string) abr.Factory {
	m := &planMemo{p: p, pr: pr, name: name}
	return func(v *video.Video) abr.Algorithm { return &CAVA{pl: m.get(v)} }
}

// Variant builds the ablation factories used in §6.4: p1 (non-myopic only),
// p12 (plus differential treatment) and p123 (full CAVA).
func Variant(which string) abr.Factory {
	pr := AllPrinciples
	name := "CAVA"
	switch which {
	case "p1":
		pr = Principles{NonMyopic: true}
		name = "CAVA-p1"
	case "p12":
		pr = Principles{NonMyopic: true, Differential: true}
		name = "CAVA-p12"
	case "p123":
		name = "CAVA-p123"
	}
	return FactoryWith(DefaultParams(), pr, name)
}

// Factory returns the default full-CAVA factory.
func Factory() abr.Factory { return FactoryWith(DefaultParams(), AllPrinciples, "CAVA") }

// Live returns a CAVA factory restricted to a live-streaming lookahead of
// the given number of future chunks (the §8 future-work extension): only
// already-encoded chunks inform the inner window and the outer preview.
func Live(lookahead int) abr.Factory {
	p := DefaultParams()
	p.Lookahead = lookahead
	return FactoryWith(p, AllPrinciples, fmt.Sprintf("CAVA-live%d", lookahead))
}

// Name implements abr.Algorithm.
func (c *CAVA) Name() string { return c.pl.name }

// SetRecorder implements abr.Traced: subsequent Select calls emit a decide
// event with the controller internals (target buffer, u_t decomposition,
// α_t, η_t, and the per-track objective scores).
func (c *CAVA) SetRecorder(rec telemetry.Recorder, session string) {
	c.rec = rec
	c.session = session
}

// Categories exposes the chunk classification (for experiments and tests).
func (c *CAVA) Categories() []scene.Category { return c.pl.cats }

// TargetBuffer returns the outer controller's dynamic target buffer level
// x_r(t) for a decision at chunk index i (Eq. 5). Without P3 the target is
// the base level.
func (c *CAVA) TargetBuffer(i int) float64 { return c.pl.target[i] }

// controlSignal runs the PID feedback block (Eq. 2), returning u_t.
func (c *CAVA) controlSignal(now, buffer, target float64) float64 {
	p := &c.pl.p
	e := target - buffer
	if c.primed {
		dt := now - c.lastNow
		if dt > 0 {
			c.integral += e * dt
			// Anti-windup: bound the integral contribution so transient
			// large errors (startup, outages) do not bias decisions long
			// after the buffer has recovered.
			if lim := 0.8 / p.Ki; c.integral > lim {
				c.integral = lim
			} else if c.integral < -lim {
				c.integral = -lim
			}
		}
	} else {
		c.primed = true
	}
	c.lastNow = now

	c.lastP = p.Kp * e
	c.lastI = p.Ki * c.integral
	u := c.lastP + c.lastI
	if buffer >= c.pl.chunkDurSec {
		u += 1 // the linearizing indicator term 1(x_t − Δ)
	}
	if u < p.UMin {
		u = p.UMin
	}
	if u > p.UMax {
		u = p.UMax
	}
	return u
}

// windowAvgBitrate returns R̄_t(ℓ) for chunk i on track ℓ from the plan.
func (c *CAVA) windowAvgBitrate(level, i int) float64 {
	return c.pl.rbar[level*c.pl.nChunks+i]
}

// alpha returns the bandwidth inflation/deflation factor α_t for chunk i
// (P2), before heuristics.
func (c *CAVA) alpha(i int, buffer float64) float64 {
	pl := c.pl
	if !pl.pr.Differential {
		return 1
	}
	if scene.IsComplex(pl.cats[i]) {
		if pl.p.Q4NoInflate && buffer < pl.p.Q4NoInflateBuffer {
			return 1
		}
		return pl.p.AlphaComplex
	}
	return pl.p.AlphaSimple
}

// eta returns the track-change penalty weight η_t for chunk i (Eq. 3): zero
// when the current and previous chunks are in different complexity
// categories (Q4 vs non-Q4), one otherwise. Without P2 it is always one.
func (c *CAVA) eta(i int) float64 {
	pl := c.pl
	if i == 0 {
		return 0
	}
	if !pl.pr.Differential {
		return pl.p.EtaWeight
	}
	if scene.IsComplex(pl.cats[i]) != scene.IsComplex(pl.cats[i-1]) {
		return 0
	}
	return pl.p.EtaWeight
}

// objective evaluates Q(ℓ) of Eq. 3 for a candidate level.
func (c *CAVA) objective(level, i, prevLevel int, u, estBW, alpha, eta float64) float64 {
	pl := c.pl
	n := pl.p.HorizonN
	if rem := pl.nChunks - i; rem < n {
		n = rem
	}
	if n < 1 {
		n = 1
	}
	dev := u*c.windowAvgBitrate(level, i) - alpha*estBW
	q := float64(n) * dev * dev
	if prevLevel >= 0 {
		d := pl.avgBitrateBps[level] - pl.avgBitrateBps[prevLevel]
		q += eta * d * d
	}
	return q
}

// bestLevel solves Eq. 4 by evaluating Q(ℓ) over all tracks (O(|L|) table
// reads).
func (c *CAVA) bestLevel(i, prevLevel int, u, estBW, alpha, eta float64) int {
	best, bestQ := 0, math.Inf(1)
	for l := range c.pl.avgBitrateBps {
		q := c.objective(l, i, prevLevel, u, estBW, alpha, eta)
		if q < bestQ {
			best, bestQ = l, q
		}
	}
	return best
}

// Select implements abr.Algorithm: one full CAVA decision.
func (c *CAVA) Select(st abr.State) int {
	i := st.ChunkIndex
	if st.Est <= 0 {
		// No throughput observation yet: start from the lowest track.
		if c.rec != nil {
			c.rec.Record(telemetry.Event{
				Session: c.session, TimeSec: st.Now, Kind: telemetry.KindDecide,
				Chunk: i, Level: 0, PrevLevel: st.PrevLevel,
				BufferSec: st.Buffer, Detail: "no bandwidth estimate",
			})
		}
		return 0
	}
	pl := c.pl
	target := pl.target[i]
	u := c.controlSignal(st.Now, st.Buffer, target)
	alpha := c.alpha(i, st.Buffer)
	eta := c.eta(i)

	level := c.bestLevel(i, st.PrevLevel, u, st.Est, alpha, eta)

	// No-deflate heuristic (§5.3): deflation should save bandwidth for
	// complex scenes, not push simple scenes to the lowest rungs when
	// there is no stall risk.
	if pl.pr.Differential && !scene.IsComplex(pl.cats[i]) &&
		level <= pl.p.NoDeflateMaxLevel && st.Buffer > pl.p.NoDeflateBuffer && alpha < 1 {
		alpha = 1 // the decision that stands is the no-deflate re-solve
		level = c.bestLevel(i, st.PrevLevel, u, st.Est, alpha, eta)
	}
	if c.rec != nil {
		scores := make([]float64, len(pl.avgBitrateBps))
		for l := range scores {
			scores[l] = c.objective(l, i, st.PrevLevel, u, st.Est, alpha, eta)
		}
		c.rec.Record(telemetry.Event{
			Session: c.session, TimeSec: st.Now, Kind: telemetry.KindDecide,
			Chunk: i, Level: level, PrevLevel: st.PrevLevel,
			BufferSec: st.Buffer, EstBps: st.Est,
			TargetSec: target, U: u, PTerm: c.lastP, ITerm: c.lastI,
			Alpha: alpha, Eta: eta, Scores: scores,
		})
	}
	return level
}
