// Package oracle computes an offline-optimal reference schedule: the track
// sequence that maximizes delivered quality with zero rebuffering, given
// full future knowledge of both the bandwidth trace and every chunk size.
//
// No online scheme can beat it on its own objective, so it bounds the
// headroom above CAVA and the baselines (the "oracle" experiment), in the
// spirit of the offline-optimal comparisons in the MPC and BOLA papers.
//
// The planner is a dynamic program over (chunk index, previous track,
// quantized session clock). From a state it tries every track for the next
// chunk, advancing the clock by the true download time from the trace and
// enforcing the player constraints (startup latency, maximum buffer,
// no stalls). The objective is Σ quality − λ·Σ|Δquality|; infeasible
// branches (any stall) are pruned, and if even the all-lowest schedule
// stalls, the fallback relaxes the no-stall constraint chunk by chunk.
package oracle

import (
	"math"

	"cava/internal/abr"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/trace"
	"cava/internal/video"
)

// Config parametrizes the planner. The player constraints are the
// simulator's defaults, player.DefaultStartupSec and
// player.DefaultMaxBufferSec, so plans replay under player.DefaultConfig.
type Config struct {
	// LambdaSwitch weighs the quality-change penalty; 0 selects the
	// default of 1, negative selects pure quality maximization (λ = 0).
	LambdaSwitch float64
	// TimeQuantum quantizes the session clock for memoization (default
	// 0.25 s). Smaller is more exact and slower.
	TimeQuantum float64
}

// Plan is the oracle's output.
type Plan struct {
	// Levels is the chosen track per chunk.
	Levels []int
	// Objective is Σquality − λΣ|Δquality| of the plan.
	Objective float64
	// Feasible reports whether a zero-stall schedule exists; when false
	// the plan is the all-lowest-track schedule.
	Feasible bool
}

// Compute runs the planner.
func Compute(v *video.Video, tr *trace.Trace, qt *quality.Table, cfg Config) (*Plan, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if cfg.LambdaSwitch < 0 {
		cfg.LambdaSwitch = 0
	} else if cfg.LambdaSwitch == 0 {
		cfg.LambdaSwitch = 1
	}
	if cfg.TimeQuantum <= 0 {
		cfg.TimeQuantum = 0.25
	}

	p := &planner{v: v, tr: tr, qt: qt, cfg: cfg, memo: make(map[stateKey]memoVal)}
	n := v.NumChunks()

	// startupChunks is how many chunks must complete before playback
	// starts; the playback clock s is their completion time.
	p.startupChunks = int(math.Ceil(player.DefaultStartupSec / v.ChunkDurSec))
	if p.startupChunks < 1 {
		p.startupChunks = 1
	}
	if p.startupChunks > n {
		p.startupChunks = n
	}

	best, ok := p.solve()
	if !ok {
		// Even all-lowest stalls somewhere: return the floor schedule.
		levels := make([]int, n)
		return &Plan{Levels: levels, Objective: p.objectiveOf(levels), Feasible: false}, nil
	}
	return &Plan{Levels: best, Objective: p.objectiveOf(best), Feasible: true}, nil
}

type stateKey struct {
	chunk     int
	prevLevel int8
	timeBin   int32
}

type memoVal struct {
	value float64
	level int8
	ok    bool
}

type planner struct {
	v             *video.Video
	tr            *trace.Trace
	qt            *quality.Table
	cfg           Config
	startupChunks int
	memo          map[stateKey]memoVal
}

// solve explores startup schedules first (playback clock depends on the
// first chunks' levels), then runs the post-startup DP.
func (p *planner) solve() ([]int, bool) {
	n := p.v.NumChunks()
	levels := make([]int, n)
	// Startup chunks at the lowest track: the universal player practice
	// (every online scheme starts at the bottom, and raising startup
	// levels only delays the playback clock — it cannot reduce stalls).
	t := 0.0
	for i := 0; i < p.startupChunks; i++ {
		t += p.tr.DownloadTime(t, p.v.ChunkSize(0, i))
		levels[i] = 0
	}
	playStart := t

	if p.startupChunks == n {
		return levels, true
	}
	if _, ok := p.dp(p.startupChunks, 0, t, playStart); !ok {
		return nil, false
	}
	// Reconstruct the chosen levels. Exact times drift within memo bins
	// during reconstruction, so re-invoke the DP at every step (cheap —
	// states memoize) instead of reading the memo map directly.
	tt := t
	prev := 0
	for i := p.startupChunks; i < n; i++ {
		if _, ok := p.dp(i, prev, tt, playStart); !ok {
			return nil, false
		}
		key := stateKey{chunk: i, prevLevel: int8(prev), timeBin: p.bin(tt)}
		mv := p.memo[key]
		l := int(mv.level)
		start := p.startTime(i, tt, playStart)
		tt = start + p.tr.DownloadTime(start, p.v.ChunkSize(l, i))
		levels[i] = l
		prev = l
	}
	return levels, true
}

func (p *planner) bin(t float64) int32 {
	return int32(t / p.cfg.TimeQuantum)
}

// deadline is when chunk i must be ready for stall-free playback.
func (p *planner) deadline(i int, playStart float64) float64 {
	return playStart + float64(i-p.startupChunks+1)*p.v.ChunkDurSec
}

// startTime is the earliest the download of chunk i may begin: after the
// previous completion, and not before the buffer has room.
func (p *planner) startTime(i int, prevDone, playStart float64) float64 {
	// Buffer occupancy at x: i·Δ − (x − playStart) video-seconds (chunks
	// 0..i−1 downloaded). Starting chunk i requires occupancy + Δ ≤ max.
	earliest := playStart + float64(i+1)*p.v.ChunkDurSec - player.DefaultMaxBufferSec
	if prevDone > earliest {
		return prevDone
	}
	return earliest
}

// dp returns the best achievable objective from chunk i onward given the
// previous level and the completion time of chunk i−1.
func (p *planner) dp(i, prevLevel int, prevDone, playStart float64) (float64, bool) {
	n := p.v.NumChunks()
	if i == n {
		return 0, true
	}
	key := stateKey{chunk: i, prevLevel: int8(prevLevel), timeBin: p.bin(prevDone)}
	if mv, found := p.memo[key]; found {
		return mv.value, mv.ok
	}
	start := p.startTime(i, prevDone, playStart)
	dl := p.deadline(i, playStart)

	best := math.Inf(-1)
	bestLevel := -1
	for l := 0; l < p.v.NumTracks(); l++ {
		done := start + p.tr.DownloadTime(start, p.v.ChunkSize(l, i))
		if done > dl+1e-9 {
			continue // would stall
		}
		q := p.qt.At(l, i)
		gain := q
		if i > 0 {
			gain -= p.cfg.LambdaSwitch * math.Abs(q-p.qt.At(prevLevel, i-1))
		}
		rest, ok := p.dp(i+1, l, done, playStart)
		if !ok {
			continue
		}
		if total := gain + rest; total > best {
			best = total
			bestLevel = l
		}
	}
	ok := bestLevel >= 0
	p.memo[key] = memoVal{value: best, level: int8(bestLevel), ok: ok}
	return best, ok
}

// objectiveOf scores a fixed schedule.
func (p *planner) objectiveOf(levels []int) float64 {
	total := 0.0
	for i, l := range levels {
		q := p.qt.At(l, i)
		total += q
		if i > 0 {
			total -= p.cfg.LambdaSwitch * math.Abs(q-p.qt.At(levels[i-1], i-1))
		}
	}
	return total
}

// Replay executes a plan through the standard player, producing a Result
// comparable with online schemes.
func Replay(v *video.Video, tr *trace.Trace, plan *Plan, cfg player.Config) (*player.Result, error) {
	algo := &scripted{levels: plan.Levels}
	res, err := player.Simulate(v, tr, algo, cfg)
	if err != nil {
		return nil, err
	}
	res.Scheme = "Oracle"
	return res, nil
}

// scripted plays back a fixed level schedule.
type scripted struct{ levels []int }

func (s *scripted) Name() string { return "Oracle" }

func (s *scripted) Select(st abr.State) int {
	if st.ChunkIndex < 0 || st.ChunkIndex >= len(s.levels) {
		return 0
	}
	return s.levels[st.ChunkIndex]
}
