package abr

import (
	"math"
	"math/rand"
	"testing"

	"cava/internal/quality"
	"cava/internal/video"
)

// Reference implementations for the equivalence tests: the exhaustive
// closure-based look-ahead searches MPC and PANDA/CQ ran before the
// branch-and-bound, kept verbatim (fields included) so the pruned Select
// can be checked decision by decision against every track sequence.

type refMPC struct {
	v *video.Video
	// Horizon is the look-ahead length in chunks (5 in the paper).
	Horizon int
	// LambdaSwitch weighs the quality-change penalty.
	LambdaSwitch float64
	// MuRebuf weighs the rebuffering penalty (quality units per second).
	MuRebuf float64
	// BufferCap bounds the predicted buffer (the player's max buffer).
	BufferCap float64
	// Robust enables the RobustMPC error-discounted prediction.
	Robust bool

	errWindow []float64
	lastPred  float64
}

func newRefMPC(v *video.Video, robust bool) *refMPC {
	return &refMPC{
		v:            v,
		Horizon:      5,
		LambdaSwitch: 1,
		MuRebuf:      6,
		BufferCap:    100,
		Robust:       robust,
	}
}

// qual returns the MPC quality of chunk i at level l: its bitrate in Mbps.
func (m *refMPC) qual(l, i int) float64 {
	return m.v.ChunkBitrate(l, i) / 1e6
}

func (m *refMPC) Select(st State) int {
	v := m.v
	// Track prediction error for the robust discount.
	if m.lastPred > 0 && st.LastThroughputBps > 0 {
		e := math.Abs(m.lastPred-st.LastThroughputBps) / m.lastPred
		m.errWindow = append(m.errWindow, e)
		if len(m.errWindow) > 5 {
			m.errWindow = m.errWindow[len(m.errWindow)-5:]
		}
	}
	pred := st.Est
	m.lastPred = pred
	if pred <= 0 {
		return 0
	}
	if m.Robust {
		maxErr := 0.0
		for _, e := range m.errWindow {
			if e > maxErr {
				maxErr = e
			}
		}
		pred /= 1 + maxErr
	}

	horizon := m.Horizon
	if rem := v.NumChunks() - st.ChunkIndex; rem < horizon {
		horizon = rem
	}
	if horizon <= 0 {
		return ClampLevel(st.PrevLevel, v.NumTracks())
	}

	prevQ := 0.0
	havePrev := st.PrevLevel >= 0
	if havePrev {
		if pi := st.ChunkIndex - 1; pi >= 0 {
			prevQ = m.qual(st.PrevLevel, pi)
		}
	}

	best := math.Inf(-1)
	bestFirst := 0
	var dfs func(depth int, buf, prevQ, acc float64, first int, hasPrev bool)
	dfs = func(depth int, buf, prevQ, acc float64, first int, hasPrev bool) {
		if depth == horizon {
			if acc > best {
				best = acc
				bestFirst = first
			}
			return
		}
		i := st.ChunkIndex + depth
		for l := 0; l < v.NumTracks(); l++ {
			dl := v.ChunkSize(l, i) / pred
			b := buf - dl
			rebuf := 0.0
			if b < 0 {
				rebuf = -b
				b = 0
			}
			b += v.ChunkDurSec
			if b > m.BufferCap {
				b = m.BufferCap
			}
			q := m.qual(l, i)
			a := acc + q - m.MuRebuf*rebuf
			if hasPrev {
				a -= m.LambdaSwitch * math.Abs(q-prevQ)
			}
			f := first
			if depth == 0 {
				f = l
			}
			dfs(depth+1, b, q, a, f, true)
		}
	}
	dfs(0, st.Buffer, prevQ, 0, 0, havePrev)
	return bestFirst
}

type refPANDACQ struct {
	v *video.Video
	q *quality.Table
	// Mode is the quality objective.
	Mode PANDAMode
	// Horizon is the look-ahead window in chunks (5 as in CAVA's N).
	Horizon int
	// BufferCap bounds the predicted buffer.
	BufferCap float64
	// BudgetFactor scales the window's data budget relative to the
	// predicted bandwidth (1 keeps the buffer level on average).
	BudgetFactor float64
}

func newRefPANDACQ(v *video.Video, q *quality.Table, mode PANDAMode) *refPANDACQ {
	return &refPANDACQ{v: v, q: q, Mode: mode, Horizon: 5, BufferCap: 100, BudgetFactor: 1}
}

func (p *refPANDACQ) Select(st State) int {
	v := p.v
	pred := st.Est
	if pred <= 0 {
		return 0
	}
	horizon := p.Horizon
	if rem := v.NumChunks() - st.ChunkIndex; rem < horizon {
		horizon = rem
	}
	if horizon <= 0 {
		return ClampLevel(st.PrevLevel, v.NumTracks())
	}

	type cand struct {
		feasible bool
		obj      float64 // quality objective (higher better)
		rebuf    float64
		switches int
		bits     float64
		first    int
	}
	best := cand{feasible: false, obj: math.Inf(-1), rebuf: math.Inf(1)}
	better := func(a, b cand) bool {
		if a.feasible != b.feasible {
			return a.feasible
		}
		if !a.feasible {
			// Nothing fits the budget: less data wins.
			if a.bits != b.bits {
				return a.bits < b.bits
			}
			return a.obj > b.obj
		}
		if a.obj != b.obj {
			return a.obj > b.obj
		}
		if a.switches != b.switches {
			return a.switches < b.switches
		}
		return a.bits < b.bits
	}

	budget := p.BudgetFactor * pred * float64(horizon) * v.ChunkDurSec

	var dfs func(depth int, buf float64, prevL int, sum, min, rebuf, bits float64, switches, first int)
	dfs = func(depth int, buf float64, prevL int, sum, min, rebuf, bits float64, switches, first int) {
		if depth == horizon {
			obj := sum
			if p.Mode == MaxMin {
				obj = min
			}
			c := cand{feasible: bits <= budget, obj: obj, rebuf: rebuf,
				switches: switches, bits: bits, first: first}
			if better(c, best) {
				best = c
			}
			return
		}
		i := st.ChunkIndex + depth
		for l := 0; l < v.NumTracks(); l++ {
			size := v.ChunkSize(l, i)
			dl := size / pred
			b := buf - dl
			rb := rebuf
			if b < 0 {
				rb += -b
				b = 0
			}
			b += v.ChunkDurSec
			if b > p.BufferCap {
				b = p.BufferCap
			}
			q := p.q.At(l, i)
			mn := min
			if q < mn {
				mn = q
			}
			sw := switches
			if prevL >= 0 && l != prevL {
				sw++
			}
			f := first
			if depth == 0 {
				f = l
			}
			dfs(depth+1, b, l, sum+q, mn, rb, bits+size, sw, f)
		}
	}
	dfs(0, st.Buffer, st.PrevLevel, 0, math.Inf(1), 0, 0, 0, 0)
	return best.first
}

// randomSearchState draws a player state for the equivalence test. The
// chunk index covers the whole video with extra weight on the last five
// chunks, where the horizon shrinks, and on the two indices past the end;
// the buffer hits exactly 0 and 100 as well as [0, 110]; the estimate
// includes 0, the smallest subnormal, +Inf and NaN; and the throughput
// sample, which feeds RobustMPC's prediction-error history, includes 0
// (no sample) and +Inf.
func randomSearchState(rng *rand.Rand, v *video.Video) State {
	n := v.NumChunks()
	st := State{PrevLevel: rng.Intn(v.NumTracks()+1) - 1, Playing: true}
	if rng.Intn(5) == 0 {
		st.ChunkIndex = n - 5 + rng.Intn(7)
	} else {
		st.ChunkIndex = rng.Intn(n)
	}
	switch rng.Intn(20) {
	case 0:
		st.Buffer = 0
	case 1:
		st.Buffer = 100
	default:
		st.Buffer = 110 * rng.Float64()
	}
	logUniform := func() float64 { return 3e4 * math.Pow(1e3, rng.Float64()) }
	switch rng.Intn(40) {
	case 0:
		st.Est = 0
	case 1:
		st.Est = 5e-324
	case 2:
		st.Est = math.Inf(1)
	case 3:
		st.Est = math.NaN()
	default:
		st.Est = logUniform()
	}
	switch rng.Intn(20) {
	case 0:
		st.LastThroughputBps = 0
	case 1:
		st.LastThroughputBps = math.Inf(1)
	default:
		st.LastThroughputBps = logUniform()
	}
	st.Now = float64(st.ChunkIndex) * v.ChunkDurSec
	return st
}

// TestLookaheadSearchMatchesReference sends 50k seeded random states per
// scheme (25k on each of a YouTube and an FFmpeg video) through the
// branch-and-bound Select and the exhaustive reference, on a fresh pair of
// instances fed the same sequence, and requires the same level every time.
func TestLookaheadSearchMatchesReference(t *testing.T) {
	const statesPerVideo = 25_000
	videos := []*video.Video{
		video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi}),
		video.FFmpegVideo(video.Title{Name: "BBB", Genre: video.Animation}, video.H264),
	}
	for vi, v := range videos {
		pq := quality.NewTable(v, quality.PSNR)
		pairs := []struct {
			name      string
			got, want interface{ Select(State) int }
		}{
			{"mpc", NewMPC(v, false), newRefMPC(v, false)},
			{"robustmpc", NewMPC(v, true), newRefMPC(v, true)},
			{"panda-max-sum", NewPANDACQ(v, pq, MaxSum), newRefPANDACQ(v, pq, MaxSum)},
			{"panda-max-min", NewPANDACQ(v, pq, MaxMin), newRefPANDACQ(v, pq, MaxMin)},
		}
		for pi, p := range pairs {
			vi, v, pi, p := vi, v, pi, p
			t.Run(p.name+"/"+v.ID(), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(1000*vi + pi)))
				for k := 0; k < statesPerVideo; k++ {
					st := randomSearchState(rng, v)
					if got, want := p.got.Select(st), p.want.Select(st); got != want {
						t.Fatalf("state %d %+v: Select = %d, reference = %d", k, st, got, want)
					}
				}
			})
		}
	}
}
