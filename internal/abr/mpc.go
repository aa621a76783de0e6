package abr

import (
	"math"

	"cava/internal/video"
)

// MPC implements the model-predictive-control scheme of Yin et al.
// (SIGCOMM'15) with the paper's recommended VBR adaptation: actual chunk
// sizes drive the predicted buffer evolution. At each decision it searches
// all track sequences over a finite horizon, simulates the buffer under the
// predicted bandwidth, and picks the first track of the sequence maximizing
//
//	QoE = Σ q_k − λ Σ |q_k − q_{k−1}| − μ Σ rebuffer_k
//
// where q_k is the chunk bitrate in Mbps. RobustMPC divides the bandwidth
// prediction by (1 + max recent relative prediction error), trading some
// quality for much less rebuffering under volatile bandwidth.
//
// The search is an exact branch-and-bound (DESIGN.md, "Exact look-ahead
// search"): it returns the level the exhaustive enumeration would, bit for
// bit, while descending only into subtrees that could still win.
type MPC struct {
	v *video.Video
	// Robust enables the RobustMPC error-discounted prediction.
	Robust bool

	errs     [mpcErrWindow]float64 // ring of recent relative prediction errors
	nextErr  int
	lastPred float64

	// Per-decision look-ahead tables, mpcHorizon × tracks by depth, filled
	// once per Select: dlSec is each chunk's predicted download time, q its
	// quality and ord the levels by descending quality; qmax is the best
	// quality at each depth.
	dlSec []float64
	q     []float64
	ord   []int
	qmax  [mpcHorizon]float64
	// The current decision's search state.
	horizon   int
	best      float64
	bestFirst int
}

// The paper-aligned MPC settings. Both penalty weights are non-negative,
// which the search's bound relies on.
const (
	mpcHorizon      = 5   // look-ahead length in chunks (5 in the paper)
	mpcLambdaSwitch = 1   // weighs the quality-change penalty
	mpcMuRebuf      = 6   // weighs rebuffering, in quality units per second
	mpcBufferCapSec = 100 // bounds the predicted buffer (the player's max buffer)
	mpcErrWindow    = 5   // chunks of prediction error RobustMPC remembers
)

// NewMPC returns an MPC instance with the paper-aligned defaults
// (horizon 5, λ=1, μ=6 quality-units/s, 100 s buffer cap).
func NewMPC(v *video.Video, robust bool) *MPC {
	n := mpcHorizon * v.NumTracks()
	return &MPC{v: v, Robust: robust,
		dlSec: make([]float64, n), q: make([]float64, n), ord: make([]int, n)}
}

// Name implements Algorithm.
func (m *MPC) Name() string {
	if m.Robust {
		return "RobustMPC"
	}
	return "MPC"
}

// qual returns the MPC quality of chunk i at level l: its bitrate in Mbps.
func (m *MPC) qual(l, i int) float64 {
	return m.v.ChunkBitrate(l, i) / 1e6
}

// Select implements Algorithm.
func (m *MPC) Select(st State) int {
	v := m.v
	// Track prediction error for the robust discount.
	if m.lastPred > 0 && st.LastThroughputBps > 0 {
		m.errs[m.nextErr] = math.Abs(m.lastPred-st.LastThroughputBps) / m.lastPred
		m.nextErr = (m.nextErr + 1) % mpcErrWindow
	}
	pred := st.Est
	m.lastPred = pred
	if pred <= 0 {
		return 0
	}
	if m.Robust {
		// Unfilled slots hold 0, which never raises the maximum.
		maxErr := 0.0
		for _, e := range m.errs {
			if e > maxErr {
				maxErr = e
			}
		}
		pred /= 1 + maxErr
	}

	horizon := min(mpcHorizon, v.NumChunks()-st.ChunkIndex)
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

	tracks := v.NumTracks()
	for d := 0; d < horizon; d++ {
		i := st.ChunkIndex + d
		m.qmax[d] = math.Inf(-1)
		for l := 0; l < tracks; l++ {
			k := d*tracks + l
			m.dlSec[k] = v.ChunkSize(l, i) / pred
			m.q[k] = m.qual(l, i)
			m.qmax[d] = max(m.qmax[d], m.q[k])
		}
		row := d * tracks
		sortDesc(m.ord[row:row+tracks], m.q[row:row+tracks])
	}

	// Seed the incumbent with the constant sequences, then search.
	m.horizon, m.best, m.bestFirst = horizon, math.Inf(-1), 0
	for l := 0; l < tracks; l++ {
		buf, q, acc, hasPrev := st.Buffer, prevQ, 0.0, havePrev
		for d := 0; d < horizon; d++ {
			buf, acc = m.step(d*tracks+l, buf, q, acc, hasPrev)
			q, hasPrev = m.q[d*tracks+l], true
		}
		if m.beats(acc, l) {
			m.best, m.bestFirst = acc, l
		}
	}
	m.search(0, st.Buffer, prevQ, 0, 0, havePrev)
	return m.bestFirst
}

// step plays one look-ahead chunk (table entry k) into the predicted buffer
// and returns the buffer after it and the objective accumulated so far,
// with the exhaustive search's arithmetic.
func (m *MPC) step(k int, buf, prevQ, acc float64, hasPrev bool) (float64, float64) {
	b := buf - m.dlSec[k]
	rebuf := 0.0
	if b < 0 {
		rebuf, b = -b, 0
	}
	q := m.q[k]
	a := acc + q - mpcMuRebuf*rebuf
	if hasPrev {
		a -= mpcLambdaSwitch * math.Abs(q-prevQ)
	}
	return min(b+m.v.ChunkDurSec, mpcBufferCapSec), a
}

// beats reports whether a leaf of objective a whose sequence starts at
// level first ranks above the best leaf so far: a higher objective wins,
// and an equal one wins with a lower first level. That is the leaf the
// lexicographic enumeration keeps (its first strictly better one), so the
// visiting order cannot change the answer.
func (m *MPC) beats(a float64, first int) bool {
	return a > m.best || (a >= m.best && first < m.bestFirst)
}

// search tries the levels at depth d in descending quality and descends
// into a child only when an upper bound on its leaves still beats the best
// leaf. The bound adds the best quality of each deeper chunk, left to
// right as a leaf would accumulate: the penalties are never negative and
// rounding is monotone, so no leaf below the child can exceed it. The same
// sum taken before the child's penalties only falls with its quality, so
// once it drops below the best leaf no later level can win.
func (m *MPC) search(d int, buf, prevQ, acc float64, first int, hasPrev bool) {
	tracks := m.v.NumTracks()
	row := d * tracks
	for _, l := range m.ord[row : row+tracks] {
		k := row + l
		if m.bound(d, acc+m.q[k]) < m.best {
			return
		}
		b, a := m.step(k, buf, prevQ, acc, hasPrev)
		f := first
		if d == 0 {
			f = l
		}
		if d == m.horizon-1 {
			if m.beats(a, f) {
				m.best, m.bestFirst = a, f
			}
		} else if m.beats(m.bound(d, a), f) {
			m.search(d+1, b, m.q[k], a, f, true)
		}
	}
}

// bound adds the best quality of every chunk after depth d to the
// objective a of a node at depth d, left to right.
func (m *MPC) bound(d int, a float64) float64 {
	for e := d + 1; e < m.horizon; e++ {
		a += m.qmax[e]
	}
	return a
}

// sortDesc fills ord with the levels 0..len(ord)-1 ordered by descending
// val, ties by ascending level.
func sortDesc(ord []int, val []float64) {
	for l := range ord {
		j := l
		for ; j > 0 && val[ord[j-1]] < val[l]; j-- {
			ord[j] = ord[j-1]
		}
		ord[j] = l
	}
}
