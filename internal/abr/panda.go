package abr

import (
	"math"

	"cava/internal/quality"
	"cava/internal/video"
)

// PANDAMode selects the PANDA/CQ objective over the look-ahead window.
type PANDAMode int

// The two PANDA/CQ variants the paper evaluates (§6.1).
const (
	// MaxSum maximizes the sum of the qualities of the next N chunks.
	MaxSum PANDAMode = iota
	// MaxMin maximizes the minimum quality among the next N chunks.
	MaxMin
)

// PANDACQ implements the consistent-quality window optimization of Li et
// al. (MMSys'14) as characterized in the paper: it is the only baseline
// that consumes per-chunk video-quality values (information not available
// in today's DASH/HLS manifests). Over a window of N future chunks it
// searches track sequences within the window's data budget — the predicted
// bandwidth × window playback time — and picks the first track of the
// sequence optimizing the selected quality objective, breaking ties toward
// fewer track switches and then lower data usage. The rate budget is what
// makes the objectives meaningful: without it, max-sum would degenerately
// select the top track for every chunk. The scheme equalizes quality rather
// than regulating the buffer (it does not simulate it), so sustained
// over-prediction drains the buffer into stalls — the §6.3/§6.7 behaviour
// the paper reports. When no sequence fits the budget it falls back to
// track 0.
//
// The search is an exact branch-and-bound (DESIGN.md, "Exact look-ahead
// search"): it returns the level the exhaustive enumeration would, bit for
// bit, while descending only into subtrees that could still win.
type PANDACQ struct {
	v *video.Video
	q *quality.Table
	// Mode is the quality objective.
	Mode PANDAMode

	// Per-decision look-ahead tables, pandaHorizon × tracks by depth,
	// filled once per Select: each chunk's size and quality and the levels
	// by descending quality, and per depth the smallest size and the best
	// quality.
	sizeBits []float64
	qual     []float64
	ord      []int
	sminBits [pandaHorizon]float64
	qmax     [pandaHorizon]float64
	// The current decision's search state.
	horizon int
	budget  float64
	best    pandaLeaf
}

// The PANDA/CQ settings.
const (
	// pandaHorizon is the look-ahead window in chunks (5 as in CAVA's N).
	pandaHorizon = 5
	// pandaBudgetFactor scales the window's data budget relative to the
	// predicted bandwidth (1 keeps the buffer level on average).
	pandaBudgetFactor = 1
)

// pandaLeaf is one complete window sequence as the search ranks it.
type pandaLeaf struct {
	obj      float64 // quality objective (higher better)
	switches int
	bits     float64
	first    int
}

// beats reports whether feasible leaf a ranks above b: higher objective,
// then fewer switches, then fewer bits, then a lower first level. The last
// key makes the order total and picks the leaf the lexicographic
// enumeration keeps (its first strictly better one), so the visiting order
// cannot change the answer.
func (a pandaLeaf) beats(b pandaLeaf) bool {
	switch {
	case a.obj > b.obj:
		return true
	case a.obj < b.obj:
		return false
	case a.switches != b.switches:
		return a.switches < b.switches
	case a.bits < b.bits:
		return true
	case a.bits > b.bits:
		return false
	}
	return a.first < b.first
}

// NewPANDACQ returns a PANDA/CQ instance over the given quality table.
func NewPANDACQ(v *video.Video, q *quality.Table, mode PANDAMode) *PANDACQ {
	n := pandaHorizon * v.NumTracks()
	return &PANDACQ{v: v, q: q, Mode: mode,
		sizeBits: make([]float64, n), qual: make([]float64, n), ord: make([]int, n)}
}

// Name implements Algorithm.
func (p *PANDACQ) Name() string {
	if p.Mode == MaxMin {
		return "PANDA/CQ max-min"
	}
	return "PANDA/CQ max-sum"
}

// Select implements Algorithm.
func (p *PANDACQ) Select(st State) int {
	v := p.v
	pred := st.Est
	if pred <= 0 {
		return 0
	}
	horizon := min(pandaHorizon, v.NumChunks()-st.ChunkIndex)
	if horizon <= 0 {
		return ClampLevel(st.PrevLevel, v.NumTracks())
	}

	tracks := v.NumTracks()
	for d := 0; d < horizon; d++ {
		i := st.ChunkIndex + d
		p.sminBits[d], p.qmax[d] = math.Inf(1), math.Inf(-1)
		for l := 0; l < tracks; l++ {
			k := d*tracks + l
			p.sizeBits[k], p.qual[k] = v.ChunkSize(l, i), p.q.At(l, i)
			p.sminBits[d] = min(p.sminBits[d], p.sizeBits[k])
			p.qmax[d] = max(p.qmax[d], p.qual[k])
		}
		row := d * tracks
		sortDesc(p.ord[row:row+tracks], p.qual[row:row+tracks])
	}
	p.horizon = horizon
	p.budget = pandaBudgetFactor * pred * float64(horizon) * v.ChunkDurSec
	// No feasible leaf yet: any feasible one beats -Inf, and when none
	// exists the answer stays track 0.
	p.best = pandaLeaf{obj: math.Inf(-1)}

	// Seed the incumbent with the constant sequences, then search.
	for l := 0; l < tracks; l++ {
		sum, mn, bits := 0.0, math.Inf(1), 0.0
		for d := 0; d < horizon; d++ {
			k := d*tracks + l
			sum, bits = sum+p.qual[k], bits+p.sizeBits[k]
			if p.qual[k] < mn {
				mn = p.qual[k]
			}
		}
		sw := 0
		if st.PrevLevel >= 0 && l != st.PrevLevel {
			sw = 1
		}
		p.offer(sum, mn, bits, sw, l)
	}
	p.search(0, st.PrevLevel, 0, math.Inf(1), 0, 0, 0)
	return p.best.first
}

// offer ranks a complete sequence against the best one; a sequence over
// the budget never wins, and under a NaN budget none fits.
func (p *PANDACQ) offer(sum, mn, bits float64, switches, first int) {
	if !(bits <= p.budget) {
		return
	}
	c := pandaLeaf{obj: sum, switches: switches, bits: bits, first: first}
	if p.Mode == MaxMin {
		c.obj = mn
	}
	if c.beats(p.best) {
		p.best = c
	}
}

// search tries the levels at depth d in descending quality and descends
// into a child only when its cheapest completion fits the budget and its
// most optimistic leaf still beats the best one: the objective bound, the
// switches so far and the cheapest completion's bits, with its first
// level. Leaves below the child can only do worse on each key. The bounds
// fold in the per-depth extremes left to right, as a leaf accumulates its
// sums, so by monotone rounding no leaf falls outside them (the max-min
// bound involves no rounding at all). The objective bound only falls with
// the child's quality, so once it drops below the best objective no later
// level can win.
func (p *PANDACQ) search(d, prevL int, sum, mn, bits float64, switches, first int) {
	tracks := p.v.NumTracks()
	row := d * tracks
	for _, l := range p.ord[row : row+tracks] {
		k := row + l
		q := p.qual[k]
		cmn := mn
		if q < cmn {
			cmn = q
		}
		csum, cbits := sum+q, bits+p.sizeBits[k]
		obj := p.objBound(d, csum, cmn)
		if obj < p.best.obj {
			return
		}
		sw := switches
		if prevL >= 0 && l != prevL {
			sw++
		}
		f := first
		if d == 0 {
			f = l
		}
		if d == p.horizon-1 {
			p.offer(csum, cmn, cbits, sw, f)
			continue
		}
		lb := cbits
		for e := d + 1; e < p.horizon; e++ {
			lb += p.sminBits[e]
		}
		if lb <= p.budget && (pandaLeaf{obj: obj, switches: sw, bits: lb, first: f}).beats(p.best) {
			p.search(d+1, l, csum, cmn, cbits, sw, f)
		}
	}
}

// objBound bounds the objective of every leaf below a node at depth d
// whose quality sum and minimum so far are sum and mn: max-sum adds the
// best quality of each later chunk left to right, max-min takes the
// minimum with them.
func (p *PANDACQ) objBound(d int, sum, mn float64) float64 {
	for e := d + 1; e < p.horizon; e++ {
		sum += p.qmax[e]
		mn = min(mn, p.qmax[e])
	}
	if p.Mode == MaxMin {
		return mn
	}
	return sum
}
