package main

import (
	"fmt"
	"sync"
	"time"

	"cava/internal/abr"
	"cava/internal/telemetry"
	"cava/internal/video"
)

// sampleEvery is the traced probe's timing stride: it counts every Select
// and Delay but reads the clock around one call in this many, so tracing
// costs little even where a decision takes nanoseconds.
const sampleEvery = 64

// probe wraps a scheme factory to observe the algorithms it builds from
// outside. Every instance stamps when it was built and when it decided its
// session's last chunk, which is the session's latency. A traced probe
// also counts each Select and Delay, times a sample of them and records a
// span per timed Select.
type probe struct {
	base      time.Time
	maxChunks int // chunks per session, 0 = the whole video
	spans     *spanLog
	// onFull, when set, runs once the last instance the probe is sized
	// for has been built.
	onFull func()

	mu    sync.Mutex
	slots []slot // preallocated so instances never see it move
	next  int    // guarded by mu
}

// slot is one algorithm instance's record. Only that instance's session
// writes it, and it is read after the frontend has returned.
type slot struct {
	builtNs, lastNs   int64
	selects, delays   int64
	timedSel, timedNs int64
	timedDel, delayNs int64
}

// newProbe sizes a probe for at most sessions instances, each ending at
// chunk maxChunks-1 (0 = the whole video). spans is nil for an untraced
// run.
func newProbe(sessions, maxChunks int, spans *spanLog) *probe {
	return &probe{base: time.Now(), maxChunks: maxChunks, spans: spans, slots: make([]slot, sessions)}
}

func (p *probe) now() int64 { return int64(time.Since(p.base)) }

// wrap returns a factory whose instances behave exactly like f's: the
// wrapper implements abr.Delayer and abr.Traced precisely when the inner
// algorithm does, because the player changes behaviour on both.
func (p *probe) wrap(f abr.Factory) abr.Factory {
	return func(v *video.Video) abr.Algorithm {
		built := p.now()
		inner := f(v)
		p.mu.Lock()
		id := p.next
		p.next++
		p.mu.Unlock()
		if id >= len(p.slots) {
			panic(fmt.Sprintf("probe sized for %d sessions built instance %d", len(p.slots), id+1))
		}
		last := v.NumChunks()
		if p.maxChunks > 0 && p.maxChunks < last {
			last = p.maxChunks
		}
		if id == len(p.slots)-1 && p.onFull != nil {
			p.onFull()
		}
		s := &p.slots[id]
		s.builtNs = built
		pa := &probed{inner: inner, p: p, s: s, id: id, last: last - 1}
		d, isDelayer := inner.(abr.Delayer)
		t, isTraced := inner.(abr.Traced)
		switch {
		case isDelayer && isTraced:
			return probedBoth{probedDelayer{pa, d}, t}
		case isDelayer:
			return probedDelayer{pa, d}
		case isTraced:
			return probedTraced{pa, t}
		}
		return pa
	}
}

// built returns how many instances the probe has built.
func (p *probe) built() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next
}

// latenciesMs returns each finished session's latency, build to last
// decision, in milliseconds.
func (p *probe) latenciesMs() []float64 {
	n := p.built()
	out := make([]float64, 0, n)
	for _, s := range p.slots[:n] {
		if s.lastNs > 0 {
			out = append(out, float64(s.lastNs-s.builtNs)/1e6)
		}
	}
	return out
}

// decideNs estimates the total time spent in Select and Delay from the
// timed sample, scaled by the exact call counts.
func (p *probe) decideNs() float64 {
	var selects, delays, timedSel, timedDel, selNs, delNs int64
	for _, s := range p.slots[:p.built()] {
		selects += s.selects
		delays += s.delays
		timedSel += s.timedSel
		timedDel += s.timedDel
		selNs += s.timedNs
		delNs += s.delayNs
	}
	est := 0.0
	if timedSel > 0 {
		est += float64(selNs) * float64(selects) / float64(timedSel)
	}
	if timedDel > 0 {
		est += float64(delNs) * float64(delays) / float64(timedDel)
	}
	return est
}

// probed is the wrapper for algorithms with neither optional interface.
type probed struct {
	inner abr.Algorithm
	p     *probe
	s     *slot
	id    int
	last  int
}

func (a *probed) Name() string { return a.inner.Name() }

func (a *probed) Select(st abr.State) int {
	var level int
	if a.p.spans == nil {
		level = a.inner.Select(st)
	} else {
		a.s.selects++
		if (a.s.selects+int64(a.id))%sampleEvery != 0 {
			level = a.inner.Select(st)
		} else {
			start := a.p.now()
			level = a.inner.Select(st)
			d := a.p.now() - start
			a.s.timedSel++
			a.s.timedNs += d
			a.p.spans.add(span{
				Trace: fmt.Sprintf("algo-%d", a.id), ID: fmt.Sprintf("algo-%d/%d", a.id, st.ChunkIndex),
				Parent: "run", Name: "abr.select", StartNs: start, DurNs: d,
			})
		}
	}
	if st.ChunkIndex == a.last {
		a.s.lastNs = a.p.now()
	}
	return level
}

func (a *probed) delay(d abr.Delayer, st abr.State) float64 {
	if a.p.spans == nil {
		return d.Delay(st)
	}
	a.s.delays++
	if (a.s.delays+int64(a.id))%sampleEvery != 0 {
		return d.Delay(st)
	}
	start := a.p.now()
	out := d.Delay(st)
	a.s.timedDel++
	a.s.delayNs += a.p.now() - start
	return out
}

type probedDelayer struct {
	*probed
	d abr.Delayer
}

func (a probedDelayer) Delay(st abr.State) float64 { return a.delay(a.d, st) }

type probedTraced struct {
	*probed
	t abr.Traced
}

func (a probedTraced) SetRecorder(rec telemetry.Recorder, session string) {
	a.t.SetRecorder(rec, session)
}

type probedBoth struct {
	probedDelayer
	t abr.Traced
}

func (a probedBoth) SetRecorder(rec telemetry.Recorder, session string) {
	a.t.SetRecorder(rec, session)
}
