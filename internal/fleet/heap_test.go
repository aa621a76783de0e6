package fleet

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"cava/internal/trace"
	"cava/internal/video"
)

// heapHoldEvents is the live event count of BenchmarkEventHeapHold: one
// shard's share of a 100k-session fleet on two workers, every session in
// flight.
const heapHoldEvents = 50_000

// BenchmarkEventHeapHold times the event queue in a shard's steady state,
// the classic hold model: each op pops the earliest of heapHoldEvents live
// events (settling the lowest bucket when bucket 0 is empty) and pushes
// that session's next wakeup 2–4 s later, about one chunk's service
// interval. It measures the queue alone, which the bench harness's
// per-layer closure does not yet time. The bench-telemetry step of
// scripts/check.sh runs it at 100 iterations, so every gate builds a
// 50k-event queue.
func BenchmarkEventHeapHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := newEventHeap(0, heapHoldEvents)
	for id := int32(0); id < heapHoldEvents; id++ {
		h.push(event{wakeSec: 4 * rng.Float64(), id: id})
	}
	// Draw the increments up front so the timed loop runs no rng.
	stepsSec := make([]float64, 1<<16)
	for i := range stepsSec {
		stepsSec[i] = 2 + 2*rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		ev.wakeSec += stepsSec[i&(len(stepsSec)-1)]
		h.push(ev)
	}
}

// eventLess is the queue's order: earliest wakeup first, session id as
// the deterministic tie-break.
func eventLess(a, b event) bool {
	if a.wakeSec != b.wakeSec {
		return a.wakeSec < b.wakeSec
	}
	return a.id < b.id
}

// minEvent scans bucket i for its earliest event.
func (h *eventHeap) minEvent(i int) (blk int32, slot int) {
	c := &h.buckets[i]
	blk = c.head
	for b := c.head; ; b = h.next[b] {
		for s, e := range h.filled(c, b) {
			if eventLess(e, h.pool[blk][slot]) {
				blk, slot = b, s
			}
		}
		if b == c.tail {
			return blk, slot
		}
	}
}

// peek returns the earliest pending event without settling: the floor
// stays at the instant being drained, so pushes at it remain valid.
func (h *eventHeap) peek() event {
	b, s := h.minEvent(bits.TrailingZeros64(h.occupied))
	return h.pool[b][s]
}

// pop removes and returns the earliest pending event. The engine never
// pops one event at a time (drainInstant takes a whole instant), so this
// view for tests and the hold benchmark scans bucket 0 for the lowest id,
// O(k) for a k-way tie, and fills the hole with the chain's last event.
func (h *eventHeap) pop() event {
	if h.occupied&1 == 0 {
		h.settle()
	}
	b, s := h.minEvent(0)
	top := h.pool[b][s]
	c := &h.buckets[0]
	c.tailLen--
	h.pool[b][s] = h.pool[c.tail][c.tailLen]
	if c.tailLen == 0 {
		last := c.tail
		if c.head == last {
			h.occupied &^= 1
		} else {
			for c.tail = c.head; h.next[c.tail] != last; c.tail = h.next[c.tail] {
			}
			c.tailLen = blockEvents
		}
		h.next[last], h.free = h.free, last
	}
	h.n--
	return top
}

// queueModel drives an event queue against a sorted-slice reference under
// the engine's rules: each session id is pending at most once, and every
// push is at or after the last popped instant.
type queueModel struct {
	t       *testing.T
	rng     *rand.Rand
	h       *eventHeap
	ref     []event // pending events in (wakeSec, id) order
	pending []bool  // by session id
	budget  []int   // re-pushes left per id, as a session's chunk budget
	nowSec  float64 // the last popped instant
	wake    func(m *queueModel, id int32) float64
	batch   []int32
}

func (m *queueModel) push(id int32, wakeSec float64) {
	m.t.Helper()
	if m.pending[id] || wakeSec < m.nowSec {
		m.t.Fatalf("model bug: push of id %d at %v (pending %t, now %v)", id, wakeSec, m.pending[id], m.nowSec)
	}
	e := event{wakeSec: wakeSec, id: id}
	m.h.push(e)
	i := sort.Search(len(m.ref), func(i int) bool { return eventLess(e, m.ref[i]) })
	m.ref = slices.Insert(m.ref, i, e)
	m.pending[id] = true
}

// freeID returns a random id that is not pending, or -1 if all are.
func (m *queueModel) freeID() int32 {
	n := int32(len(m.pending))
	start := int32(m.rng.Intn(int(n)))
	for k := int32(0); k < n; k++ {
		if id := (start + k) % n; !m.pending[id] {
			return id
		}
	}
	return -1
}

func (m *queueModel) pop() {
	m.t.Helper()
	got, want := m.h.pop(), m.ref[0]
	if got != want {
		m.t.Fatalf("pop = %+v, want %+v", got, want)
	}
	m.ref = m.ref[1:]
	m.pending[got.id] = false
	m.nowSec = got.wakeSec
}

func (m *queueModel) peek() {
	m.t.Helper()
	if got, want := m.h.peek(), m.ref[0]; got != want {
		m.t.Fatalf("peek = %+v, want %+v", got, want)
	}
}

// drain runs one drainInstant call. The reference steps the instant in
// rounds: a round is every pending event due at the instant, in id order,
// and a step that re-pushes its id at the same instant lands in the next
// round of the same call. A stepped id with budget left is re-pushed at
// the scenario's next wakeup for it.
func (m *queueModel) drain() {
	m.t.Helper()
	dueSec := m.ref[0].wakeSec
	var round []int32
	next := 0
	m.batch = drainInstant(m.h, m.batch, func(id int32) {
		if next == len(round) {
			round = round[:0]
			for len(m.ref) > 0 && m.ref[0].wakeSec == dueSec {
				round = append(round, m.ref[0].id)
				m.pending[m.ref[0].id] = false
				m.ref = m.ref[1:]
			}
			next = 0
		}
		if next == len(round) || round[next] != id {
			m.t.Fatalf("instant %v: stepped id %d, want round %v from position %d", dueSec, id, round, next)
		}
		next++
		m.nowSec = dueSec
		if m.budget[id] > 0 {
			m.budget[id]--
			m.push(id, m.wake(m, id))
		}
	})
	if next != len(round) {
		m.t.Fatalf("instant %v: round %v cut short after %d steps", dueSec, round, next)
	}
	if len(m.ref) > 0 && m.ref[0].wakeSec == dueSec {
		m.t.Fatalf("instant %v returned with id %d still due", dueSec, m.ref[0].id)
	}
}

func (m *queueModel) checkLen() {
	m.t.Helper()
	if m.h.len() != len(m.ref) {
		m.t.Fatalf("len = %d, reference holds %d", m.h.len(), len(m.ref))
	}
}

// mixedWake draws the engine's kinds of wakeup: every 64th id is a session
// on an all-outage trace, which only ever wakes at +Inf; the others wake
// at the instant being drained (a zero-duration step), on a coarse grid
// that many ids share bit for bit, or at a fresh later instant.
func mixedWake(m *queueModel, id int32) float64 {
	if id%64 == 63 {
		return math.Inf(1)
	}
	switch r := m.rng.Float64(); {
	case r < 0.15:
		return m.nowSec
	case r < 0.40:
		return math.Ceil(m.nowSec/0.5)*0.5 + 0.5*float64(m.rng.Intn(4))
	default:
		return m.nowSec + 4*m.rng.Float64()
	}
}

// tiedWake puts nearly every wakeup on one of three shared instants.
func tiedWake(m *queueModel, _ int32) float64 {
	if m.rng.Intn(8) == 0 {
		return m.nowSec
	}
	return m.nowSec + 0.25*float64(m.rng.Intn(3))
}

// holdWake is a chunk's service interval, as in BenchmarkEventHeapHold.
func holdWake(m *queueModel, _ int32) float64 { return m.nowSec + 2 + 2*m.rng.Float64() }

// TestEventQueueModel pins the event queue's contract against a
// sorted-slice reference: pops, peeks and drainInstant rounds hand out
// exactly the (wakeSec, id) order, same-instant re-wakes are stepped in
// the same drainInstant call while later events stay pending, and a peek
// never disturbs a push at the instant just popped. Each scenario is
// seeded; after its mixed operations every id may re-push once more, and
// the queue is drained to empty.
func TestEventQueueModel(t *testing.T) {
	scenarios := []struct {
		name string
		ids  int
		// load pushes every id in id order first, as Resume does.
		load   bool
		wake   func(m *queueModel, id int32) float64
		ops    int // mixed push/pop/peek/drain operations
		drains int // drainInstant calls after the mixed operations
		budget int // re-pushes per id from inside drainInstant
	}{
		{name: "interleaved", ids: 256, wake: mixedWake, ops: 30_000, budget: 40},
		{name: "ties", ids: 64, wake: tiedWake, ops: 20_000, budget: 200},
		{name: "resume-load", ids: 5000, load: true, wake: mixedWake, drains: 20_000, budget: 3},
		{name: "live-50k", ids: 50_000, load: true, wake: holdWake, drains: 5000, budget: 1},
	}
	for i, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			m := &queueModel{
				t: t, rng: rand.New(rand.NewSource(int64(i + 1))),
				h:       newEventHeap(0, int32(sc.ids)),
				pending: make([]bool, sc.ids),
				budget:  make([]int, sc.ids),
				wake:    sc.wake,
			}
			for id := range m.budget {
				m.budget[id] = sc.budget
			}
			if sc.load {
				for id := int32(0); id < int32(sc.ids); id++ {
					m.push(id, sc.wake(m, id))
				}
			}
			for op := 0; op < sc.ops; op++ {
				switch r := m.rng.Float64(); {
				case r < 0.45:
					if id := m.freeID(); id >= 0 {
						m.push(id, sc.wake(m, id))
					}
				case len(m.ref) == 0:
				case r < 0.65:
					m.pop()
				case r < 0.75:
					m.peek()
					if id := m.freeID(); id >= 0 {
						m.push(id, m.nowSec)
					}
				default:
					m.drain()
				}
				m.checkLen()
			}
			for k := 0; k < sc.drains && len(m.ref) > 0; k++ {
				m.drain()
			}
			m.checkLen()
			for id := range m.budget {
				m.budget[id] = 1
			}
			for len(m.ref) > 0 {
				m.drain()
			}
			m.checkLen()
		})
	}
}

// TestEventQueueRejectsEarlyPush pins the queue's monotonicity guard: a
// push before the instant being drained, or of a negative or NaN wakeup,
// panics and leaves the queue as it was, never reordering it silently;
// after a reset, -0 keys as 0. Inside an engine step the panic quarantines the session.
func TestEventQueueRejectsEarlyPush(t *testing.T) {
	h := newEventHeap(0, 4)
	h.push(event{wakeSec: 2, id: 0})
	h.push(event{wakeSec: 3, id: 1})
	if got := h.pop(); got.id != 0 {
		t.Fatalf("popped id %d, want 0", got.id)
	}
	for _, w := range []float64{1.5, math.Nextafter(2, 0), 0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("push at %v s after draining 2 s did not panic", w)
				}
			}()
			h.push(event{wakeSec: w, id: 2})
		}()
	}
	h.push(event{wakeSec: 2, id: 2})
	for _, want := range []event{{wakeSec: 2, id: 2}, {wakeSec: 3, id: 1}} {
		if got := h.pop(); got != want {
			t.Errorf("pop = %+v, want %+v", got, want)
		}
	}
	if h.len() != 0 {
		t.Errorf("%d events left, want 0", h.len())
	}

	h.reset()
	negZero := math.Copysign(0, -1)
	h.push(event{wakeSec: 0.5, id: 0})
	h.push(event{wakeSec: negZero, id: 1})
	h.push(event{wakeSec: 0, id: 2})
	for _, want := range []int32{1, 2, 0} {
		if got := h.pop(); got.id != want {
			t.Errorf("pop after reset order: id %d, want %d", got.id, want)
		}
	}

	cfg := Config{
		Videos: []*video.Video{shortVideo()}, Traces: []*trace.Trace{trace.GenLTE(0)},
		Scheme: fixedScheme(1), Sessions: 6, Workers: 1,
	}
	// At session 3's first step past the first epoch, push it into the
	// epoch before the one being drained, where the engine never schedules.
	var sh *shard
	faultChunk := -1
	cfg.CrashHook = func(id int32, chunk int) {
		floorSec := math.Float64frombits(sh.heap.floor)
		if id == 3 && faultChunk < 0 && floorSec >= sh.e.epochSec {
			faultChunk = chunk
			sh.heap.push(event{wakeSec: floorSec - sh.e.epochSec, id: id})
		}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh = &e.shards[0]
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if faultChunk <= 0 {
		t.Fatalf("session 3 pushed early at chunk %d, want a chunk past its first", faultChunk)
	}
	if q := res.Quarantined; len(q) != 1 || q[0].SessionID != 3 || q[0].Chunk != faultChunk ||
		!strings.Contains(q[0].Reason, "not at or after the instant being drained") {
		t.Errorf("quarantined %+v, want session 3 at chunk %d for an early wakeup", q, faultChunk)
	}
	for _, bad := range res.Invariants(cfg) {
		t.Errorf("invariant violated: %v", bad)
	}
}

// TestTakeDueOrder pins takeDue's bitmap order against slices.Sort: on a
// shard whose id range starts past 0 and ends mid-word, every set of ids
// queued at one instant (the range's first id, its last, both, the full
// range and random subsets, pushed in random order) comes back once each
// in ascending id, the bitmap is clear after every call, and later events
// stay queued. Two events for one id at one instant panic instead of
// merging into one step.
func TestTakeDueOrder(t *testing.T) {
	const lo, hi = 1000, 1000 + 300
	rng := rand.New(rand.NewSource(9))
	full := make([]int32, 0, hi-lo)
	for id := int32(lo); id < hi; id++ {
		full = append(full, id)
	}
	sets := [][]int32{{lo}, {hi - 1}, {hi - 1, lo}, full}
	for k := 0; k < 200; k++ {
		n := 1 + rng.Intn(hi-lo)
		set := make([]int32, 0, n)
		for _, i := range rng.Perm(hi - lo)[:n] {
			set = append(set, lo+int32(i))
		}
		sets = append(sets, set)
	}
	h := newEventHeap(lo, hi)
	batch := make([]int32, 0, hi-lo)
	for r, set := range sets {
		set = slices.Clone(set)
		rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		nowSec := float64(r)
		for _, id := range set {
			h.push(event{wakeSec: nowSec, id: id})
		}
		// A later event of an id not in the set must stay queued.
		later := int32(-1)
		if len(set) < hi-lo {
			for later = lo; slices.Contains(set, later); later++ {
			}
			h.push(event{wakeSec: nowSec + 0.5, id: later})
		}
		batch = drainInstant(h, batch, func(int32) {})
		want := slices.Clone(set)
		slices.Sort(want)
		if !slices.Equal(batch, want) {
			t.Fatalf("set %d of %d ids: takeDue handed out %v, want %v", r, len(set), batch, want)
		}
		for w, word := range h.due {
			if word != 0 {
				t.Fatalf("set %d: bitmap word %d is %#x after takeDue, want 0", r, w, word)
			}
		}
		if later >= 0 {
			if got := h.pop(); got != (event{wakeSec: nowSec + 0.5, id: later}) {
				t.Fatalf("set %d: later event popped as %+v", r, got)
			}
		}
		if h.len() != 0 {
			t.Fatalf("set %d: %d events left, want 0", r, h.len())
		}
	}

	h = newEventHeap(lo, hi)
	for _, id := range []int32{lo + 3, lo + 70, lo + 3} {
		h.push(event{wakeSec: 5, id: id})
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "two events due") {
			t.Errorf("two pending events for session %d: recovered %v, want a panic naming them", lo+3, r)
		}
	}()
	drainInstant(h, batch, func(int32) {})
}

// queueSlackBytes is the queue's storage beyond 16 B per event: a partly
// filled block per bucket and the chain table.
const queueSlackBytes = 80 << 10

// TestEventQueueStorage pins the queue's memory at one shard of the
// benchmark fleet: heapHoldEvents events pushed at one instant, as the
// fleet's arrivals are, then spread over the buckets by a hold run,
// retain at most 16 B per event plus queueSlackBytes. A queue that grew
// storage per bucket would retain several times that.
func TestEventQueueStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	batch := make([]int32, 0, heapHoldEvents)
	var h *eventHeap
	step := func(id int32) {
		nowSec := math.Float64frombits(h.floor)
		h.push(event{wakeSec: nowSec + 2 + 2*rng.Float64(), id: id})
	}
	before := liveHeapBytes()
	h = newEventHeap(0, heapHoldEvents)
	for id := int32(0); id < heapHoldEvents; id++ {
		h.push(event{wakeSec: 0, id: id})
	}
	for k := 0; k < 4*heapHoldEvents; k++ {
		batch = drainInstant(h, batch, step)
	}
	retained := liveHeapBytes() - before
	runtime.KeepAlive(h)
	runtime.KeepAlive(batch)
	runtime.KeepAlive(rng)
	if budget := int64(heapHoldEvents*16 + queueSlackBytes); retained > budget {
		t.Errorf("queue of %d events retains %d B, budget %d B", heapHoldEvents, retained, budget)
	}
}

// liveHeapBytes is the heap still reachable after a full collection. The
// second collection frees what sync.Pool victim caches held at the first.
func liveHeapBytes() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
