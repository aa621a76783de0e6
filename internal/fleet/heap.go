package fleet

import (
	"fmt"
	"math"
	"math/bits"
)

// event is one scheduled wakeup: session id is due for service at wakeSec
// of fleet virtual time. Events order by (wakeSec, id): simultaneous
// wakeups tie-break deterministically by session id, so a run's event
// order — and therefore its output — is a pure function of the seed, never
// of insertion history or scheduling.
type event struct {
	wakeSec float64
	id      int32
}

// blockEvents is the number of events in one pool block (1 KiB).
const blockEvents = 64

// numBuckets covers every key a wakeup can have: keys never set bit 63, so
// key ^ floor has at most 63 significant bits.
const numBuckets = 64

// noBlock ends the free-block list.
const noBlock = -1

// keyOf is the radix key of a wakeup: its IEEE bits, which order like the
// values for the non-negative wakeups push admits. Dropping the sign bit
// keys -0 as 0.
func keyOf(wakeSec float64) uint64 { return math.Float64bits(wakeSec) &^ (1 << 63) }

// eventHeap is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990) of events keyed on keyOf(wakeSec). It relies on the engine's
// monotonicity: every push is at or after the instant being drained, its
// floor, because a session's arrivalSec + NowSec never decreases. Bucket 0
// holds the events at the floor; bucket i ≥ 1 holds those whose key first
// differs from the floor at bit i-1, i.e. bits.Len64(key ^ floor) == i.
// When bucket 0 is empty, settle moves the floor to the smallest key of
// the lowest non-empty bucket and redistributes that bucket into lower
// ones; an event moves down at most 63 times in its life, always by a
// sequential scan.
//
// A bucket is a FIFO chain of fixed-size blocks drawn from one pool, so
// the queue's storage is its capacity × 16 B plus a constant, however the
// events spread over buckets, and a steady-state push or settle allocates
// nothing.
//
// The queue serves one contiguous session-id range [lo, lo+capacity), and
// due holds one bit per id of it: takeDue orders bucket 0 by setting its
// ids' bits and reading them back in ascending order, so every bit is
// clear between calls.
type eventHeap struct {
	floor    uint64 // key of the instant being drained
	n        int
	occupied uint64 // bit i set: bucket i is non-empty
	buckets  [numBuckets]chain
	pool     []block
	next     []int32 // next[b]: the block after b in its chain or the free list
	free     int32   // head of the free-block list
	lo       int32   // the range's first session id
	due      []uint64
}

type block [blockEvents]event

// chain is one bucket: pool blocks linked head to tail through
// eventHeap.next, every block full but the tail. A chain is only ever
// appended to or taken whole; the occupied mask, not the chain, says
// whether it is empty.
type chain struct {
	head, tail int32
	tailLen    int32 // events in the tail block
}

// newEventHeap preallocates a queue for the session ids [lo, hi), one
// pending event each. Each non-empty bucket holds at most one partly
// filled block, and settle frees a source block only once its events have
// moved, so ceil(capacity/blockEvents) + numBuckets blocks always suffice;
// the pool grows past that only if more than capacity events are pending.
// The due bitmap is sized here too, one bit per id, so takeDue never grows
// it.
func newEventHeap(lo, hi int32) *eventHeap {
	capacity := int(hi - lo)
	blocks := (capacity+blockEvents-1)/blockEvents + numBuckets
	return &eventHeap{
		pool: make([]block, 0, blocks),
		next: make([]int32, 0, blocks),
		free: noBlock,
		lo:   lo,
		due:  make([]uint64, (capacity+63)/64),
	}
}

func (h *eventHeap) len() int { return h.n }

// push schedules an event. Its wakeup must be at or after the instant
// being drained; an earlier one would be popped out of order, so push
// panics instead, and inside an engine step that quarantines the session.
func (h *eventHeap) push(e event) {
	key := keyOf(e.wakeSec)
	if key < h.floor || !(e.wakeSec >= 0) {
		h.reject(e)
	}
	h.place(e, key)
	h.n++
}

// reject panics on a push the queue cannot order.
func (h *eventHeap) reject(e event) {
	//lint:allow nopanic an out-of-order wakeup is an engine bug that would silently reorder decisions; the step's recover quarantines the session
	panic(fmt.Sprintf("fleet: session %d woken at %v s, not at or after the instant being drained (%v s)",
		e.id, e.wakeSec, math.Float64frombits(h.floor)))
}

// place appends an event to the bucket its key falls in relative to the
// floor.
func (h *eventHeap) place(e event, key uint64) {
	i := bits.Len64(key ^ h.floor)
	c := &h.buckets[i]
	if h.occupied&(1<<i) == 0 {
		h.occupied |= 1 << i
		b := h.newBlock()
		c.head, c.tail, c.tailLen = b, b, 0
	} else if c.tailLen == blockEvents {
		b := h.newBlock()
		h.next[c.tail] = b
		c.tail, c.tailLen = b, 0
	}
	h.pool[c.tail][c.tailLen] = e
	c.tailLen++
}

// newBlock takes a block off the free list, or a fresh one from the pool.
func (h *eventHeap) newBlock() int32 {
	if b := h.free; b != noBlock {
		h.free = h.next[b]
		return b
	}
	//lint:allow hotalloc the pool is preallocated in newEventHeap to the most blocks capacity pending events occupy; one pending event per session keeps this append within it
	h.pool = append(h.pool, block{})
	//lint:allow hotalloc next is preallocated alongside the pool
	h.next = append(h.next, noBlock)
	return int32(len(h.pool) - 1)
}

// filled is the occupied part of block b of chain c.
func (h *eventHeap) filled(c *chain, b int32) []event {
	if b == c.tail {
		return h.pool[b][:c.tailLen]
	}
	return h.pool[b][:]
}

// settle brings the earliest pending instant into the empty bucket 0: it
// moves the floor to the smallest key of the lowest non-empty bucket and
// redistributes that bucket, whose events all land in lower buckets
// relative to the new floor, those at the floor itself in bucket 0. Each
// source block returns to the free list once its events have moved.
// Callers check that the queue is not empty.
func (h *eventHeap) settle() {
	i := bits.TrailingZeros64(h.occupied)
	src := h.buckets[i]
	h.occupied &^= 1 << i
	floor := uint64(math.MaxUint64)
	for b := src.head; ; b = h.next[b] {
		for _, e := range h.filled(&src, b) {
			floor = min(floor, keyOf(e.wakeSec))
		}
		if b == src.tail {
			break
		}
	}
	h.floor = floor
	for b := src.head; ; {
		for _, e := range h.filled(&src, b) {
			h.place(e, keyOf(e.wakeSec))
		}
		next, last := h.next[b], b == src.tail
		h.next[b], h.free = h.free, b
		if last {
			return
		}
		b = next
	}
}

// drainInstant pops and processes every event due at the earliest pending
// instant before returning, so virtual time never advances past work still
// scheduled at the current instant. Processing proceeds in rounds: one
// round takes the instant's currently queued events — bucket 0, in
// ascending session id, the deterministic tie-break — and steps each; a
// session that step re-pushes at the same instant (a zero-duration
// wakeup) lands in bucket 0 again and so in the *next round of the same
// call*, never in a later instant. The round structure is the contract: a
// session stepped twice in one instant necessarily interleaves ids across
// rounds, so a single globally id-sorted pass cannot exist. The floor
// stays at the instant until the next call settles, so those re-pushes
// are never below it.
//
// batch is the caller's reusable scratch buffer, returned (possibly grown)
// for the next call; with a preallocated buffer and a prebuilt step func
// the drain allocates nothing. Callers check that the queue is not empty.
//
// The engine pushes only epoch starts (shard.schedule), so to the queue an
// instant is a whole epoch, and a visit keeps stepping its session until
// the wakeup leaves the epoch (shard.advanceSession): the engine never
// pushes at the floor, so one call is one round.
func drainInstant(h *eventHeap, batch []int32, step func(id int32)) []int32 {
	if h.occupied&1 == 0 {
		h.settle()
	}
	for h.occupied&1 != 0 {
		batch = h.takeDue(batch)
		for _, id := range batch {
			step(id)
		}
	}
	return batch
}

// takeDue empties bucket 0 into batch, overwriting it, in ascending
// session id, and returns the bucket's chain to the free list. It orders
// the ids without comparing them: it sets each id's bit in the due bitmap,
// then reads the words back from the lowest id's to the highest id's,
// clearing them as it goes. Two events for one id in bucket 0 would set
// one bit and be stepped once, so that panics.
func (h *eventHeap) takeDue(batch []int32) []int32 {
	batch = batch[:0]
	c := &h.buckets[0]
	h.occupied &^= 1
	first, last := uint(len(h.due)), uint(0)
	for b := c.head; ; b = h.next[b] {
		for _, e := range h.filled(c, b) {
			i := uint(e.id - h.lo)
			w, bit := i/64, uint64(1)<<(i%64)
			if h.due[w]&bit != 0 {
				h.duplicate(e)
			}
			h.due[w] |= bit
			first, last = min(first, w), max(last, w)
		}
		if b == c.tail {
			break
		}
	}
	h.next[c.tail], h.free = h.free, c.head
	for w := first; w <= last; w++ {
		word := h.due[w]
		h.due[w] = 0
		base := h.lo + int32(w*64)
		for ; word != 0; word &= word - 1 {
			//lint:allow hotalloc shard.init preallocates batch to the shard's size, and bucket 0 never holds more than the shard's sessions, one pending event each
			batch = append(batch, base+int32(bits.TrailingZeros64(word)))
		}
	}
	h.n -= len(batch)
	return batch
}

// duplicate panics on a second event for one session in bucket 0.
func (h *eventHeap) duplicate(e event) {
	//lint:allow nopanic two pending events for one session are an engine bug that the due bitmap would silently merge into one step
	panic(fmt.Sprintf("fleet: session %d has two events due at %v s; a session is pending at most once",
		e.id, math.Float64frombits(h.floor)))
}

// reset empties the queue and rewinds its floor to 0, keeping its storage
// and id range.
func (h *eventHeap) reset() {
	clear(h.due)
	*h = eventHeap{pool: h.pool[:0], next: h.next[:0], free: noBlock, lo: h.lo, due: h.due}
}
