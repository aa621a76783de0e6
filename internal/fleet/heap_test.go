package fleet

import (
	"math/rand"
	"testing"
)

// heapHoldEvents is the live event count of BenchmarkEventHeapHold: one
// shard's share of a 100k-session fleet on two workers, every session in
// flight.
const heapHoldEvents = 50_000

// BenchmarkEventHeapHold times the event heap in a shard's steady state,
// the classic hold model: each op pops the earliest of heapHoldEvents live
// events and pushes that session's next wakeup 2–4 s later, about one
// chunk's service interval. It measures the heap alone, which the bench
// harness's per-layer closure does not yet time.
func BenchmarkEventHeapHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := newEventHeap(heapHoldEvents)
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
