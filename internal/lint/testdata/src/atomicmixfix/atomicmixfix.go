// Package atomicmixfix exercises the atomicmix analyzer: a field that is
// the target of sync/atomic function calls must never be read or written
// plainly, and atomic.Value is not used at all.
package atomicmixfix

import "sync/atomic"

type hits struct {
	n     int64
	other int64
}

func (h *hits) bump() {
	atomic.AddInt64(&h.n, 1)
}

func (h *hits) read() int64 {
	return atomic.LoadInt64(&h.n)
}

func (h *hits) mixedWrite() {
	h.n++ // want atomicmix
}

func (h *hits) mixedRead() int64 {
	return h.n // want atomicmix
}

// plainOnly is fine: other is never touched atomically.
func (h *hits) plainOnly() {
	h.other++
}

// atomic.Value is flagged wherever its type is named: go vet's copylocks
// check cannot see it copied.
type box struct {
	v atomic.Value // want atomicmix
}

func newValue() *atomic.Value { // want atomicmix
	return new(atomic.Value) // want atomicmix
}

// pointerBox is the replacement, which copylocks checks.
type pointerBox struct {
	p atomic.Pointer[hits]
}

func (b *pointerBox) load() *hits {
	return b.p.Load()
}

// bareWaiver shows that a reason-less directive does not suppress.
func bareWaiver(h *hits) {
	//lint:allow atomicmix
	h.n++ // want atomicmix
}
