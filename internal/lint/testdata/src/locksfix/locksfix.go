// Package locksfix exercises the locks analyzer: Lock calls whose Unlock
// is missing or skippable by an early return, and WaitGroup.Add inside the
// goroutine it gates.
package locksfix

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func (g *guarded) neverUnlocks() {
	g.mu.Lock() // want locks
	g.n++
}

func (g *guarded) earlyReturn(stop bool) int {
	g.mu.Lock() // want locks
	if stop {
		return 0
	}
	g.mu.Unlock()
	return g.n
}

// deferred is the canonical safe shape.
func (g *guarded) deferred() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// branchUnlocks releases on every path without defer: safe.
func (g *guarded) branchUnlocks(stop bool) int {
	g.mu.Lock()
	if stop {
		g.mu.Unlock()
		return 0
	}
	g.n++
	g.mu.Unlock()
	return g.n
}

type table struct {
	mu sync.RWMutex
	m  map[string]int
}

func (t *table) getLeaky(k string) int {
	t.mu.RLock() // want locks
	if t.m == nil {
		return 0
	}
	v := t.m[k]
	t.mu.RUnlock()
	return v
}

func (t *table) getSafe(k string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[k]
}

// addInside races: the spawner can reach Wait before Add runs.
func addInside(work func()) *sync.WaitGroup {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want locks
		defer wg.Done()
		work()
	}()
	return &wg
}

// addOutside is the safe idiom.
func addOutside(work func()) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	return &wg
}

// bareWaiver shows that a reason-less directive does not suppress.
func bareWaiver(g *guarded) {
	//lint:allow locks
	g.mu.Lock() // want locks
	g.n++
}
