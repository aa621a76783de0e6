package edge

import (
	"fmt"
	"testing"
)

// TestRingRejectsBadOrigins pins the constructor's validation: an empty
// origin set and duplicate names are both configuration errors.
func TestRingRejectsBadOrigins(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("NewRing(nil) = nil error, want error")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0); err == nil {
		t.Fatal("NewRing with duplicate = nil error, want error")
	}
}

// TestRingOrderIsAPermutation checks the failover contract: Order returns
// every origin exactly once, primary first.
func TestRingOrderIsAPermutation(t *testing.T) {
	names := []string{"o0", "o1", "o2", "o3", "o4"}
	r, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("video-%d", k)
		order := r.Order(key)
		if len(order) != len(names) {
			t.Fatalf("Order(%q) has %d entries, want %d", key, len(order), len(names))
		}
		seen := make(map[int]bool)
		for _, oi := range order {
			if oi < 0 || oi >= len(names) || seen[oi] {
				t.Fatalf("Order(%q) = %v is not a permutation", key, order)
			}
			seen[oi] = true
		}
	}
}

// TestRingBalance checks that virtual nodes spread keys across origins: with
// 3 origins and 3000 keys, no origin should own less than a tenth of the
// keyspace (a strict-uniform share would be a third each).
func TestRingBalance(t *testing.T) {
	names := []string{"http://a:1", "http://b:2", "http://c:3"}
	r, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 3000
	counts := make([]int, len(names))
	for k := 0; k < keys; k++ {
		counts[r.Order(fmt.Sprintf("video-%d", k))[0]]++
	}
	for i, c := range counts {
		if c < keys/10 {
			t.Errorf("origin %d owns %d/%d keys; distribution too skewed: %v",
				i, c, keys, counts)
		}
	}
}

// TestRingStability pins the consistency properties: the mapping is a pure
// function of the name set (two rings agree), and removing one origin only
// remaps the keys it owned.
func TestRingStability(t *testing.T) {
	names := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the last origin; indices 0 and 1 keep their meaning.
	shrunk, err := NewRing(names[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 500; k++ {
		key := fmt.Sprintf("video-%d", k)
		p := r1.Order(key)[0]
		if q := r2.Order(key)[0]; q != p {
			t.Fatalf("rings disagree on %q: %d vs %d", key, p, q)
		}
		if q := shrunk.Order(key)[0]; p != 2 && q != p {
			t.Errorf("key %q moved from origin %d to %d when origin 2 left", key, p, q)
		}
	}
}
