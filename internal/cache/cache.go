// Package cache is the repository's content-addressed artifact cache and
// sweep memoization layer. Every figure/table reproduction derives the same
// artifacts from the same deterministic inputs — generated videos, quality
// tables, scene classifications, whole sim sweeps — so the cache
// fingerprints those inputs (fingerprint.go) and memoizes the outputs
// behind a concurrent get-or-compute API with singleflight semantics:
// parallel workers asking for the same key block on one computation instead
// of duplicating it.
//
// Two storage layers:
//
//   - In-memory, always on: a map from key to value, scoped to the Cache
//     instance (Shared is the process-wide default).
//   - On disk, optional (WithDir): values that pass through the JSON layer
//     (GetOrComputeJSON — sim sweep results) are persisted as
//     <dir>/<kind>/<fingerprint>.json, so repeated abrexport/abreval
//     invocations across processes skip completed sweeps.
//
// The disk layer is hardened against partial and corrupted files: every
// entry is framed with a FNV-64a checksum header, written to a temp file
// and renamed into place. A read that fails the checksum (bit rot, torn
// write by a pre-rename crash, manual tampering) quarantines the file as
// <name>.corrupt and falls back to recomputation, so a damaged entry can
// degrade one request's latency but never poison a memoized figure.
//
// Stats(kind) is the cache's one ledger of hits, misses and quarantined
// entries. A nil *Cache disables caching: every helper computes directly.
package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
)

// Cache is a concurrent get-or-compute store. Use New; the zero value is
// not ready. A nil *Cache is a valid disabled cache.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
	stats   map[string]*Stats
	dir     string
}

// entry is one in-flight or completed computation.
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// Stats counts one kind's cache outcomes. Hits are requests served without
// running the computation (in-memory, disk, or by waiting on another
// caller's in-flight computation); Misses are actual computations; Corrupt
// counts disk entries that failed checksum verification and were
// quarantined (each such request also recomputes, so it counts a miss too).
type Stats struct {
	Hits, Misses, Corrupt uint64
}

// Option configures a Cache.
type Option func(*Cache)

// WithDir enables the on-disk JSON layer rooted at dir (created lazily).
func WithDir(dir string) Option {
	return func(c *Cache) { c.dir = dir }
}

// New returns an empty cache.
func New(opts ...Option) *Cache {
	c := &Cache{
		entries: make(map[string]*entry),
		stats:   make(map[string]*Stats),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Shared is the process-wide default cache (in-memory only). Experiment
// runners fall back to it when no explicit cache is configured, so one
// abreval/test process never regenerates an artifact or re-executes an
// identical sweep.
var Shared = New()

// Stats returns a snapshot of one kind's counters (zero for unknown kinds
// and on a nil cache).
func (c *Cache) Stats(kind string) Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.stats[kind]; s != nil {
		return *s
	}
	return Stats{}
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// count records one outcome for a kind. Callers hold no lock.
func (c *Cache) count(kind string, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.statsLocked(kind)
	if hit {
		s.Hits++
	} else {
		s.Misses++
	}
}

// statsLocked returns kind's counters, creating them on first use.
func (c *Cache) statsLocked(kind string) *Stats {
	s := c.stats[kind]
	if s == nil {
		s = &Stats{}
		c.stats[kind] = s
	}
	return s
}

// GetOrCompute returns the value stored under kind/key, computing and
// storing it on first request. Concurrent requests for the same key share
// one computation (singleflight): exactly one caller runs compute, the rest
// block until it finishes and receive the same value. A compute error is
// returned to every waiter and the entry is dropped so a later request
// retries. A nil cache calls compute directly.
func (c *Cache) GetOrCompute(kind, key string, compute func() (any, error)) (any, error) {
	if c == nil {
		return compute()
	}
	full := kind + "\x00" + key
	c.mu.Lock()
	if e, ok := c.entries[full]; ok {
		c.mu.Unlock()
		<-e.done
		if e.err == nil {
			c.count(kind, true)
		}
		return e.val, e.err
	}
	e := &entry{done: make(chan struct{})}
	c.entries[full] = e
	c.mu.Unlock()

	e.val, e.err = compute()
	if e.err != nil {
		c.mu.Lock()
		delete(c.entries, full)
		c.mu.Unlock()
	} else {
		c.count(kind, false)
	}
	close(e.done)
	return e.val, e.err
}

// GetOrComputeJSON is GetOrCompute for JSON-serializable values, adding the
// on-disk layer: a first-in-process request probes <dir>/<kind>/<key>.json
// before computing (a disk load counts as a hit), and a fresh computation
// is persisted for future processes. Disk failures degrade to compute-only;
// they never fail the request.
func GetOrComputeJSON[T any](c *Cache, kind, key string, compute func() (T, error)) (T, error) {
	if c == nil {
		return compute()
	}
	v, err := c.GetOrCompute(kind, key, func() (any, error) {
		if data, ok := c.readDisk(kind, key); ok {
			var out T
			if jerr := json.Unmarshal(data, &out); jerr == nil {
				return diskLoaded[T]{out}, nil
			}
			// A corrupt or stale-format file is ignored and overwritten.
		}
		out, err := compute()
		if err != nil {
			return nil, err
		}
		if data, jerr := json.Marshal(out); jerr == nil {
			c.writeDisk(kind, key, data)
		}
		return out, nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	// A disk load was a miss by GetOrCompute's accounting (the closure ran);
	// reclassify it as a hit — the computation itself was skipped.
	if dl, ok := v.(diskLoaded[T]); ok {
		c.reclassify(kind)
		return dl.val, nil
	}
	return v.(T), nil
}

// diskLoaded marks a value that came from the disk layer rather than a
// fresh computation, so the hit/miss accounting can tell them apart.
type diskLoaded[T any] struct{ val T }

// reclassify converts the most recent miss of a kind into a hit.
func (c *Cache) reclassify(kind string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.stats[kind]; s != nil && s.Misses > 0 {
		s.Misses--
		s.Hits++
	}
}

// diskPath maps kind/key to a file. Keys are hex fingerprints, so they are
// safe path components; kind is a short identifier chosen by callers.
func (c *Cache) diskPath(kind, key string) string {
	return filepath.Join(c.dir, kind, key+".json")
}

// diskMagic opens every checksummed disk entry. The full header is one
// line — "abrcache1 <fnv64a hex16> <payload byte count>\n" — followed by
// the JSON payload the checksum covers. Files without the magic are
// pre-checksum legacy entries: not corrupt, just unverifiable, so they
// read as misses and get rewritten in the framed format.
const diskMagic = "abrcache1 "

// frameDisk wraps a payload in the checksum header.
func frameDisk(payload []byte) []byte {
	h := fnv.New64a()
	h.Write(payload)
	header := fmt.Sprintf("%s%016x %d\n", diskMagic, h.Sum64(), len(payload))
	return append([]byte(header), payload...)
}

// unframeDisk verifies a framed entry and returns its payload. legacy
// reports a file predating the checksum format; err reports a framed file
// whose header or checksum does not match its contents.
func unframeDisk(raw []byte) (payload []byte, legacy bool, err error) {
	if !bytes.HasPrefix(raw, []byte(diskMagic)) {
		return nil, true, nil
	}
	rest := raw[len(diskMagic):]
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return nil, false, fmt.Errorf("truncated header")
	}
	var sum uint64
	var count int
	if _, err := fmt.Sscanf(string(rest[:nl]), "%x %d", &sum, &count); err != nil {
		return nil, false, fmt.Errorf("malformed header %q", rest[:nl])
	}
	payload = rest[nl+1:]
	if len(payload) != count {
		return nil, false, fmt.Errorf("payload is %d bytes, header says %d (torn write)", len(payload), count)
	}
	h := fnv.New64a()
	h.Write(payload)
	if got := h.Sum64(); got != sum {
		return nil, false, fmt.Errorf("checksum %016x, header says %016x (bit rot)", got, sum)
	}
	return payload, false, nil
}

// readDisk loads and verifies one entry. A corrupt file — framed but
// failing its length or checksum — is quarantined (renamed to
// <name>.corrupt), counted, and reported as a miss so the caller
// recomputes; it is never returned as data.
func (c *Cache) readDisk(kind, key string) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	path := c.diskPath(kind, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	payload, legacy, err := unframeDisk(raw)
	if err != nil {
		c.quarantineDisk(kind, path)
		return nil, false
	}
	if legacy {
		return nil, false
	}
	return payload, true
}

// quarantineDisk moves a corrupt entry aside so the recomputed value can
// take its place while the damaged bytes stay inspectable, and counts the
// event in Stats.Corrupt.
func (c *Cache) quarantineDisk(kind, path string) {
	_ = os.Rename(path, path+".corrupt") // best-effort: losing the evidence must not fail the request
	c.mu.Lock()
	defer c.mu.Unlock()
	c.statsLocked(kind).Corrupt++
}

// writeDisk persists one checksummed entry via a temp-file write, sync and
// rename, so concurrent processes never observe a torn file and a crash
// mid-write leaves the previous entry (or no entry) in place.
func (c *Cache) writeDisk(kind, key string, data []byte) {
	if c.dir == "" {
		return
	}
	path := c.diskPath(kind, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(frameDisk(data))
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		_ = os.Remove(name) // best-effort cleanup of the temp file
		return
	}
	if err := os.Rename(name, path); err != nil {
		_ = os.Remove(name) // best-effort cleanup of the temp file
	}
}

// String summarizes the cache state for logs.
func (c *Cache) String() string {
	if c == nil {
		return "cache(disabled)"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var hits, misses uint64
	for _, s := range c.stats {
		hits += s.Hits
		misses += s.Misses
	}
	return fmt.Sprintf("cache(%d entries, %d hits, %d misses)", len(c.entries), hits, misses)
}
