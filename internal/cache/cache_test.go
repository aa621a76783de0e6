package cache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cava/internal/quality"
	"cava/internal/trace"
	"cava/internal/video"
)

func TestGetOrComputeMemoizes(t *testing.T) {
	c := New()
	calls := 0
	get := func() (any, error) {
		return c.GetOrCompute("k", "key", func() (any, error) {
			calls++
			return 42, nil
		})
	}
	for i := 0; i < 3; i++ {
		v, err := get()
		if err != nil || v.(int) != 42 {
			t.Fatalf("get %d: %v, %v", i, v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if s := c.Stats("k"); s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits 1 miss", s)
	}
}

func TestGetOrComputeSingleflight(t *testing.T) {
	c := New()
	var calls atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrCompute("sf", "key", func() (any, error) {
				calls.Add(1)
				<-release // hold every concurrent caller at the door
				return "shared", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1", got)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	s := c.Stats("sf")
	if s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("stats = %+v, want 1 miss %d hits", s, n-1)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := New()
	calls := 0
	boom := errors.New("boom")
	get := func(fail bool) (any, error) {
		return c.GetOrCompute("e", "key", func() (any, error) {
			calls++
			if fail {
				return nil, boom
			}
			return "ok", nil
		})
	}
	if _, err := get(true); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	// The failed entry must not poison the key: the next call retries.
	v, err := get(false)
	if err != nil || v != "ok" {
		t.Fatalf("retry got %v, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
	if s := c.Stats("e"); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("stats = %+v: errors must not count as misses or hits", s)
	}
}

func TestGetOrComputeJSONDiskRoundTrip(t *testing.T) {
	type payload struct {
		Name string    `json:"name"`
		Xs   []float64 `json:"xs"`
	}
	dir := t.TempDir()
	want := payload{Name: "p", Xs: []float64{1.5, 0.1 + 0.2, -3}}

	cold := New(WithDir(dir))
	got, err := GetOrComputeJSON(cold, "sweep", "abc123", func() (payload, error) { return want, nil })
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("cold: %+v, %v", got, err)
	}
	if s := cold.Stats("sweep"); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("cold stats = %+v", s)
	}
	if _, err := filepath.Glob(filepath.Join(dir, "sweep", "abc123.json")); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same dir (a new process) loads from disk:
	// deep-equal value, no compute, and the load counts as a hit.
	warm := New(WithDir(dir))
	got2, err := GetOrComputeJSON(warm, "sweep", "abc123", func() (payload, error) {
		t.Fatal("compute ran despite disk entry")
		return payload{}, nil
	})
	if err != nil || !reflect.DeepEqual(got2, want) {
		t.Fatalf("warm: %+v, %v", got2, err)
	}
	if s := warm.Stats("sweep"); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("warm stats = %+v, want 1 hit 0 misses", s)
	}
}

// TestCacheTelemetryCounters pins the per-kind counters Stats reports,
// the cache's only ledger: JSON requests count like any other, and kinds
// do not share counts.
func TestCacheTelemetryCounters(t *testing.T) {
	c := New()
	for i := 0; i < 3; i++ {
		GetOrComputeJSON(c, "sim", "k", func() (int, error) { return 7, nil })
	}
	if s := c.Stats("sim"); s != (Stats{Hits: 2, Misses: 1}) {
		t.Errorf("sim stats = %+v, want 2 hits 1 miss", s)
	}
	if s := c.Stats("video"); s != (Stats{}) {
		t.Errorf("untouched kind stats = %+v, want zero", s)
	}
}

func TestGenerateKeyedByFullConfig(t *testing.T) {
	c := New()
	// Cap4x ED and plain FFmpeg ED share a video ID but differ in cap;
	// the cache must treat them as distinct artifacts.
	ed := video.FFmpegConfig(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)
	cap4 := video.Cap4xConfig()
	if ed.ID() != cap4.ID() {
		t.Fatalf("precondition: IDs differ (%s vs %s)", ed.ID(), cap4.ID())
	}
	if GenConfigKey(ed) == GenConfigKey(cap4) {
		t.Fatal("GenConfigKey collides for configs differing only in cap")
	}
	v1, v2 := c.Generate(ed), c.Generate(cap4)
	if v1 == v2 {
		t.Fatal("cache conflated the 2x and 4x encodes")
	}
	if v1.Cap != 2.0 || v2.Cap != 4.0 {
		t.Fatalf("caps = %v, %v", v1.Cap, v2.Cap)
	}
	if c.Generate(ed) != v1 {
		t.Fatal("repeated Generate did not return the memoized video")
	}
}

func TestArtifactHelpersNilSafe(t *testing.T) {
	var c *Cache
	v := c.Generate(video.YouTubeConfig(video.Title{Name: "ED", Genre: video.SciFi}))
	if v == nil {
		t.Fatal("nil cache Generate returned nil")
	}
	if qt := c.QualityTable(v, quality.VMAFPhone); qt == nil {
		t.Fatal("nil cache QualityTable returned nil")
	}
	if cats := c.Categories(v); len(cats) != v.NumChunks() {
		t.Fatal("nil cache Categories wrong length")
	}
	if got := c.Stats("video"); got != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", got)
	}
	out, err := GetOrComputeJSON[int](c, "k", "key", func() (int, error) { return 9, nil })
	if err != nil || out != 9 {
		t.Fatalf("nil cache GetOrComputeJSON: %v, %v", out, err)
	}
}

func TestVideoByID(t *testing.T) {
	c := New()
	v, err := c.VideoByID("ED-ffmpeg-h264")
	if err != nil || v.ID() != "ED-ffmpeg-h264" {
		t.Fatalf("VideoByID = %v, %v", v, err)
	}
	if again, err := c.VideoByID("ED-ffmpeg-h264"); err != nil || again != v {
		t.Fatalf("VideoByID did not memoize: %v, %v", again, err)
	}
	// Regression: an unknown ID is an error, not a crash (the former
	// MustVideoByID panicked here).
	if nv, err := c.VideoByID("nope"); err == nil || nv != nil {
		t.Fatalf("VideoByID accepted an unknown ID: %v, %v", nv, err)
	}
	// Matches the package-level lookup.
	if want := video.ByID("ED-ffmpeg-h264"); !reflect.DeepEqual(v, want) {
		t.Fatal("cached video differs from video.ByID")
	}
}

func TestFingerprintsContentSensitive(t *testing.T) {
	v1 := video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)
	v2 := video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)
	if VideoFingerprint(v1) != VideoFingerprint(v2) {
		t.Fatal("identical content at different addresses must fingerprint equally")
	}
	v3 := video.Cap4xED()
	if VideoFingerprint(v1) == VideoFingerprint(v3) {
		t.Fatal("different content must fingerprint differently")
	}
	t1, t2 := trace.Constant("c", 3e6, 100, 1), trace.Constant("c", 3e6, 100, 1)
	if TraceFingerprint(t1) != TraceFingerprint(t2) {
		t.Fatal("identical traces must fingerprint equally")
	}
	t3 := trace.Constant("c", 4e6, 100, 1)
	if TraceFingerprint(t1) == TraceFingerprint(t3) {
		t.Fatal("different traces must fingerprint differently")
	}
}

func TestHasherLengthPrefixing(t *testing.T) {
	// "ab"+"c" vs "a"+"bc" must not collide (length prefixes delimit).
	if NewHasher().Str("ab").Str("c").Sum() == NewHasher().Str("a").Str("bc").Sum() {
		t.Fatal("string concatenation collision")
	}
	if NewHasher().F64s([]float64{1, 2}).F64s(nil).Sum() ==
		NewHasher().F64s([]float64{1}).F64s([]float64{2}).Sum() {
		t.Fatal("float slice boundary collision")
	}
}

func TestStringSummary(t *testing.T) {
	c := New()
	c.GetOrCompute("k", "a", func() (any, error) { return 1, nil })
	c.GetOrCompute("k", "a", func() (any, error) { return 1, nil })
	got := fmt.Sprint(c)
	if !strings.Contains(got, "1 entries") || !strings.Contains(got, "1 hits") || !strings.Contains(got, "1 misses") {
		t.Fatalf("String() = %q", got)
	}
	var nilc *Cache
	if fmt.Sprint(nilc) != "cache(disabled)" {
		t.Fatalf("nil String() = %q", fmt.Sprint(nilc))
	}
}

// TestCacheDiskCorruptionQuarantine pins the hardened disk layer: a framed
// entry whose payload no longer matches its checksum is detected on read,
// quarantined as <name>.corrupt, counted in Stats.Corrupt, and
// transparently recomputed — the damaged
// bytes never reach a caller.
func TestCacheDiskCorruptionQuarantine(t *testing.T) {
	type payload struct {
		N int `json:"n"`
	}
	dir := t.TempDir()
	seed := New(WithDir(dir))
	if _, err := GetOrComputeJSON(seed, "sweep", "deadbeef", func() (payload, error) {
		return payload{N: 7}, nil
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sweep", "deadbeef.json")

	// Flip one payload byte under the intact header — classic bit rot.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rot := append([]byte(nil), raw...)
	rot[len(rot)-2] ^= 0x01
	if err := os.WriteFile(path, rot, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := New(WithDir(dir))
	recomputed := 0
	got, err := GetOrComputeJSON(fresh, "sweep", "deadbeef", func() (payload, error) {
		recomputed++
		return payload{N: 7}, nil
	})
	if err != nil || got.N != 7 {
		t.Fatalf("read after corruption: %+v, %v", got, err)
	}
	if recomputed != 1 {
		t.Errorf("compute ran %d times, want 1 (corrupt entry must force recompute)", recomputed)
	}
	if s := fresh.Stats("sweep"); s.Corrupt != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 corrupt 1 miss", s)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt entry not quarantined: %v", err)
	}

	// The recomputed entry replaced the damaged one: a third process reads
	// it cleanly with no compute and no new corruption count.
	warm := New(WithDir(dir))
	if _, err := GetOrComputeJSON(warm, "sweep", "deadbeef", func() (payload, error) {
		t.Fatal("compute ran despite recomputed disk entry")
		return payload{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats("sweep"); s.Corrupt != 0 || s.Hits != 1 {
		t.Errorf("post-recovery stats = %+v, want 1 hit 0 corrupt", s)
	}
}

// TestCacheDiskTornAndLegacyFiles covers the three non-checksum-match
// shapes: a framed file cut short mid-payload (a torn write that somehow
// bypassed the rename protocol) and a file whose header after the magic
// does not parse are corrupt and quarantined; a pre-checksum legacy file
// (bare JSON, no magic) is merely unverifiable — recomputed and rewritten
// in the framed format, but never counted or renamed as corrupt.
func TestCacheDiskTornAndLegacyFiles(t *testing.T) {
	dir := t.TempDir()
	seed := New(WithDir(dir))
	damage := map[string]func(raw []byte) []byte{
		"torn":    func(raw []byte) []byte { return raw[:len(raw)-1] },
		"mangled": func(raw []byte) []byte { return append([]byte(diskMagic+"zzzz\n"), raw...) },
	}
	for key, f := range damage {
		if _, err := GetOrComputeJSON(seed, "sweep", key, func() (int, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "sweep", key+".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	legacyPath := filepath.Join(dir, "sweep", "legacy.json")
	if err := os.WriteFile(legacyPath, []byte("3"), 0o644); err != nil {
		t.Fatal(err)
	}

	c := New(WithDir(dir))
	for key := range damage {
		if v, err := GetOrComputeJSON(c, "sweep", key, func() (int, error) { return 1, nil }); err != nil || v != 1 {
			t.Fatalf("%s entry: %v, %v", key, v, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "sweep", key+".json.corrupt")); err != nil {
			t.Errorf("%s entry not quarantined: %v", key, err)
		}
	}
	if v, err := GetOrComputeJSON(c, "sweep", "legacy", func() (int, error) { return 9, nil }); err != nil || v != 9 {
		t.Fatalf("legacy entry: %v, %v", v, err)
	}
	if _, err := os.Stat(legacyPath + ".corrupt"); err == nil {
		t.Error("legacy (unframed) file was quarantined as corrupt")
	}
	if s := c.Stats("sweep"); s.Corrupt != 2 || s.Misses != 3 {
		t.Errorf("stats = %+v, want 2 corrupt 3 misses", s)
	}
	// Every key is now framed on disk and verifies cleanly.
	for _, key := range []string{"torn", "mangled", "legacy"} {
		data, err := os.ReadFile(filepath.Join(dir, "sweep", key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if _, legacy, err := unframeDisk(data); legacy || err != nil {
			t.Errorf("%s not rewritten as a framed entry: legacy=%v err=%v", key, legacy, err)
		}
	}
}
